"""The package's public names."""

import unicity


def test_star_import_resolves_every_exported_name():
    """`from unicity import *` fails on a name in `__all__` that the
    package no longer defines; nothing else imports that way."""
    namespace = {}
    exec("from unicity import *", namespace)
    assert unicity.__all__
    for name in unicity.__all__:
        assert namespace[name] is getattr(unicity, name)
