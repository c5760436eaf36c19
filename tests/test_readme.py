"""README's code examples run against the current API."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_start_runs(monkeypatch, capsys):
    """The fenced python block under "## Library quick start", run from
    the repository root as its relative data path expects."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
