"""README's code examples run against the current API."""

import re
import shlex
from pathlib import Path

from unicity import cli

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


def _shell_examples() -> list[str]:
    """Each `unicity ...` command of README's fenced sh blocks, with its
    backslash continuations joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines += block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("unicity ")]


def test_shell_examples_parse():
    """Every CLI example in README parses and resolves against today's
    flags and checks, so a renamed or retyped flag fails here. The
    commands are not run."""
    examples = _shell_examples()
    assert len(examples) == 7
    parser = cli._build_parser()
    for line in examples:
        args = parser.parse_args(shlex.split(line)[1:])
        run, randomized, _, defaults = cli.COMMANDS[args.command]
        cli._resolve(args, defaults, randomized)
