"""The benchmark's CLI surface: every argv that perfbench/run.py passes to
`unicity.cli.main` still parses and resolves, and every op runs once and
passes its own oracle checks, so a change that drops or renames a flag, a
mode or a config key the benchmark uses, or that breaks a report the
benchmark checks, fails here rather than in a benchmark run."""

import json
import sys
from pathlib import Path

import pytest

from unicity import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402


OPS = [op for workload in run.WORKLOADS.values() for op in workload(1).ops]


@pytest.mark.parametrize("op", OPS, ids=[op.name for op in OPS])
def test_benchmark_argv_parses_and_resolves(op):
    args = cli._build_parser().parse_args(op.argv)
    _, randomized, _, defaults = cli.COMMANDS[args.command]
    cfg = cli._resolve(args, defaults, randomized)
    assert cfg["seed"] == 1


@pytest.mark.parametrize("op", OPS, ids=[op.name for op in OPS])
def test_benchmark_op_passes_its_checks(op):
    result = run.run_op(op)
    assert result.exit == 0
    assert op.check(json.loads(result.report)) == []
