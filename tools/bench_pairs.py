#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees.

    python3 tools/bench_pairs.py PARENT CHANGE --workload attack-curve --pairs 10 --seconds 30

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in the PARENT tree and once in the CHANGE tree, and the
tree that goes first alternates from pair to pair. The result is the JSON
object on each run's last line. For every end-to-end metric that PARENT's
BENCHMARK.json declares, the tool prints each side's median and quartiles,
the pairs the change won (ties count for neither), and whether the
change's median is worse than the parent's by more than the metric's
bound, a fraction of the parent's median. It then prints the totals of
`correct` runs and `failed` operations on each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pairs parent[i], change[i] of one metric, where better is "lower"
    or "higher": each side's quartiles (statistics.quantiles, n=4, so
    the middle one is the median), the pairs the change won, and whether
    the change's median is worse than the parent's by more than bound
    times the parent's median."""
    sign = 1 if better == "lower" else -1
    parent_q = statistics.quantiles(parent, n=4)
    change_q = statistics.quantiles(change, n=4)
    return {
        "parent": parent_q,
        "change": change_q,
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "worse": sign * (change_q[1] - parent_q[1]) > bound * abs(parent_q[1]),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree; its last line's result."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "metrics" not in result:
        sys.exit(f"no result from {' '.join(argv)} in {tree} (exit {done.returncode}):\n"
                 f"{done.stderr[-2000:]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    declared = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} {side}: correct={result['correct']} "
                  f"failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seed {args.seed}, --seconds {args.seconds:g}")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        got = compare(*([r["metrics"][name]["value"] for r in runs[side]]
                        for side in ("parent", "change")),
                      metric["better"], metric["bound"])
        (p1, pm, p3), (c1, cm, c3) = got["parent"], got["change"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}], change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
              f"({cm / pm - 1:+.1%}); change won {got['wins']}/{args.pairs}; "
              f"worse past the {metric['bound']:.0%} bound: {'yes' if got['worse'] else 'no'}")
    for side in ("parent", "change"):
        print(f"{side}: correct in {sum(r['correct'] for r in runs[side])}/{args.pairs} runs, "
              f"{sum(r['failed'] for r in runs[side])} failed of "
              f"{sum(r['attempted'] for r in runs[side])} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
