#!/usr/bin/env python3
"""End-to-end benchmark of the `unicity` CLI.

    python3 perfbench/run.py --workload attack-curve --seed 1 --seconds 30 --trace 0

Runs one workload's CLI invocations (`unicity.cli.main(argv)`) in whole
rounds for about --seconds (at least two rounds), checks every
report against values from `oracle.py`, and prints as its last line a
JSON object with `correct`, `attempted`, `failed` and `metrics`. An
operation is one CLI invocation plus its checks. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run alternates an
untraced and a traced round and reports per-layer figures from spans
recorded around the calls into each module (see `tracing.py`). The line
before the result holds the environment block. Everything measured,
and the spans of the last traced round, go to
`.perfbench-out/<workload>-seed<seed>-trace<trace>.json` in the checkout.

The program is imported from `src/` of the checkout this file sits in;
the run exits 2 without a result when that tree or the corpus is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "data" / "english_sample.txt"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_SAMPLES = 9
MIN_ROUNDS = 2

# attack-curve: curve mode, lengths on both sides of the bigram U (~77)
CURVE_LENGTHS = (25, 100, 400, 1600)
CURVE_TRIALS = 2
ITERATIONS = 20_000
RESTARTS = 5
CRACK_LENGTH = 1600
ACCURACY_FLOOR = 0.9
# spurious-counts: exhaustive at G=6, then Monte Carlo at G=8. The Monte
# Carlo run spreads its 15,000 candidate keys over 50 constructions so the
# reported standard error has 49 degrees of freedom; with 3 constructions
# it has 2 and a 4-SE check fails on some seeds by chance alone.
EXHAUSTIVE = dict(g=6, n=4, rate=1.5, constructions=3)
MONTE_CARLO = dict(g=8, n=4, rate=1.9, constructions=50, trials=3, keys_per_trial=100)
MC_SE_LIMIT = 4.0
# channel-sweep: 194 messages x 8! keys = 7.8M pairs at N=4, under the 10M cap
CHANNEL = dict(g=8, lengths=(1, 2, 3, 4), rate=1.9)

TOL = 1e-9


def close(a, b, tol=TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


@dataclass
class Op:
    """One CLI invocation, the work it counts, and the checks on its report."""

    name: str
    argv: list[str]
    kind: str  # chain_steps | spurious_cells | mc_candidates | joint_pairs
    work: int
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    primary: str  # the kind counted by the end-to-end work_per_s


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "UNICITY_NO_NUMBA": os.environ.get("UNICITY_NO_NUMBA", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> float:
    """Median CPU seconds (user + sys) a fresh interpreter spends starting
    and importing unicity.cli. One unrecorded import first, so
    byte-compiling the tree is not counted. CPU time, not wall time: the
    wall time of a child this short moves with how the host schedules it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import unicity.cli"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = children_cpu_s()
        subprocess.run([sys.executable, "-c", code], check=True)
        if i:
            samples.append(children_cpu_s() - before)
    return statistics.median(samples)


def derived_seed(*parts) -> int:
    """The CLI's seed for toy language s of length n: (seed, n, s) for
    `spurious`, (seed, n) for `channel`, through numpy's SeedSequence."""
    return int(np.random.SeedSequence(entropy=tuple(parts)).generate_state(1, np.uint64)[0])


def toy_language(g: int, n: int, rate: float, seed: int) -> list[tuple[int, ...]]:
    """Messages of the toy language the CLI builds from this seed."""
    from unicity import Alphabet, build_toy_language

    codes = build_toy_language(Alphabet.first_n(g), n, rate, seed).codes
    return [oracle.decode(int(c), g, n) for c in codes]


# ---------------------------------------------------------------- workloads


def attack_curve(seed: int) -> Workload:
    text = oracle.normalize(CORPUS.read_text(encoding="utf-8"))
    # the CLI fits the curve's model on the first half (holdout 0.5)
    unicity_letters = oracle.unicity_distance(text[: int(len(text) * 0.5)])
    rng = random.Random(seed)
    offset = rng.randrange(len(text) - CRACK_LENGTH + 1)
    plaintext = text[offset : offset + CRACK_LENGTH]
    image = list(oracle.LATIN)
    rng.shuffle(image)
    true_key = "".join(image)
    encipher = dict(zip(oracle.LATIN, true_key))
    ciphertext = "".join(encipher[c] for c in plaintext)
    # crack mode fits its model on the whole corpus
    plaintext_nll = oracle.bigram_nll(plaintext, text)
    chains = RESTARTS + 1
    common = ["--corpus", str(CORPUS), "--iterations", str(ITERATIONS),
              "--restarts", str(RESTARTS), "--seed", str(seed), "--format", "json"]

    def check_curve(report):
        res = report["results"]
        problems = []
        if not close(res["unicity_distance_letters"], unicity_letters):
            problems.append(
                f"unicity_distance_letters {res['unicity_distance_letters']!r} "
                f"!= oracle {unicity_letters!r}"
            )
        rows = res["rows"]
        if sorted((r["N"], r["trial"]) for r in rows) != [
            (n, t) for n in CURVE_LENGTHS for t in range(CURVE_TRIALS)
        ]:
            problems.append("curve rows do not cover every (length, trial)")
        if any(not 0.0 <= r["plaintext_accuracy"] <= 1.0 for r in rows):
            problems.append("plaintext accuracy outside [0, 1]")
        last = res["summaries"][-1]
        longest = [r["plaintext_accuracy"] for r in rows if r["N"] == CURVE_LENGTHS[-1]]
        if last["N"] != CURVE_LENGTHS[-1] or not close(
            last["median_plaintext_accuracy"], statistics.median(longest)
        ):
            problems.append("summary median at the longest length disagrees with its rows")
        if last["median_plaintext_accuracy"] < ACCURACY_FLOOR:
            problems.append(
                f"median plaintext accuracy {last['median_plaintext_accuracy']} at "
                f"N={last['N']} below {ACCURACY_FLOOR}"
            )
        return problems

    def check_crack(report):
        res = report["results"]
        decryption = res["decryption"]
        problems = []
        if len(decryption) != len(plaintext):
            return [f"decryption has {len(decryption)} letters, expected {len(plaintext)}"]
        agree = sum(a == b for a, b in zip(decryption, plaintext)) / len(plaintext)
        if agree < ACCURACY_FLOOR:
            problems.append(f"decryption agrees with the plaintext on {agree:.4f} < 0.9")
        if not close(res["plaintext_accuracy"], agree, 1e-12):
            problems.append(f"plaintext_accuracy {res['plaintext_accuracy']} != {agree}")
        key_agree = sum(a == b for a, b in zip(res["best_key"], true_key)) / len(true_key)
        if not close(res["key_accuracy"], key_agree, 1e-12):
            problems.append(f"key_accuracy {res['key_accuracy']} != {key_agree}")
        if decryption == plaintext and not close(res["best_score_bits"], plaintext_nll):
            problems.append(
                f"best_score_bits {res['best_score_bits']!r} != oracle NLL {plaintext_nll!r}"
            )
        trace = res["score_trace"]
        if any(b > a for a, b in zip(trace, trace[1:])) or trace[-1] != res["best_score_bits"]:
            problems.append("score trace is not a best-so-far trace ending at best_score_bits")
        return problems

    curve = Op(
        "attack-curve",
        ["attack", "--mode", "curve", "--lengths", ",".join(map(str, CURVE_LENGTHS)),
         "--trials", str(CURVE_TRIALS), "--workers", "2", *common],
        "chain_steps",
        len(CURVE_LENGTHS) * CURVE_TRIALS * chains * ITERATIONS,
        check_curve,
    )
    crack = Op(
        "attack-crack",
        ["attack", "--mode", "crack", "--ciphertext", ciphertext, "--true-key", true_key,
         *common],
        "chain_steps",
        chains * ITERATIONS,
        check_crack,
    )
    return Workload([curve, crack], "chain_steps")


def _spurious_row_checks(row, g, n, size, problems):
    d = oracle.redundancy(g, n, size)
    if not close(row["D_bits_per_letter"], d):
        problems.append(f"D_bits_per_letter {row['D_bits_per_letter']!r} != {d!r}")
    e = oracle.expected_spurious_log2(g, n, size)
    if not close(row["expected_spurious_log2"], e):
        problems.append(f"expected_spurious_log2 {row['expected_spurious_log2']!r} != {e!r}")


def spurious_counts(seed: int) -> Workload:
    ex, mc = EXHAUSTIVE, MONTE_CARLO
    ex_langs = [
        toy_language(ex["g"], ex["n"], ex["rate"], derived_seed(seed, ex["n"], s))
        for s in range(ex["constructions"])
    ]
    ex_mean = sum(oracle.mean_spurious(lang, ex["g"]) for lang in ex_langs) / len(ex_langs)
    mc_langs = [
        toy_language(mc["g"], mc["n"], mc["rate"], derived_seed(seed, mc["n"], s))
        for s in range(mc["constructions"])
    ]
    mc_mean = sum(oracle.mean_spurious(lang, mc["g"]) for lang in mc_langs) / len(mc_langs)

    def check_exhaustive(report):
        (row,) = report["results"]["rows"]
        problems = []
        if not close(row["observed_mean"], ex_mean):
            problems.append(f"observed_mean {row['observed_mean']!r} != orbit form {ex_mean!r}")
        _spurious_row_checks(row, ex["g"], ex["n"], len(ex_langs[0]), problems)
        return problems

    def check_monte_carlo(report):
        (row,) = report["results"]["rows"]
        problems = []
        se = row["observed_se"]
        if not (se and se > 0) or abs(row["observed_mean"] - mc_mean) > MC_SE_LIMIT * se:
            problems.append(
                f"Monte Carlo mean {row['observed_mean']!r} (SE {se!r}) not within "
                f"{MC_SE_LIMIT} SE of the exact {mc_mean!r}"
            )
        if row["trials"] != mc["constructions"] * mc["trials"]:
            problems.append(f"trials {row['trials']} != {mc['constructions'] * mc['trials']}")
        _spurious_row_checks(row, mc["g"], mc["n"], len(mc_langs[0]), problems)
        return problems

    common = ["spurious", "--cipher", "substitution", "--seed", str(seed), "--format", "json"]
    exhaustive = Op(
        "spurious-exhaustive",
        [*common, "--mode", "exhaustive", "--alphabet-size", str(ex["g"]),
         "--length", str(ex["n"]), "--rate", str(ex["rate"]),
         "--constructions", str(ex["constructions"])],
        "spurious_cells",
        sum(math.factorial(ex["g"]) * len(lang) for lang in ex_langs),
        check_exhaustive,
    )
    monte_carlo = Op(
        "spurious-monte-carlo",
        [*common, "--mode", "monte-carlo", "--alphabet-size", str(mc["g"]),
         "--length", str(mc["n"]), "--rate", str(mc["rate"]),
         "--constructions", str(mc["constructions"]), "--trials", str(mc["trials"]),
         "--keys-per-trial", str(mc["keys_per_trial"])],
        "mc_candidates",
        mc["constructions"] * mc["trials"] * mc["keys_per_trial"],
        check_monte_carlo,
    )
    return Workload([exhaustive, monte_carlo], "spurious_cells")


def channel_sweep(seed: int) -> Workload:
    g, rate = CHANNEL["g"], CHANNEL["rate"]
    langs = {n: toy_language(g, n, rate, derived_seed(seed, n)) for n in CHANNEL["lengths"]}

    def check(report):
        rows = report["results"]["rows"]
        problems = []
        if [r["N"] for r in rows] != list(CHANNEL["lengths"]):
            return [f"channel rows for lengths {[r['N'] for r in rows]}"]
        for row in rows:
            n = row["N"]
            size = len(langs[n])
            if size != max(1, round(2.0 ** (rate * n))):
                problems.append(f"N={n}: language has {size} messages")
            mi = oracle.pattern_class_entropy(langs[n])
            for key in ("I_empA", "I_empB"):
                if not close(row[key], mi):
                    problems.append(f"N={n}: {key} {row[key]!r} != H(pattern class) {mi!r}")
            theo, clamped = oracle.theoretical_mutual_information(n, g)
            if not close(row["I_theoretical"], theo) or row["clamped"] != clamped:
                problems.append(f"N={n}: I_theoretical/clamped != {theo!r}/{clamped}")
            n_min = oracle.min_reliable_length(g, n, size)
            if not close(row["N_min"], n_min):
                problems.append(f"N={n}: N_min {row['N_min']!r} != {n_min!r}")
            reliable = math.log2(size) <= n * math.log2(g) - oracle.log2_factorial(g)
            if row["reliable"] != reliable:
                problems.append(f"N={n}: reliable {row['reliable']} != {reliable}")
        return problems

    op = Op(
        "channel",
        ["channel", "--cipher", "substitution", "--alphabet-size", str(g),
         "--lengths", ",".join(map(str, CHANNEL["lengths"])), "--rate", str(rate),
         "--seed", str(seed), "--format", "json"],
        "joint_pairs",
        sum(len(lang) for lang in langs.values()) * math.factorial(g),
        check,
    )
    return Workload([op], "joint_pairs")


WORKLOADS = {
    "attack-curve": attack_curve,
    "spurious-counts": spurious_counts,
    "channel-sweep": channel_sweep,
}
RATE_NAMES = {
    "chain_steps": "chain_steps_per_s",
    "spurious_cells": "spurious_cells_per_s",
    "mc_candidates": "mc_candidates_per_s",
    "joint_pairs": "joint_pairs_per_s",
}


# ---------------------------------------------------------------- running


@dataclass
class OpResult:
    seconds: float
    cpu_seconds: float
    exit: object
    report: str


def run_op(op: Op) -> OpResult:
    import unicity.cli

    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # looked up per call, so a tracer's wrapper is the one called
            code = unicity.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "raised"
            traceback.print_exc()
    seconds, cpu_seconds = time.perf_counter() - t0, time.process_time() - c0
    if code != 0:
        print(f"{op.name}: exit {code!r}: {err.getvalue().strip()[-2000:]}", file=sys.stderr)
    return OpResult(seconds, cpu_seconds, code, out.getvalue())


class Run:
    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_report: dict[str, str] = {}

    def round(self) -> list[OpResult]:
        results = []
        for op in self.workload.ops:
            res = run_op(op)
            self.attempted += 1
            results.append(res)
            if res.exit != 0:
                self.failed += 1
                continue
            first = self.first_report.get(op.name)
            if first is None:
                # later rounds are held to the same bytes, so one check suffices
                self.first_report[op.name] = res.report
                try:
                    found = op.check(json.loads(res.report))
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    found = [f"report unreadable: {exc!r}"]
                self.problems.extend(f"{op.name}: {p}" for p in found)
            elif res.report != first:
                self.problems.append(f"{op.name}: report bytes differ between rounds")
        return results

    def figures(self, results: list[OpResult]) -> dict:
        """wall_s, cpu_s, per-op seconds and per-kind rates of one round.
        The per-kind rates are per wall second; work_per_cpu_s is the
        primary kind's work per CPU second of the invocations doing it."""
        work, seconds, cpu = defaultdict(int), defaultdict(float), defaultdict(float)
        for op, res in zip(self.workload.ops, results):
            work[op.kind] += op.work
            seconds[op.kind] += res.seconds
            cpu[op.kind] += res.cpu_seconds
        fig = {
            "wall_s": sum(r.seconds for r in results),
            "cpu_s": sum(r.cpu_seconds for r in results),
        }
        for op, res in zip(self.workload.ops, results):
            fig[f"{op.name}.s"] = res.seconds
            fig[f"{op.name}.cpu_s"] = res.cpu_seconds
        for kind in work:
            fig[RATE_NAMES[kind]] = work[kind] / seconds[kind]
        primary = self.workload.primary
        fig["work_per_s"] = fig[RATE_NAMES[primary]]
        fig["work_per_cpu_s"] = work[primary] / cpu[primary]
        return fig


def traced_round(run: Run):
    """One round with spans around every layer entry point; returns the
    round's figures with the per-layer ones added, and the tracer."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = run.round()
    finally:
        tracer.uninstall()
    fig = run.figures(results)
    fig.update(tracing.layer_metrics(tracer.spans))
    layer_self = sum(fig[f"layer.{name}.self_s"] for name in tracing.LAYERS)
    fig["trace.unaccounted_s"] = fig["wall_s"] - layer_self
    return fig, tracer


def median_of(rows: list[dict], key: str, default: float = 0.0) -> float:
    values = [r[key] for r in rows if key in r]
    return statistics.median(values) if values else default


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unicity" / "cli.py").is_file() or not CORPUS.is_file():
        print(f"error: no unicity source tree under {SRC} or corpus {CORPUS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import unicity

    if SRC.resolve() not in Path(unicity.__file__).resolve().parents:
        print(f"error: unicity imported from {unicity.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True), flush=True)
    setup_s = measure_setup()
    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload)

    plain_rounds: list[dict] = []
    traced_rounds: list[dict] = []
    tracer = None
    start = time.perf_counter()
    while True:
        plain_rounds.append(run.figures(run.round()))
        if args.trace:
            fig, tracer = traced_round(run)
            traced_rounds.append(fig)
        # stop where the run ends nearest --seconds: once the time left is
        # under half of an average iteration (a round, or a round pair)
        elapsed = time.perf_counter() - start
        if (
            len(plain_rounds) + len(traced_rounds) >= MIN_ROUNDS
            and args.seconds - elapsed < elapsed / len(plain_rounds) / 2
        ):
            break

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        figures = {k: median_of(traced_rounds, k) for k in traced_rounds[0] if "." in k}
        figures["trace.wall_s"] = median_of(traced_rounds, "wall_s")
        figures["trace.overhead_s"] = figures["trace.wall_s"] - median_of(plain_rounds, "wall_s")
        for name in ("wall_s", "work_per_s", *RATE_NAMES.values()):
            figures[name] = median_of(plain_rounds, name)
        wanted = declared["per_layer"]
    else:
        figures = {
            "cpu_s": median_of(plain_rounds, "cpu_s"),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_per_cpu_s": median_of(plain_rounds, "work_per_cpu_s"),
        }
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}

    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "ops": [{"name": op.name, "argv": op.argv, "kind": op.kind, "work": op.work}
                for op in workload.ops],
        "setup_s": setup_s,
        "rounds": plain_rounds,
        "traced_rounds": traced_rounds,
        "absent": tracer.absent if tracer else [],
        "uncounted": sorted(tracer.uncounted) if tracer else [],
        "problems": run.problems,
        "result": result,
        "spans": [vars(s) for s in tracer.spans] if tracer else [],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
