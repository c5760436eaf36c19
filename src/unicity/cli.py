"""Command-line entry point.

Subcommands: corpus-stats, unicity, spurious, channel, attack. Every
run resolves its parameters from built-in defaults, then an optional
JSON config file (--config), then explicit flags, and embeds the fully
resolved config and all seeds in the output, so reruns with the same
embedded config are byte-identical. Randomized commands that are not
given a seed draw one and record it.

Exit codes: 0 success, 1 experiment-level failure (infeasible
parameters, a held-out corpus too short for the requested lengths),
2 usage or I/O error, including a parameter of the wrong type or out of
range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attack import AttackConfig, mcmc_crack, recovery_curve
from .channel import channel_report
from .cipher import SHIFT, SUBSTITUTION, KeySpace, SubstitutionKey, read_keys
from .lang import Alphabet, EmptyTextError, absolute_rate, fit_ngram, normalize_text, redundancy
from .spurious import (
    ExactSetRecognizer,
    build_toy_language,
    exhaustive_spurious_counts,
    expected_spurious_keys,
    monte_carlo_spurious,
    unicity_report,
)

CORPUS_DIR_ENV = "UNICITY_CORPUS_DIR"

# Numeric parameters: (type, accepted range, test). Checked once flags and
# --config are merged; a value of another type, not finite, or outside its
# range is a usage error.
NUMERIC_PARAMS = {
    "seed": (int, ">= 0", lambda v: v >= 0),
    "workers": (int, ">= 1", lambda v: v >= 1),
    "alphabet_size": (int, "in 1..26", lambda v: 1 <= v <= 26),
    "order": (int, ">= 1", lambda v: v >= 1),
    "alpha": (float, "> 0", lambda v: v > 0),
    "redundancy": (float, "a finite number", lambda v: True),
    "n_min": (int, ">= 0", lambda v: v >= 0),
    "n_max": (int, "an integer", lambda v: True),
    "n_step": (int, ">= 1", lambda v: v >= 1),
    "rate": (float, ">= 0", lambda v: v >= 0),
    "constructions": (int, ">= 1", lambda v: v >= 1),
    "trials": (int, ">= 1", lambda v: v >= 1),
    "keys_per_trial": (int, ">= 1", lambda v: v >= 1),
    "iterations": (int, ">= 1", lambda v: v >= 1),
    "restarts": (int, ">= 0", lambda v: v >= 0),
    "temperature": (float, "> 0", lambda v: v > 0),
    "checkpoint_interval": (int, ">= 1", lambda v: v >= 1),
    "holdout_fraction": (float, "in (0, 1)", lambda v: 0 < v < 1),
}


class UsageError(Exception):
    pass


class ExperimentError(Exception):
    pass


def _find_corpus(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists():
        return path
    env_dir = os.environ.get(CORPUS_DIR_ENV)
    if env_dir and not path.is_absolute():
        candidate = Path(env_dir) / path
        if candidate.exists():
            return candidate
    raise UsageError(f"corpus file not found: {path_str}")


def _load_corpus(path_str: str, alphabet: Alphabet) -> np.ndarray:
    raw = _find_corpus(path_str).read_text(encoding="utf-8")
    try:
        text = normalize_text(raw, alphabet)
    except EmptyTextError:
        raise UsageError(f"corpus has no alphabet symbols: {path_str}") from None
    return alphabet.encode(text)


def _alphabet_from_cfg(cfg: dict) -> Alphabet:
    symbols = cfg.get("alphabet_symbols")
    if symbols:
        return Alphabet(tuple(symbols))
    return Alphabet.first_n(int(cfg["alphabet_size"]))


def _parse_lengths(value) -> list[int]:
    tokens = value if isinstance(value, (list, tuple)) else [
        tok for tok in str(value).split(",") if tok.strip()
    ]
    try:
        lengths = [int(tok) for tok in tokens]
    except (TypeError, ValueError):
        lengths = []
    if not lengths or min(lengths) < 1:
        raise UsageError(f"lengths must be comma-separated positive integers, got {value!r}")
    return lengths


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence(entropy=tuple(parts)).generate_state(1, np.uint64)[0])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sanitize(obj):
    """Make a structure JSON-safe: inf -> "unbounded", nan -> None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "unbounded" if obj > 0 else "-unbounded"
        if math.isnan(obj):
            return None
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _emit(cfg: dict, command: str, header: list[str], rows: list[list], results: dict) -> str:
    if cfg["format"] == "json":
        doc = {
            "tool": "unicity",
            "version": __version__,
            "command": command,
            "config": _sanitize({k: v for k, v in cfg.items() if k != "out"}),
            "results": _sanitize(results),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [
        "# tool=unicity",
        f"# version={__version__}",
        f"# command={command}",
        "# config="
        + json.dumps(
            _sanitize({k: v for k, v in cfg.items() if k != "out"}),
            sort_keys=True,
            separators=(",", ":"),
        ),
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(cfg: dict, text: str) -> None:
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _resolve(args: argparse.Namespace, defaults: dict, randomized: bool) -> dict:
    cfg = dict(defaults)
    cfg.update({"seed": None, "workers": 1, "format": "csv", "out": None})
    if args.config:
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(overrides) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(overrides)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key, (kind, accepted, test) in NUMERIC_PARAMS.items():
        if cfg.get(key) is None:
            continue
        try:
            value = kind(cfg[key])
            ok = math.isfinite(value) and test(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise UsageError(f"{key.replace('_', '-')} must be {accepted}, got {cfg[key]!r}")
    if randomized and cfg["seed"] is None:
        cfg["seed"] = secrets.randbits(32)
    return cfg


def _true_key(cfg: dict, alphabet: Alphabet) -> SubstitutionKey | None:
    """The known key for crack mode, from --true-key or --true-key-file."""
    try:
        if cfg["true_key"]:
            key = SubstitutionKey.from_string(cfg["true_key"], alphabet)
        elif cfg["true_key_file"]:
            keys = read_keys(_find_corpus(cfg["true_key_file"]), alphabet)
            if len(keys) != 1:
                raise UsageError("key file must hold exactly one key for crack mode")
            key = keys[0]
        else:
            return None
    except ValueError as exc:
        raise UsageError(f"invalid true key: {exc}") from None
    if key.size != alphabet.size:
        raise UsageError(
            f"true key has {key.size} letters but the alphabet has {alphabet.size}"
        )
    return key


# ---------------------------------------------------------------- commands


def cmd_corpus_stats(args) -> tuple[dict, str]:
    defaults = {
        "corpus": None,
        "order": 3,
        "alpha": 0.5,
        "alphabet_size": 26,
        "alphabet_symbols": None,
    }
    cfg = _resolve(args, defaults, randomized=False)
    if not cfg["corpus"]:
        raise UsageError("corpus-stats requires --corpus")
    alphabet = _alphabet_from_cfg(cfg)
    codes = _load_corpus(cfg["corpus"], alphabet)
    model = fit_ngram(codes, int(cfg["order"]), float(cfg["alpha"]), alphabet)
    est = redundancy(model)
    header = [
        "order",
        "alpha",
        "total_symbols",
        "R0_bits_per_letter",
        "R_bits_per_letter",
        "D_bits_per_letter",
    ]
    rows = [
        [
            model.order,
            model.alpha,
            model.total_symbols,
            est.absolute_rate,
            est.entropy_rate,
            est.redundancy,
        ]
    ]
    counts = np.bincount(codes, minlength=alphabet.size)
    results = {
        "order": model.order,
        "alpha": model.alpha,
        "total_symbols": model.total_symbols,
        "absolute_rate_bits": est.absolute_rate,
        "entropy_rate_bits": est.entropy_rate,
        "redundancy_bits": est.redundancy,
        "symbol_counts": {s: int(c) for s, c in zip(alphabet.symbols, counts)},
    }
    return cfg, _emit(cfg, "corpus-stats", header, rows, results)


def cmd_unicity(args) -> tuple[dict, str]:
    defaults = {
        "cipher": SUBSTITUTION,
        "alphabet_size": 26,
        "alphabet_symbols": None,
        "redundancy": None,
        "corpus": None,
        "order": 3,
        "alpha": 0.5,
        "n_min": 0,
        "n_max": 50,
        "n_step": 1,
    }
    cfg = _resolve(args, defaults, randomized=False)
    alphabet = _alphabet_from_cfg(cfg)
    space = KeySpace(cfg["cipher"], alphabet)
    if cfg["redundancy"] is not None:
        d = float(cfg["redundancy"])
    elif cfg["corpus"]:
        codes = _load_corpus(cfg["corpus"], alphabet)
        model = fit_ngram(codes, int(cfg["order"]), float(cfg["alpha"]), alphabet)
        d = redundancy(model).redundancy
    else:
        raise UsageError("unicity requires --redundancy or --corpus")
    h_k = space.key_entropy_bits
    lengths = list(range(int(cfg["n_min"]), int(cfg["n_max"]) + 1, int(cfg["n_step"])))
    if d <= 0:
        u = math.inf
        report = unicity_report(h_k, 0.0, lengths)
    else:
        report = unicity_report(h_k, d, lengths)
        u = report.unicity_letters
    header = [
        "N",
        "H_K_bits",
        "D_bits_per_letter",
        "expected_spurious_log2",
        "expected_spurious_approx_log2",
        "expected_spurious_linear",
    ]
    rows = [
        [row.length, h_k, d, row.log2_exact, row.log2_approx, row.linear]
        for row in report.table
    ]
    results = {
        "cipher": cfg["cipher"],
        "key_entropy_bits": h_k,
        "redundancy_bits_per_letter": d,
        "unicity_distance_letters": u,
        "first_length_below_one": report.first_length_below_one,
        "table": [
            {
                "N": row.length,
                "expected_spurious_log2": row.log2_exact,
                "expected_spurious_approx_log2": row.log2_approx,
                "expected_spurious_linear": row.linear,
            }
            for row in report.table
        ],
    }
    return cfg, _emit(cfg, "unicity", header, rows, results)


def cmd_spurious(args) -> tuple[dict, str]:
    defaults = {
        "cipher": SUBSTITUTION,
        "alphabet_size": 4,
        "alphabet_symbols": None,
        "length": "3",
        "rate": 1.0,
        "constructions": 100,
        "mode": "exhaustive",
        "trials": 50,
        "keys_per_trial": 100,
    }
    cfg = _resolve(args, defaults, randomized=True)
    alphabet = _alphabet_from_cfg(cfg)
    space = KeySpace(cfg["cipher"], alphabet)
    h_k = space.key_entropy_bits
    r0 = absolute_rate(alphabet)
    seed = int(cfg["seed"])
    constructions = int(cfg["constructions"])
    header = [
        "N",
        "H_K_bits",
        "D_bits_per_letter",
        "expected_spurious_log2",
        "observed_mean",
        "observed_se",
        "trials",
        "seed",
    ]
    rows = []
    results_rows = []
    for n in _parse_lengths(cfg["length"]):
        per_seed = np.empty(constructions, dtype=np.float64)
        d = None
        for s in range(constructions):
            toy = build_toy_language(
                alphabet, n, float(cfg["rate"]), _derived_seed(seed, n, s)
            )
            d = r0 - toy.rate
            if cfg["mode"] == "exhaustive":
                per_seed[s] = exhaustive_spurious_counts(space, toy).mean()
            elif cfg["mode"] == "monte-carlo":
                est = monte_carlo_spurious(
                    space,
                    ExactSetRecognizer(toy),
                    n,
                    int(cfg["trials"]),
                    seed=_derived_seed(seed, n, s, 1),
                    keys_per_trial=int(cfg["keys_per_trial"]),
                )
                per_seed[s] = est.mean
            else:
                raise UsageError(f"unknown mode {cfg['mode']!r}")
        expected = expected_spurious_keys(h_k, d, n)
        mean = float(per_seed.mean())
        se = (
            float(per_seed.std(ddof=1) / math.sqrt(constructions))
            if constructions > 1
            else math.nan
        )
        reps = constructions if cfg["mode"] == "exhaustive" else constructions * int(cfg["trials"])
        rows.append([n, h_k, d, expected.log2_exact, mean, se, reps, seed])
        results_rows.append(
            {
                "N": n,
                "H_K_bits": h_k,
                "D_bits_per_letter": d,
                "expected_spurious_log2": expected.log2_exact,
                "expected_spurious_linear": expected.linear,
                "observed_mean": mean,
                "observed_se": se,
                "trials": reps,
                "seed": seed,
            }
        )
    return cfg, _emit(cfg, "spurious", header, rows, {"rows": results_rows})


def cmd_channel(args) -> tuple[dict, str]:
    defaults = {
        "cipher": SUBSTITUTION,
        "alphabet_size": 4,
        "alphabet_symbols": None,
        "lengths": "1,2,3",
        "rate": 1.0,
    }
    cfg = _resolve(args, defaults, randomized=True)
    alphabet = _alphabet_from_cfg(cfg)
    space = KeySpace(cfg["cipher"], alphabet)
    seed = int(cfg["seed"])
    header = ["N", "I_theoretical", "I_empA", "I_empB", "reliable", "N_min", "clamped"]
    rows = []
    reports = []
    for n in _parse_lengths(cfg["lengths"]):
        toy = build_toy_language(alphabet, n, float(cfg["rate"]), _derived_seed(seed, n))
        rep = channel_report(toy, space)
        rows.append(
            [
                rep.length,
                rep.theoretical_bits,
                rep.empirical_a_bits,
                rep.empirical_b_bits,
                rep.reliable,
                rep.min_reliable_length,
                rep.clamped,
            ]
        )
        reports.append(
            {
                "N": rep.length,
                "R0_bits_per_letter": rep.rate_max,
                "R_bits_per_letter": rep.rate,
                "H_K_bits": rep.key_entropy_bits,
                "I_theoretical": rep.theoretical_bits,
                "clamped": rep.clamped,
                "I_empA": rep.empirical_a_bits,
                "I_empB": rep.empirical_b_bits,
                "empirical_vs_theoretical_gap": rep.empirical_a_bits - rep.theoretical_bits,
                "reliable": rep.reliable,
                "N_min": rep.min_reliable_length,
            }
        )
    return cfg, _emit(cfg, "channel", header, rows, {"rows": reports})


def cmd_attack(args) -> tuple[dict, str]:
    defaults = {
        "mode": "curve",
        "corpus": None,
        "order": 2,
        "alpha": 0.5,
        "alphabet_size": 26,
        "alphabet_symbols": None,
        "iterations": 20_000,
        "restarts": 5,
        "temperature": 1.0,
        "checkpoint_interval": 100,
        "lengths": "25,100,400,1600",
        "trials": 5,
        "holdout_fraction": 0.5,
        "ciphertext": None,
        "ciphertext_file": None,
        "true_key": None,
        "true_key_file": None,
    }
    cfg = _resolve(args, defaults, randomized=True)
    if not cfg["corpus"]:
        raise UsageError("attack requires --corpus to fit the scoring model")
    if int(cfg["order"]) < 2:
        raise UsageError(f"attack scoring needs order >= 2, got {cfg['order']!r}")
    alphabet = _alphabet_from_cfg(cfg)
    if alphabet.size < 2:
        raise UsageError("attack needs at least 2 letters to propose transpositions")
    codes = _load_corpus(cfg["corpus"], alphabet)
    seed = int(cfg["seed"])

    if cfg["mode"] == "crack":
        model = fit_ngram(codes, int(cfg["order"]), float(cfg["alpha"]), alphabet)
        config = AttackConfig(
            model=model,
            iterations=int(cfg["iterations"]),
            restarts=int(cfg["restarts"]),
            seed=seed,
            temperature=float(cfg["temperature"]),
            checkpoint_interval=int(cfg["checkpoint_interval"]),
        )
        if cfg["ciphertext"]:
            raw = cfg["ciphertext"]
        elif cfg["ciphertext_file"]:
            raw = _find_corpus(cfg["ciphertext_file"]).read_text(encoding="utf-8")
        else:
            raise UsageError("attack --mode crack requires --ciphertext or --ciphertext-file")
        try:
            cipher_codes = alphabet.encode(normalize_text(raw, alphabet))
        except EmptyTextError:
            raise UsageError("ciphertext has no alphabet symbols") from None
        true_key = _true_key(cfg, alphabet)
        result = mcmc_crack(cipher_codes, config, true_key)
        header = ["checkpoint", "best_score_bits"]
        rows = [[i, v] for i, v in enumerate(result.score_trace.tolist())]
        results = {
            "best_key": result.best_key.as_string(alphabet),
            "best_score_bits": result.best_score_bits,
            "decryption": alphabet.decode(
                result.best_key.inverse().mapping[cipher_codes]
            ),
            "key_accuracy": result.key_accuracy,
            "plaintext_accuracy": result.plaintext_accuracy,
            "iterations": result.iterations,
            "restarts": result.restarts,
            "seed": seed,
            "score_trace": result.score_trace.tolist(),
            "acceptance_rates": list(result.acceptance_rates),
            "best_restart": result.best_restart,
        }
        return cfg, _emit(cfg, "attack", header, rows, results)

    if cfg["mode"] != "curve":
        raise UsageError(f"unknown attack mode {cfg['mode']!r}")

    lengths = _parse_lengths(cfg["lengths"])
    if min(lengths) < int(cfg["order"]):
        raise UsageError(f"lengths must be at least the model order {cfg['order']}")
    split = int(codes.size * (1.0 - float(cfg["holdout_fraction"])))
    train, heldout = codes[:split], codes[split:]
    if heldout.size < max(lengths):
        raise ExperimentError(
            f"held-out corpus ({heldout.size} letters) shorter than the "
            f"longest requested length {max(lengths)}"
        )
    model = fit_ngram(train, int(cfg["order"]), float(cfg["alpha"]), alphabet)
    config = AttackConfig(
        model=model,
        iterations=int(cfg["iterations"]),
        restarts=int(cfg["restarts"]),
        seed=seed,
        temperature=float(cfg["temperature"]),
        checkpoint_interval=int(cfg["checkpoint_interval"]),
    )
    space = KeySpace(SUBSTITUTION, alphabet)
    curve = recovery_curve(
        lengths,
        int(cfg["trials"]),
        config,
        heldout,
        space,
    )
    header = [
        "N",
        "trial",
        "key_accuracy",
        "plaintext_accuracy",
        "best_score_bits",
        "iterations",
        "seed",
    ]
    rows = [
        [
            r.length,
            r.trial,
            r.key_accuracy,
            r.plaintext_accuracy,
            r.best_score_bits,
            r.iterations,
            r.seed,
        ]
        for r in curve.rows
    ]
    results = {
        "unicity_distance_letters": curve.unicity_letters,
        "summaries": [
            {
                "N": s.length,
                "trials": s.trials,
                "mean_key_accuracy": s.mean_key_accuracy,
                "mean_plaintext_accuracy": s.mean_plaintext_accuracy,
                "se_plaintext_accuracy": s.se_plaintext_accuracy,
                "median_plaintext_accuracy": s.median_plaintext_accuracy,
                "min_plaintext_accuracy": s.min_plaintext_accuracy,
                "max_plaintext_accuracy": s.max_plaintext_accuracy,
            }
            for s in curve.summaries
        ],
        "rows": [
            {
                "N": r.length,
                "trial": r.trial,
                "key_accuracy": r.key_accuracy,
                "plaintext_accuracy": r.plaintext_accuracy,
                "best_score_bits": r.best_score_bits,
                "iterations": r.iterations,
                "seed": r.seed,
            }
            for r in curve.rows
        ],
    }
    return cfg, _emit(cfg, "attack", header, rows, results)


COMMANDS = {
    "corpus-stats": cmd_corpus_stats,
    "unicity": cmd_unicity,
    "spurious": cmd_spurious,
    "channel": cmd_channel,
    "attack": cmd_attack,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its fields")
    common.add_argument("--seed", type=int, help="RNG seed (recorded in the output)")
    common.add_argument(
        "--workers", type=int, help="accepted for old configs; sweeps run serially, no effect"
    )
    common.add_argument("--format", choices=["csv", "json"], help="output format")
    common.add_argument("--out", help="output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="unicity",
        description="Redundancy, spurious keys, channel view, and MCMC attacks "
        "for classical substitution ciphers.",
    )
    parser.add_argument("--version", action="version", version=f"unicity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus-stats", parents=[common], help="corpus entropy and redundancy")
    p.add_argument("--corpus")
    p.add_argument("--order", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphabet-size", dest="alphabet_size", type=int)
    p.add_argument("--alphabet-symbols", dest="alphabet_symbols")

    p = sub.add_parser("unicity", parents=[common], help="unicity distance and spurious-key curve")
    p.add_argument("--cipher", choices=[SUBSTITUTION, SHIFT])
    p.add_argument("--alphabet-size", dest="alphabet_size", type=int)
    p.add_argument("--alphabet-symbols", dest="alphabet_symbols")
    p.add_argument("--redundancy", type=float, help="bits per letter; overrides --corpus")
    p.add_argument("--corpus")
    p.add_argument("--order", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--n-step", dest="n_step", type=int)

    p = sub.add_parser("spurious", parents=[common], help="spurious-key counting experiments")
    p.add_argument("--cipher", choices=[SUBSTITUTION, SHIFT])
    p.add_argument("--alphabet-size", dest="alphabet_size", type=int)
    p.add_argument("--alphabet-symbols", dest="alphabet_symbols")
    p.add_argument("--length", help="message length N, or comma list")
    p.add_argument("--rate", type=float, help="toy-language bits per letter")
    p.add_argument("--constructions", type=int, help="number of toy-language draws")
    p.add_argument("--mode", choices=["exhaustive", "monte-carlo"])
    p.add_argument("--trials", type=int, help="Monte Carlo trials per construction")
    p.add_argument("--keys-per-trial", dest="keys_per_trial", type=int)

    p = sub.add_parser("channel", parents=[common], help="mutual-information and reliability sweep")
    p.add_argument("--cipher", choices=[SUBSTITUTION, SHIFT])
    p.add_argument("--alphabet-size", dest="alphabet_size", type=int)
    p.add_argument("--alphabet-symbols", dest="alphabet_symbols")
    p.add_argument("--lengths", help="comma list of message lengths")
    p.add_argument("--rate", type=float)

    p = sub.add_parser("attack", parents=[common], help="MCMC key recovery")
    p.add_argument("--mode", choices=["crack", "curve"])
    p.add_argument("--corpus")
    p.add_argument("--order", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphabet-size", dest="alphabet_size", type=int)
    p.add_argument("--alphabet-symbols", dest="alphabet_symbols")
    p.add_argument("--iterations", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--checkpoint-interval", dest="checkpoint_interval", type=int)
    p.add_argument("--lengths", help="comma list of ciphertext lengths (curve mode)")
    p.add_argument("--trials", type=int, help="trials per length (curve mode)")
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    p.add_argument("--ciphertext", help="inline ciphertext (crack mode)")
    p.add_argument("--ciphertext-file", dest="ciphertext_file")
    p.add_argument("--true-key", dest="true_key", help="alphabet-image key string")
    p.add_argument(
        "--true-key-file", dest="true_key_file", help="file with one key per line"
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, text = COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExperimentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(cfg, text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
