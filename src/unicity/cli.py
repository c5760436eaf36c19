"""Command-line entry point.

Subcommands: corpus-stats, unicity, spurious, channel, attack. Each
parameter is declared once, in PARAMS (type, accepted values, test,
help), and each subcommand's defaults once, in COMMANDS; the parser,
each subcommand's --help and the checks are built from the two tables.
The flag --x-y sets the config key x_y. Each command builds its own
report rows from the library's functions. Every run resolves its
parameters from built-in defaults, then an optional JSON config file
(--config), then explicit flags, and embeds the fully resolved config
and all seeds in the output, so reruns with the same embedded config
are byte-identical. Randomized commands that are not given a seed draw
one and record it. A relative input path (--corpus, --ciphertext-file,
--true-key-file) that does not exist is looked up under the directory
in UNICITY_CORPUS_DIR.

Exit codes: 0 success, 1 experiment-level failure (infeasible
parameters, a held-out corpus too short for the requested lengths, a
run too large to allocate, a count past the float range), 2 usage or
I/O error, including a parameter of the wrong type or out of range and
an input file that is not UTF-8. The rule: a lang.UsageError, which a
library check raises for an argument it refuses, exits 2, and any other
ValueError exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attack import AttackConfig, mcmc_crack, recovery_curve
from .channel import mutual_information, reliability_check, theoretical_mutual_information
from .cipher import SHIFT, SUBSTITUTION, KeySpace, SubstitutionKey, decrypt
from .lang import (Alphabet, EmptyTextError, UsageError, absolute_rate, fit_ngram,
                   normalize_text, redundancy)
from .spurious import (
    build_toy_language,
    exhaustive_spurious_counts,
    expected_spurious_keys,
    mean_and_se,
    monte_carlo_spurious,
    unicity_distance,
)

CORPUS_DIR_ENV = "UNICITY_CORPUS_DIR"

# Every parameter: (type, accepted values, test, help). Values are checked
# once flags and --config are merged: an integer parameter takes integers
# only (not floats or bools), a float parameter any finite number, a
# string parameter a string; a value of another type, not finite, or
# failing its test is a usage error. A test of None accepts every value
# of the type; a parameter whose default is a tuple (COMMANDS) takes only
# the tuple's members.
PARAMS = {
    "seed": (int, "an integer >= 0", lambda v: v >= 0, "RNG seed (recorded in the output)"),
    "workers": (int, "an integer >= 1", lambda v: v >= 1,
                "accepted for old configs; sweeps run serially, no effect"),
    "format": (str, "a string", None, "output format"),
    "out": (str, "a string", None, "output path (default: stdout)"),
    "corpus": (str, "a string", None, "training text file"),
    "order": (int, "an integer >= 1", lambda v: v >= 1, "n-gram model order"),
    "alpha": (float, "a number > 0", lambda v: v > 0, "additive smoothing of n-gram counts"),
    "alphabet_size": (int, "an integer in 1..26", lambda v: 1 <= v <= 26,
                      "alphabet of the first N Latin letters"),
    "alphabet_symbols": (str, "a string", None,
                         "alphabet as a string of distinct symbols; overrides --alphabet-size"),
    "cipher": (str, "a string", None, "cipher family"),
    "redundancy": (float, "a finite number", None, "bits per letter; overrides --corpus"),
    "n_min": (int, "an integer >= 0", lambda v: v >= 0, "first length of the curve"),
    "n_max": (int, "an integer", None, "last length of the curve"),
    "n_step": (int, "an integer >= 1", lambda v: v >= 1, "step between lengths"),
    "length": (str, "a string", None, "message length N, or comma list of distinct lengths"),
    "lengths": (str, "a string", None, "comma list of distinct message or ciphertext lengths"),
    "rate": (float, "a number >= 0", lambda v: v >= 0, "toy-language bits per letter"),
    "constructions": (int, "an integer >= 1", lambda v: v >= 1, "number of toy-language draws"),
    "mode": (str, "a string", None, "what to run"),
    "trials": (int, "an integer >= 1", lambda v: v >= 1,
               "Monte Carlo trials per construction, or attack trials per length"),
    "keys_per_trial": (int, "an integer >= 1", lambda v: v >= 1,
                       "wrong keys sampled per Monte Carlo trial"),
    "iterations": (int, "an integer >= 1", lambda v: v >= 1, "Metropolis steps per chain"),
    "restarts": (int, "an integer >= 0", lambda v: v >= 0, "extra chains per ciphertext"),
    "temperature": (float, "a number > 0", lambda v: v > 0, "Metropolis temperature"),
    "checkpoint_interval": (int, "an integer >= 1", lambda v: v >= 1,
                            "steps between score-trace checkpoints"),
    "holdout_fraction": (float, "a number in (0, 1)", lambda v: 0 < v < 1,
                         "share of the corpus held out for test ciphertexts (curve mode)"),
    "ciphertext": (str, "a string", None, "inline ciphertext (crack mode)"),
    "ciphertext_file": (str, "a string", None, "ciphertext file (crack mode)"),
    "true_key": (str, "a string", None, "alphabet-image key string"),
    "true_key_file": (str, "a string", None,
                      "file holding one key; whitespace around it is ignored"),
}
# the flags every subcommand takes, with their defaults
COMMON = {"seed": None, "workers": 1, "format": ("csv", "json"), "out": None}


def _read_input(path_str: str) -> str:
    """The text of an input file. A relative path that does not exist
    here is looked up under UNICITY_CORPUS_DIR."""
    path = Path(path_str)
    env_dir = os.environ.get(CORPUS_DIR_ENV)
    if env_dir and not path.is_absolute() and not path.exists():
        path = Path(env_dir) / path
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"file not found: {path_str}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"file is not UTF-8 text: {path_str}: {exc}") from None


def _encode_text(raw: str, alphabet: Alphabet, what: str) -> np.ndarray:
    try:
        return alphabet.encode(normalize_text(raw, alphabet))
    except EmptyTextError:
        raise UsageError(f"{what} has no alphabet symbols") from None


def _fit_model(codes: np.ndarray, cfg: dict, alphabet: Alphabet):
    return fit_ngram(codes, cfg["order"], float(cfg["alpha"]), alphabet=alphabet)


def _alphabet_from_cfg(cfg: dict) -> Alphabet:
    symbols = cfg.get("alphabet_symbols")
    if not symbols:
        return Alphabet.first_n(cfg["alphabet_size"])
    return Alphabet(tuple(symbols))


def _parse_lengths(value: str) -> list[int]:
    try:
        lengths = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        lengths = []
    if not lengths or min(lengths) < 1:
        raise UsageError(f"lengths must be comma-separated positive integers, got {value!r}")
    if len(set(lengths)) < len(lengths):
        raise UsageError(f"lengths must be distinct, got {value!r}")
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
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "unbounded" if obj > 0 else "-unbounded"
        if math.isnan(obj):
            return None
    return obj


def _emit(cfg: dict, command: str, results: dict, rows: list[dict], columns: list[str]) -> str:
    """The report text. JSON holds the results; CSV has one line per row
    dict, projected through the columns: "header" for the row key of the
    same name, "header=key" for another key."""
    config = _sanitize({k: v for k, v in cfg.items() if k != "out"})
    if cfg["format"] == "json":
        doc = {
            "tool": "unicity",
            "version": __version__,
            "command": command,
            "config": config,
            "results": _sanitize(results),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header = [column.split("=")[0] for column in columns]
    keys = [column.split("=")[-1] for column in columns]
    lines = [
        "# tool=unicity",
        f"# version={__version__}",
        f"# command={command}",
        "# config=" + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(header),
    ]
    lines += [",".join(_fmt(row[key]) for key in keys) for row in rows]
    return "\n".join(lines) + "\n"


def _write(cfg: dict, text: str) -> None:
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _resolve(args: argparse.Namespace, defaults: dict, randomized: bool) -> dict:
    """Defaults, then --config, then flags; every value checked once."""
    declared = {**COMMON, **defaults}
    cfg = {k: v[0] if isinstance(v, tuple) else v for k, v in declared.items()}
    if args.config:
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}") from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
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
    for key, value in cfg.items():
        default = declared[key]
        if value is None and default is None:
            continue
        kind, accepted, test, _ = PARAMS[key]
        if isinstance(default, tuple):
            accepted, test = "one of " + ", ".join(default), default.__contains__
        try:
            ok = type(value) in ((int, float) if kind is float else (kind,))
            ok = ok and (kind is str or math.isfinite(value)) and (test is None or test(value))
        except OverflowError:  # an integer past the float range
            ok = False
        if not ok:
            raise UsageError(f"{key.replace('_', '-')} must be {accepted}, got {value!r}")
    if randomized and cfg["seed"] is None:
        # os.urandom, not secrets: secrets imports hashlib, which loads OpenSSL
        cfg["seed"] = int.from_bytes(os.urandom(4), "big")
    return cfg


def _true_key(cfg: dict, alphabet: Alphabet) -> SubstitutionKey | None:
    """The known key for crack mode, from --true-key or from the one key
    in --true-key-file, whose surrounding whitespace is ignored."""
    if cfg["true_key"]:
        image = cfg["true_key"]
    elif cfg["true_key_file"]:
        image = _read_input(cfg["true_key_file"]).strip()
    else:
        return None
    try:
        return SubstitutionKey.from_string(image, alphabet)
    except ValueError as exc:
        raise UsageError(f"invalid true key: {exc}") from None


# ---------------------------------------------------------------- commands


def cmd_corpus_stats(cfg: dict) -> str:
    if not cfg["corpus"]:
        raise UsageError("corpus-stats requires --corpus")
    alphabet = _alphabet_from_cfg(cfg)
    codes = _encode_text(_read_input(cfg["corpus"]), alphabet, "corpus")
    model = _fit_model(codes, cfg, alphabet)
    est = redundancy(model)
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
    columns = ["order", "alpha", "total_symbols", "R0_bits_per_letter=absolute_rate_bits",
               "R_bits_per_letter=entropy_rate_bits", "D_bits_per_letter=redundancy_bits"]
    return _emit(cfg, "corpus-stats", results, [results], columns)


def cmd_unicity(cfg: dict) -> str:
    alphabet = _alphabet_from_cfg(cfg)
    space = KeySpace(cfg["cipher"], alphabet)
    if cfg["redundancy"] is not None:
        d = float(cfg["redundancy"])
    elif cfg["corpus"]:
        codes = _encode_text(_read_input(cfg["corpus"]), alphabet, "corpus")
        model = _fit_model(codes, cfg, alphabet)
        d = redundancy(model).redundancy
    else:
        raise UsageError("unicity requires --redundancy or --corpus")
    try:
        lengths = list(range(cfg["n_min"], cfg["n_max"] + 1, cfg["n_step"]))
    except (OverflowError, MemoryError):  # more lengths than a list can hold
        raise UsageError("n-min to n-max in steps of n-step spans too many lengths") from None
    if not lengths:
        raise UsageError(f"n-min {cfg['n_min']} to n-max {cfg['n_max']} holds no length")
    h_k = space.key_entropy_bits
    d_used = max(d, 0.0)  # zero or negative measured redundancy: no length rules a key out
    table = []
    for n in lengths:
        expected = expected_spurious_keys(h_k, d_used, n)
        table.append({
            "N": n,
            "expected_spurious_log2": expected.log2_exact,
            "expected_spurious_approx_log2": expected.log2_approx,
            "expected_spurious_linear": expected.linear,
        })
    below = [row["N"] for row in table if row["expected_spurious_log2"] < 0]
    results = {
        "cipher": cfg["cipher"],
        "key_entropy_bits": h_k,
        "redundancy_bits_per_letter": d,
        "unicity_distance_letters": unicity_distance(h_k, d_used),
        "first_length_below_one": below[0] if below else None,
        "table": table,
    }
    rows = [{**results, **row} for row in table]
    columns = ["N", "H_K_bits=key_entropy_bits", "D_bits_per_letter=redundancy_bits_per_letter",
               "expected_spurious_log2", "expected_spurious_approx_log2",
               "expected_spurious_linear"]
    return _emit(cfg, "unicity", results, rows, columns)


def cmd_spurious(cfg: dict) -> str:
    alphabet = _alphabet_from_cfg(cfg)
    space = KeySpace(cfg["cipher"], alphabet)
    h_k = space.key_entropy_bits
    r0 = absolute_rate(alphabet)
    seed = cfg["seed"]
    constructions = cfg["constructions"]
    trials, keys_per_trial = cfg["trials"], cfg["keys_per_trial"]

    def build(n, s):
        return build_toy_language(alphabet, n, float(cfg["rate"]), _derived_seed(seed, n, s))

    rows = []
    for n in _parse_lengths(cfg["length"]):
        first = build(n, 0)  # every language of this length has its size, so its D
        toys = (build(n, s) if s else first for s in range(constructions))
        if cfg["mode"] == "exhaustive":
            per_seed = np.array([exhaustive_spurious_counts(space, toy).mean() for toy in toys])
        else:
            per_seed, _ = monte_carlo_spurious(
                space, zip(toys, (_derived_seed(seed, n, s, 1) for s in range(constructions))),
                trials, keys_per_trial=keys_per_trial,
            )
        d = r0 - first.rate
        expected = expected_spurious_keys(h_k, d, n)
        mean, se = mean_and_se(per_seed)
        if cfg["mode"] == "monte-carlo" and mean == 0:  # none accepted: rule-of-three bound
            se = 3 * (space.key_count - 1) / (constructions * trials * keys_per_trial)
        rows.append({
            "N": n,
            "H_K_bits": h_k,
            "D_bits_per_letter": d,
            "expected_spurious_log2": expected.log2_exact,
            "expected_spurious_linear": expected.linear,
            "observed_mean": float(mean),
            "observed_se": float(se),
            "trials": constructions * (trials if cfg["mode"] == "monte-carlo" else 1),
            "seed": seed,
        })
    columns = ["N", "H_K_bits", "D_bits_per_letter", "expected_spurious_log2",
               "observed_mean", "observed_se", "trials", "seed"]
    return _emit(cfg, "spurious", {"rows": rows}, rows, columns)


def cmd_channel(cfg: dict) -> str:
    alphabet = _alphabet_from_cfg(cfg)
    space = KeySpace(cfg["cipher"], alphabet)
    h_k = space.key_entropy_bits
    r0 = absolute_rate(alphabet)
    rows = []
    for n in _parse_lengths(cfg["lengths"]):
        toy = build_toy_language(alphabet, n, float(cfg["rate"]), _derived_seed(cfg["seed"], n))
        i_a, i_b = mutual_information(toy, space)
        theo = theoretical_mutual_information(n, r0, h_k)
        rel = reliability_check(n, toy.rate, r0, h_k)
        rows.append({
            "N": n,
            "R0_bits_per_letter": r0,
            "R_bits_per_letter": toy.rate,
            "H_K_bits": h_k,
            "I_theoretical": theo.bits,
            "clamped": theo.clamped,
            "I_empA": i_a,
            "I_empB": i_b,
            "reliable": rel.reliable,
            "N_min": rel.min_length,
            "empirical_vs_theoretical_gap": i_a - theo.bits,
        })
    columns = ["N", "I_theoretical", "I_empA", "I_empB", "reliable", "N_min", "clamped"]
    return _emit(cfg, "channel", {"rows": rows}, rows, columns)


def cmd_attack(cfg: dict) -> str:
    if not cfg["corpus"]:
        raise UsageError("attack requires --corpus to fit the scoring model")
    alphabet = _alphabet_from_cfg(cfg)
    codes = _encode_text(_read_input(cfg["corpus"]), alphabet, "corpus")

    def config(train):
        return AttackConfig(
            model=_fit_model(train, cfg, alphabet),
            iterations=cfg["iterations"],
            restarts=cfg["restarts"],
            seed=cfg["seed"],
            temperature=float(cfg["temperature"]),
            checkpoint_interval=cfg["checkpoint_interval"],
        )

    if cfg["mode"] == "crack":
        if cfg["ciphertext"]:
            raw = cfg["ciphertext"]
        elif cfg["ciphertext_file"]:
            raw = _read_input(cfg["ciphertext_file"])
        else:
            raise UsageError("attack --mode crack requires --ciphertext or --ciphertext-file")
        cipher_codes = _encode_text(raw, alphabet, "ciphertext")
        result = mcmc_crack(cipher_codes, config(codes), _true_key(cfg, alphabet))
        results = {
            **vars(result),
            "best_key": result.best_key.as_string(alphabet),
            "score_trace": result.score_trace.tolist(),
            "decryption": alphabet.decode(decrypt(result.best_key, cipher_codes)),
        }
        rows = [
            {"checkpoint": i, "best_score_bits": v} for i, v in enumerate(results["score_trace"])
        ]
        return _emit(cfg, "attack", results, rows, ["checkpoint", "best_score_bits"])

    lengths = _parse_lengths(cfg["lengths"])
    split = int(codes.size * (1.0 - float(cfg["holdout_fraction"])))
    train, heldout = codes[:split], codes[split:]
    curve_config, space = config(train), KeySpace(SUBSTITUTION, alphabet)
    curve = recovery_curve(lengths, cfg["trials"], curve_config, heldout, space)
    rows, summaries = [], []
    for n, cracks in zip(lengths, curve):
        rows += [
            {"N": n, "trial": t, "key_accuracy": r.key_accuracy,
             "plaintext_accuracy": r.plaintext_accuracy, "best_score_bits": r.best_score_bits,
             "iterations": r.iterations, "seed": r.seed}
            for t, r in enumerate(cracks)
        ]
        accs = np.array([r.plaintext_accuracy for r in cracks])
        mean, se = mean_and_se(accs)
        summaries.append({
            "N": n,
            "trials": int(accs.size),
            "mean_key_accuracy": float(np.mean([r.key_accuracy for r in cracks])),
            "mean_plaintext_accuracy": float(mean),
            "se_plaintext_accuracy": float(se),
            "median_plaintext_accuracy": float(np.median(accs)),
            "min_plaintext_accuracy": float(accs.min()),
            "max_plaintext_accuracy": float(accs.max()),
        })
    d = redundancy(curve_config.model).redundancy
    results = {
        "unicity_distance_letters": unicity_distance(space.key_entropy_bits, d),
        "summaries": summaries,
        "rows": rows,
    }
    columns = ["N", "trial", "key_accuracy", "plaintext_accuracy", "best_score_bits",
               "iterations", "seed"]
    return _emit(cfg, "attack", results, rows, columns)


# Per subcommand: (run, randomized, help, defaults). A tuple default lists
# the accepted values, and its first member is the default. Randomized
# commands draw and record a seed when none is given.
COMMANDS = {
    "corpus-stats": (cmd_corpus_stats, False, "corpus entropy and redundancy", {
        "corpus": None, "order": 3, "alpha": 0.5, "alphabet_size": 26, "alphabet_symbols": None,
    }),
    "unicity": (cmd_unicity, False, "unicity distance and spurious-key curve", {
        "cipher": (SUBSTITUTION, SHIFT), "alphabet_size": 26, "alphabet_symbols": None,
        "redundancy": None, "corpus": None, "order": 3, "alpha": 0.5,
        "n_min": 0, "n_max": 50, "n_step": 1,
    }),
    "spurious": (cmd_spurious, True, "spurious-key counting experiments", {
        "cipher": (SUBSTITUTION, SHIFT), "alphabet_size": 4, "alphabet_symbols": None,
        "length": "3", "rate": 1.0, "constructions": 100, "mode": ("exhaustive", "monte-carlo"),
        "trials": 50, "keys_per_trial": 100,
    }),
    "channel": (cmd_channel, True, "mutual-information and reliability sweep", {
        "cipher": (SUBSTITUTION, SHIFT), "alphabet_size": 4, "alphabet_symbols": None,
        "lengths": "1,2,3", "rate": 1.0,
    }),
    "attack": (cmd_attack, True, "MCMC key recovery", {
        "mode": ("curve", "crack"), "corpus": None, "order": 2, "alpha": 0.5,
        "alphabet_size": 26, "alphabet_symbols": None, "iterations": 20_000, "restarts": 5,
        "temperature": 1.0, "checkpoint_interval": 100, "lengths": "25,100,400,1600",
        "trials": 5, "holdout_fraction": 0.5, "ciphertext": None, "ciphertext_file": None,
        "true_key": None, "true_key_file": None,
    }),
}


def _add_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """A flag for each parameter with these defaults."""
    for key, default in defaults.items():
        kind, _, _, text = PARAMS[key]
        choices = default if isinstance(default, tuple) else None
        if default is not None:
            text += f" (default: {choices[0] if choices else default})"
        parser.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices, help=text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its fields")
    _add_flags(common, COMMON)
    parser = argparse.ArgumentParser(
        prog="unicity",
        description="Redundancy, spurious keys, channel view, and MCMC attacks "
        "for classical substitution ciphers.",
    )
    parser.add_argument("--version", action="version", version=f"unicity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text, defaults) in COMMANDS.items():
        _add_flags(sub.add_parser(name, parents=[common], help=text), defaults)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version, or a flag argparse refused
        return exc.code
    run, randomized, _, defaults = COMMANDS[args.command]
    try:
        cfg = _resolve(args, defaults, randomized)
        _write(cfg, run(cfg))
    except (UsageError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a run too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # a count past the float range, such as G! at G >= 171
        print(f"error: value too large for a float: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
