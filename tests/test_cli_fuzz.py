"""Fuzz of the CLI's exit-code contract.

Generated argvs and --config files mix valid values with values of the
wrong type or out of range. Whatever they hold, `main` returns 0, 1 or
2, raises nothing and prints no traceback; under the suite's warning
filter a numeric RuntimeWarning fails it too. Every value is drawn
small, except the integers past int64 that the seed and the unicity
length range also draw and the smoothing alphas and temperatures at the
ends of the float range, and the flags that set the size of a run are
always given, so no example starts heavy work. How many examples run,
and whether they are the same on every run, is set by the hypothesis
profile that conftest.py registers.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unicity.cli import main

from conftest import CORPUS_PATH

LATIN_SHIFT = "DEFGHIJKLMNOPQRSTUVWXYZABC"

# values of the wrong type for any key, and JSON-only shapes
WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-3, 3),
    st.sampled_from([float("nan"), float("inf"), 1.5, 2.7]),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
)

SMALL = st.integers(1, 3)
FRACTION = st.floats(0.01, 0.99)
# integers past int64: SeedSequence takes a seed of any size, and a
# unicity length range holding them is refused or at most 10,843 rows
HUGE = st.sampled_from([2**63, 10**23])
# smoothing alphas that round some model probability to 0
EXTREME_ALPHA = st.sampled_from([5e-324, 1e-320, 1e307])
# temperatures at which a Metropolis threshold overflows or underflows
EXTREME_TEMPERATURE = st.sampled_from([5e-324, 1e-320, 1e308])

# valid-looking values of each config key, kept small
VALUES = {
    "seed": st.integers(0, 3) | HUGE,
    "workers": SMALL,
    "format": st.sampled_from(["csv", "json", "xml"]),
    "out": st.sampled_from([None, "", "."]),
    "corpus": st.sampled_from([str(CORPUS_PATH)] * 4 + ["missing.txt", ""]),
    "order": st.integers(2, 3),
    "alpha": FRACTION | EXTREME_ALPHA,
    "alphabet_size": st.sampled_from([4, 2, 3, 26, 1, 0, 27]),
    "alphabet_symbols": st.sampled_from([None, "ABCD", "AB", "", "AAB", "ab"]),
    "cipher": st.sampled_from(["substitution", "shift", "rot13"]),
    "redundancy": st.floats(-1, 5),
    "n_min": st.integers(0, 3) | HUGE,
    "n_max": st.integers(0, 8) | HUGE,
    "n_step": SMALL | HUGE,
    "length": st.sampled_from(["3", "1,2", "0", "3,x", ""]),
    "lengths": st.sampled_from(["2,3", "1", "a,b", ""]),  # attack: ATTACK_LENGTHS
    "rate": st.floats(0, 2.5),
    "constructions": SMALL,
    "trials": SMALL,
    "keys_per_trial": SMALL,
    "iterations": st.integers(1, 40),
    "restarts": st.integers(0, 1),
    "temperature": FRACTION | EXTREME_TEMPERATURE,
    "checkpoint_interval": st.integers(1, 20),
    "holdout_fraction": FRACTION,
    "ciphertext": st.sampled_from(["QEBNRFZHYOLTK", "", "123"]),
    "ciphertext_file": st.sampled_from([None, "missing.txt", str(CORPUS_PATH)]),
    "true_key": st.sampled_from(["ABC", LATIN_SHIFT, "A" * 26]),
    "true_key_file": st.sampled_from([None, "missing.txt"]),
}

# modes per subcommand; each list ends with one the subcommand refuses
MODES = {
    "spurious": st.sampled_from(["exhaustive", "monte-carlo", "curve"]),
    "attack": st.sampled_from(["crack", "curve", "exhaustive"]),
}

# the keys each subcommand takes, and the keys whose flag is always
# given, since their defaults start runs of seconds
COMMANDS = {
    "corpus-stats": (["corpus", "order", "alpha", "alphabet_size", "alphabet_symbols"],
                     ["corpus"]),
    "unicity": (["cipher", "alphabet_size", "alphabet_symbols", "redundancy", "corpus",
                 "order", "alpha", "n_min", "n_max", "n_step"], []),
    "spurious": (["cipher", "alphabet_size", "alphabet_symbols", "length", "rate",
                  "constructions", "mode", "trials", "keys_per_trial"],
                 ["constructions", "trials", "keys_per_trial"]),
    "channel": (["cipher", "alphabet_size", "alphabet_symbols", "lengths", "rate"], []),
    "attack": (["mode", "corpus", "order", "alpha", "alphabet_size", "alphabet_symbols",
                "iterations", "restarts", "temperature", "checkpoint_interval", "lengths",
                "trials", "holdout_fraction", "ciphertext", "ciphertext_file", "true_key",
                "true_key_file"],
               ["corpus", "iterations", "lengths", "trials", "restarts"]),
}
COMMON = ["seed", "workers", "format", "out"]


def flag(key):
    return "--" + key.replace("_", "-")


# attack lengths must reach the model order; message lengths stay short,
# since a toy language at G = 2 and N = 25 holds millions of messages
ATTACK_LENGTHS = st.sampled_from(["25", "3,8", "1", "a,b", ""])


def value(command, key):
    if key == "mode":
        return MODES[command]
    if command == "attack" and key == "lengths":
        return ATTACK_LENGTHS
    return VALUES.get(key, SMALL)  # SMALL for the unknown key


def flag_value(command, key):
    """A flag's text: mostly a valid-looking value, sometimes junk."""
    valid = value(command, key).filter(lambda v: v is not None).map(str)
    junk = st.sampled_from(["x", "0", "-1", "1.5", "nan", "inf", ""])
    return mostly(valid, junk)


def mostly(valid, wrong):
    """Draws from `valid` four times in five, else from `wrong`."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else wrong)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    keys, forced = COMMANDS[command]
    keys = keys + COMMON
    argv = [command]
    for key in forced:
        argv += [flag(key), draw(flag_value(command, key))]
    for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        if key not in forced:
            argv += [flag(key), draw(flag_value(command, key))]
    config = None
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(keys + ["unknown_key"]), max_size=3,
                               unique=True))
        config = {
            key: draw(mostly(value(command, key), WRONG)) for key in chosen
        }
        if draw(st.integers(0, 9)) == 0:
            config = draw(WRONG)  # not an object at all
    return argv, config


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_main_keeps_exit_code_contract(invocation):
    argv, config = invocation
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # an --out value names a file in here
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", "cfg.json"]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, config, code)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip(), (argv, config)
