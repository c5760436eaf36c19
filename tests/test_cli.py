import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from unicity import (
    SUBSTITUTION,
    Alphabet,
    AttackConfig,
    KeySpace,
    build_toy_language,
    expected_spurious_keys,
    mutual_information,
    recovery_curve,
    redundancy,
    reliability_check,
    theoretical_mutual_information,
    unicity_distance,
)
import unicity.spurious
from unicity.cli import _derived_seed, main
from unicity.spurious import mean_and_se

from brute_force import monte_carlo_estimates
from conftest import CORPUS_PATH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def meta_lines(text):
    return {
        line[2:].split("=", 1)[0]: line[2:].split("=", 1)[1]
        for line in text.strip().splitlines()
        if line.startswith("# ")
    }


class TestCorpusStats:
    def test_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "corpus-stats", "--corpus", str(CORPUS_PATH), "--order", "2"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["order", "alpha", "total_symbols"]
        row = rows[0]
        assert abs(float(row["R0_bits_per_letter"]) - 4.700439718141092) < 1e-9
        d = float(row["D_bits_per_letter"])
        assert 0.0 < d < 4.7
        meta = meta_lines(out)
        assert meta["tool"] == "unicity"
        assert json.loads(meta["config"])["order"] == 2

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "corpus-stats",
            "--corpus",
            str(CORPUS_PATH),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "corpus-stats"
        assert doc["results"]["total_symbols"] > 30_000
        assert set(doc["results"]["symbol_counts"]) == set(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        )

    def test_uniform_synthetic_corpus_zero_redundancy(self, capsys, tmp_path):
        rng = np.random.default_rng(13)
        letters = np.array(list("ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
        text = "".join(letters[rng.integers(0, 26, size=300_000)])
        path = tmp_path / "uniform.txt"
        path.write_text(text)
        code, out, _ = run_cli(
            capsys,
            "corpus-stats",
            "--corpus",
            str(path),
            "--order",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        assert abs(json.loads(out)["results"]["redundancy_bits"]) < 0.01

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "corpus-stats", "--corpus", "nope.txt")
        assert code == 2
        assert "not found" in err

    def test_env_corpus_dir(self, capsys, monkeypatch):
        monkeypatch.setenv("UNICITY_CORPUS_DIR", str(CORPUS_PATH.parent))
        code, out, _ = run_cli(
            capsys, "corpus-stats", "--corpus", CORPUS_PATH.name, "--order", "1"
        )
        assert code == 0

    def test_lower_case_alphabet_folds_the_corpus_to_lower_case(self, capsys):
        """A lower-case alphabet reads the same letters as the upper-case one."""
        rates = []
        for alphabet in (["--alphabet-size", "26"],
                         ["--alphabet-symbols", "abcdefghijklmnopqrstuvwxyz"]):
            code, out, _ = run_cli(capsys, "corpus-stats", "--corpus", str(CORPUS_PATH),
                                   "--order", "2", *alphabet, "--format", "json")
            assert code == 0
            res = json.loads(out)["results"]
            rates.append([res[k] for k in ("absolute_rate_bits", "entropy_rate_bits",
                                           "redundancy_bits")])
        assert rates[0] == rates[1]
        assert rates[0][2] == 1.146184547133406

    def test_count_table_too_large_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "corpus-stats", "--corpus", str(CORPUS_PATH),
                                 "--order", "6")
        assert code == 1
        assert out == ""
        assert err == "error: count table G**order = 308915776 too large\n"


class TestUnicity:
    def test_english_substitution(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "unicity",
            "--redundancy",
            "3.2",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        res = doc["results"]
        assert abs(res["key_entropy_bits"] - 88.3817) < 1e-3
        assert abs(res["unicity_distance_letters"] - 27.6194) < 1e-3
        assert res["first_length_below_one"] == 28
        assert [row["N"] for row in res["table"]] == list(range(51))
        logs = [row["expected_spurious_log2"] for row in res["table"]]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_shift(self, capsys):
        code, out, _ = run_cli(
            capsys, "unicity", "--cipher", "shift", "--redundancy", "3.2",
            "--format", "json",
        )
        doc = json.loads(out)
        assert abs(doc["results"]["unicity_distance_letters"] - 1.4689) < 1e-3

    def test_one_letter_alphabet_has_no_key_entropy(self, capsys):
        """At G=1 the one key is the true key: no length has a spurious key."""
        code, out, _ = run_cli(capsys, "unicity", "--alphabet-size", "1", "--redundancy", "1",
                               "--n-max", "2", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert [(row["expected_spurious_log2"], row["expected_spurious_linear"])
                for row in res["table"]] == [("-unbounded", 0.0)] * 3
        assert res["unicity_distance_letters"] == 0.0
        assert res["first_length_below_one"] == 0

    def test_zero_redundancy_unbounded(self, capsys):
        code, out, _ = run_cli(
            capsys, "unicity", "--redundancy", "0", "--format", "json"
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["unicity_distance_letters"] == "unbounded"
        assert res["first_length_below_one"] is None

    @pytest.mark.parametrize("redundancy, used", [(3.2, 3.2), (0.7, 0.7), (-0.5, 0.0)])
    def test_json_rows_match_expected_spurious_keys(self, capsys, redundancy, used):
        """Each table row holds expected_spurious_keys at its length; a
        negative measured redundancy is reported as given and tabulated
        as zero."""
        code, out, _ = run_cli(
            capsys, "unicity", "--redundancy", str(redundancy), "--n-min", "2",
            "--n-max", "40", "--n-step", "3", "--format", "json",
        )
        assert code == 0
        res = json.loads(out)["results"]
        h_k = KeySpace(SUBSTITUTION, Alphabet.first_n(26)).key_entropy_bits
        assert res["key_entropy_bits"] == h_k
        assert res["redundancy_bits_per_letter"] == redundancy
        table = []
        for n in range(2, 41, 3):
            expected = expected_spurious_keys(h_k, used, n)
            table.append({
                "N": n,
                "expected_spurious_log2": expected.log2_exact,
                "expected_spurious_approx_log2": expected.log2_approx,
                "expected_spurious_linear": expected.linear,
            })
        assert res["table"] == table
        below = [row["N"] for row in table if row["expected_spurious_log2"] < 0]
        assert res["first_length_below_one"] == (below[0] if below else None)
        if used:
            assert res["unicity_distance_letters"] == unicity_distance(h_k, used)
        else:
            assert res["unicity_distance_letters"] == "unbounded"

    def test_measured_from_corpus(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "unicity",
            "--corpus",
            str(CORPUS_PATH),
            "--order",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["redundancy_bits_per_letter"] > 0

    def test_requires_redundancy_source(self, capsys):
        code, _, err = run_cli(capsys, "unicity")
        assert code == 2
        assert "redundancy" in err

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "unicity", "--redundancy", "3.2")
        header, rows = parse_csv(out)
        assert header[:4] == [
            "N",
            "H_K_bits",
            "D_bits_per_letter",
            "expected_spurious_log2",
        ]
        assert len(rows) == 51  # N = 0..50


class TestSpurious:
    def test_exhaustive_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spurious",
            "--constructions",
            "4",
            "--seed",
            "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "N",
            "H_K_bits",
            "D_bits_per_letter",
            "expected_spurious_log2",
            "observed_mean",
            "observed_se",
            "trials",
            "seed",
        ]
        row = rows[0]
        assert row["N"] == "3"
        assert abs(float(row["H_K_bits"]) - math.log2(24)) < 1e-9
        assert float(row["observed_mean"]) > 0

        # 11! keys: past the old 10M-key enumeration cap, counted exactly
        code, out, _ = run_cli(
            capsys, "spurious", "--alphabet-size", "11", "--constructions", "4",
            "--seed", "3",
        )
        assert code == 0
        (row,) = parse_csv(out)[1]
        assert abs(float(row["H_K_bits"]) - math.log2(math.factorial(11))) < 1e-9
        assert float(row["observed_mean"]) > 0

    def test_monte_carlo(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spurious",
            "--mode",
            "monte-carlo",
            "--constructions",
            "2",
            "--trials",
            "10",
            "--keys-per-trial",
            "30",
            "--seed",
            "4",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["trials"] == "20"

    def test_monte_carlo_without_accepted_key_reports_rule_of_three(self, capsys):
        """At G=26, N=10 the spurious fraction is about 3e-9, so none of
        the 10,000 sampled wrong keys is accepted. The mean reads 0, and
        its SE field holds the rule-of-three bound 3 * (K - 1) / 10,000
        instead of a false 0."""
        code, out, _ = run_cli(
            capsys, "spurious", "--mode", "monte-carlo", "--alphabet-size", "26",
            "--length", "10", "--rate", "1.8", "--constructions", "2", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["results"]["rows"]
        assert row["observed_mean"] == 0.0
        assert row["observed_se"] == 3 * (math.factorial(26) - 1) / 10_000

    def test_monte_carlo_unbiased_with_one_key_per_trial(self, capsys):
        """With 2 keys and 1 candidate per trial, most candidates equal the
        true key. They are redrawn, not scored as zero, so the mean stays
        within 4 SE of the exact mean on the same languages."""
        argv = ["spurious", "--alphabet-size", "2", "--length", "3", "--rate", "0.5",
                "--constructions", "20", "--seed", "1", "--format", "json"]
        code, out, _ = run_cli(
            capsys, *argv, "--mode", "monte-carlo", "--trials", "20", "--keys-per-trial", "1"
        )
        assert code == 0
        (mc,) = json.loads(out)["results"]["rows"]
        code, out, _ = run_cli(capsys, *argv, "--mode", "exhaustive")
        assert code == 0
        (exact,) = json.loads(out)["results"]["rows"]
        assert mc["observed_se"] > 0
        assert abs(mc["observed_mean"] - exact["observed_mean"]) <= 4 * mc["observed_se"]

    @pytest.mark.parametrize("kind", ["substitution", "shift"])
    @pytest.mark.parametrize("g, lengths, rate, trials, keys_per_trial", [
        (2, "4,3", 0.5, 9, 1),  # most candidates are the true key and are redrawn
        (3, "3,2", 1.0, 1, 7),
        (3, "3", 1.2, 9, 7),
        (26, "13", 0.4, 9, 1),  # message codes near 2**61
        (26, "13", 0.4, 1, 7),
    ])
    def test_monte_carlo_matches_per_candidate_oracle(self, capsys, kind, g, lengths, rate,
                                                      trials, keys_per_trial):
        """Each row equals the per-candidate oracle run on the languages and
        Monte Carlo seeds the CLI derives for each construction."""
        seed, constructions = 12, 4
        code, out, _ = run_cli(
            capsys, "spurious", "--mode", "monte-carlo", "--cipher", kind,
            "--alphabet-size", str(g), "--length", lengths, "--rate", str(rate),
            "--constructions", str(constructions), "--trials", str(trials),
            "--keys-per-trial", str(keys_per_trial), "--seed", str(seed), "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        space = KeySpace(kind, Alphabet.first_n(g))
        assert [row["N"] for row in rows] == [int(n) for n in lengths.split(",")]
        for row in rows:
            n = row["N"]
            per_seed = np.array([
                np.array(monte_carlo_estimates(
                    space, build_toy_language(space.alphabet, n, rate, _derived_seed(seed, n, s)),
                    trials, _derived_seed(seed, n, s, 1), keys_per_trial,
                )).mean()
                for s in range(constructions)
            ])
            se = float(per_seed.std(ddof=1) / math.sqrt(constructions))
            if not per_seed.any():  # no sampled key accepted: the rule-of-three bound
                se = 3 * (space.key_count - 1) / (constructions * trials * keys_per_trial)
            assert row["observed_mean"] == float(per_seed.mean())
            assert row["observed_se"] == se

    @pytest.mark.parametrize("argv", [
        ["--alphabet-size", "5", "--length", "2,3", "--rate", "1.2", "--constructions", "40",
         "--trials", "7", "--keys-per-trial", "30", "--seed", "11"],
        ["--cipher", "shift", "--alphabet-size", "5", "--length", "2,3", "--rate", "1.2",
         "--constructions", "40", "--trials", "7", "--keys-per-trial", "30", "--seed", "11"],
        ["--alphabet-size", "3", "--length", "3", "--constructions", "9", "--trials", "9",
         "--keys-per-trial", "7", "--seed", "4"],
        # 37,641 messages a language: the code budget closes a block at three
        ["--alphabet-size", "4", "--length", "8", "--rate", "1.9", "--constructions", "5",
         "--trials", "2", "--keys-per-trial", "3", "--seed", "2"],
        # 50 trials of 100 keys a construction: each spans default blocks of 40 trials
        ["--alphabet-size", "4", "--length", "3", "--constructions", "3", "--seed", "5"],
    ])
    def test_monte_carlo_report_does_not_depend_on_block_size(self, capsys, monkeypatch, argv):
        """Blocks of one trial, of the default size, of a few trials and of
        every construction give the same report bytes."""
        reports = []
        for rows, codes in [(1, 1),
                            (unicity.spurious._MC_BLOCK_ROWS, unicity.spurious._MC_BLOCK_CODES),
                            (100, 2**40), (2**62, 2**62)]:
            monkeypatch.setattr(unicity.spurious, "_MC_BLOCK_ROWS", rows)
            monkeypatch.setattr(unicity.spurious, "_MC_BLOCK_CODES", codes)
            code, out, _ = run_cli(capsys, "spurious", "--mode", "monte-carlo", *argv)
            assert code == 0
            reports.append(out)
        assert reports[1:] == reports[:-1]

    def test_monte_carlo_decodes_only_sampled_messages(self, capsys):
        """At 2**19 messages of length 10, the traced peak stays below the
        8 * M * N bytes of the decoded message table."""
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "spurious", "--mode", "monte-carlo", "--alphabet-size", "4",
                "--length", "10", "--rate", "1.9", "--constructions", "3", "--trials", "5",
                "--keys-per-trial", "100", "--seed", "1", "--format", "json",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2**19 * 10 * 8

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "4f78f9faad92c13d97cdb70061a35a67ddfd0f736ea8e326efde69f985807438"),
        ("csv", "3272f3df10856e613e2f7342cbf4a6a33ef2af0c76a7ff2493f2b35bfc4813f8"),
    ], ids=["json", "csv"])
    def test_monte_carlo_memory_is_bounded_by_the_block(self, capsys, fmt, digest):
        """1,000 trials of 200 keys take a few blocks' memory, not the
        10 MiB of scoring one construction's trials at once, and give the
        report bytes that scoring whole constructions gave."""
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                capsys, "spurious", "--mode", "monte-carlo", "--alphabet-size", "26",
                "--length", "3", "--rate", "1.0", "--constructions", "2", "--trials", "500",
                "--keys-per-trial", "200", "--seed", "1", "--format", fmt,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["spurious", "--mode", "monte-carlo", "--length", "1", "--trials", "2",
         "--keys-per-trial", "2"],
        ["spurious", "--mode", "exhaustive", "--length", "1"],
    ])
    def test_counts_past_float_range_exit_1(self, capsys, argv):
        """At 172 symbols G! - 1 and the spurious counts pass the float
        range: the run fails with one error line, not a traceback."""
        symbols = "".join(chr(0x100 + i) for i in range(172))
        code, out, err = run_cli(capsys, *argv, "--alphabet-symbols", symbols, "--rate", "1",
                                 "--seed", "1")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_exhaustive_se_past_float_square(self, capsys):
        """At 172 symbols and N = 3 the construction means (about 1e306)
        fit a float but their squares do not: the SE is still finite, and
        nothing is printed to stderr."""
        symbols = "".join(chr(0x100 + i) for i in range(172))
        code, out, err = run_cli(capsys, "spurious", "--mode", "exhaustive", "--alphabet-symbols",
                                 symbols, "--rate", "1", "--constructions", "3", "--seed", "1",
                                 "--format", "json")
        assert code == 0
        assert err == ""
        (row,) = json.loads(out)["results"]["rows"]
        assert math.isfinite(row["observed_mean"]) and row["observed_mean"] > 1e305
        assert row["observed_se"] == 2.7571064224822056e305

    def test_exhaustive_exact_past_int64(self, capsys):
        """26! keys, counts above 2**63: the mean equals the orbit closed
        form |L & O(m)| * (G - k)! - 1, computed here in Python ints."""
        from unicity import Alphabet, build_toy_language
        from unicity.cli import _derived_seed

        code, out, _ = run_cli(
            capsys,
            "spurious",
            "--alphabet-size",
            "26",
            "--length",
            "3",
            "--rate",
            "1.0",
            "--constructions",
            "1",
            "--seed",
            "0",
            "--format",
            "json",
        )
        assert code == 0
        (row,) = json.loads(out)["results"]["rows"]
        toy = build_toy_language(Alphabet.first_n(26), 3, 1.0, _derived_seed(0, 3, 0))
        patterns = [tuple(msg.index(c) for c in msg) for msg in toy.messages.tolist()]
        counts = [
            patterns.count(p) * math.factorial(26 - len(set(p))) - 1 for p in patterns
        ]
        exact = sum(counts) / len(counts)
        assert exact > 2**63
        assert row["observed_mean"] == exact

    def test_auto_seed_recorded(self, capsys):
        """An unseeded run draws a 32-bit seed and records it, and a rerun
        with that seed prints the same bytes."""
        argv = ["spurious", "--constructions", "2", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        seed = json.loads(out)["config"]["seed"]
        assert type(seed) is int and 0 <= seed < 2**32
        assert run_cli(capsys, *argv, "--seed", str(seed)) == (0, out, "")


class TestChannel:
    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "channel", "--lengths", "1,2,3", "--seed", "5"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "N",
            "I_theoretical",
            "I_empA",
            "I_empB",
            "reliable",
            "N_min",
            "clamped",
        ]
        assert len(rows) == 3
        for row in rows:
            assert abs(float(row["I_empA"]) - float(row["I_empB"])) <= 1e-9
            assert row["reliable"] in ("true", "false")

    def test_json_gap_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "channel", "--lengths", "3", "--seed", "5", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)["results"]["rows"][0]
        assert row["empirical_vs_theoretical_gap"] == row["I_empA"] - row["I_theoretical"]

    def test_json_rows_match_channel_functions(self, capsys):
        """Each JSON row holds the channel functions' values on the toy
        language the command builds for its length, clamped or not,
        reliable or not."""
        code, out, _ = run_cli(
            capsys, "channel", "--lengths", "1,3,5", "--seed", "5", "--format", "json"
        )
        assert code == 0
        ab = Alphabet.first_n(4)
        space = KeySpace(SUBSTITUTION, ab)
        h_k, r0 = space.key_entropy_bits, 2.0
        rows = json.loads(out)["results"]["rows"]
        assert [row["N"] for row in rows] == [1, 3, 5]
        for row in rows:
            n = row["N"]
            toy = build_toy_language(ab, n, 1.0, _derived_seed(5, n))
            i_a, i_b = mutual_information(toy, space)
            theo = theoretical_mutual_information(n, r0, h_k)
            rel = reliability_check(n, toy.rate, r0, h_k)
            assert row == {
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
            }
            assert row["N_min"] == unicity_distance(h_k, r0 - toy.rate)
        assert [row["clamped"] for row in rows] == [True, False, False]
        assert [row["reliable"] for row in rows] == [False, False, True]
        three = rows[1]  # N=3 < N_min = log2(24) / (2 - 1) = 4.585
        assert three["R_bits_per_letter"] == 1.0
        assert abs(three["H_K_bits"] - math.log2(24)) < 1e-12
        assert abs(three["I_theoretical"] - (6 - math.log2(24))) < 1e-12
        assert abs(three["I_empA"] - three["I_empB"]) <= 1e-9
        assert abs(three["N_min"] - math.log2(24)) < 1e-12

    def test_stabilizers_past_float_range(self, capsys):
        """At 172 symbols the stabilizer sizes pass the float range but
        their logs do not: I(P;C) is exact at N = 1, where both messages
        share one orbit, and both decompositions agree at N = 2."""
        symbols = "".join(chr(0x100 + i) for i in range(172))
        code, out, err = run_cli(capsys, "channel", "--lengths", "1,2", "--alphabet-symbols",
                                 symbols, "--rate", "1", "--seed", "1", "--format", "json")
        assert code == 0
        assert err == ""
        first, second = json.loads(out)["results"]["rows"]
        assert first["I_empA"] == first["I_empB"] == 0.0
        assert abs(second["I_empA"] - second["I_empB"]) <= 1e-9

    def test_full_rate_is_the_absolute_rate(self, capsys):
        """log2(3**5) / 5 rounds above log2(3); a language of every
        message still has rate R0 and redundancy 0."""
        code, out, err = run_cli(
            capsys, "channel", "--alphabet-size", "3", "--lengths", "5",
            "--rate", "1.58496", "--seed", "1", "--format", "json",
        )
        assert code == 0, err
        (row,) = json.loads(out)["results"]["rows"]
        assert row["R_bits_per_letter"] == row["R0_bits_per_letter"] == math.log2(3)
        assert row["N_min"] == "unbounded" and row["reliable"] is False
        code, out, err = run_cli(
            capsys, "spurious", "--alphabet-size", "3", "--length", "5",
            "--rate", "1.58496", "--seed", "1", "--format", "json",
        )
        assert code == 0, err
        (row,) = json.loads(out)["results"]["rows"]
        assert row["D_bits_per_letter"] == 0.0
        assert row["observed_mean"] == 5.0  # every wrong key of S_3
        assert abs(row["expected_spurious_linear"] - 5.0) < 1e-14

    def test_infeasible_rate_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "channel", "--lengths", "3", "--rate", "2.5", "--seed", "0"
        )
        assert code == 1
        code, _, err = run_cli(capsys, "spurious", "--rate", "400", "--seed", "0")
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_one_letter_alphabet(self, capsys):
        """At G=1 the absolute rate log2(1) is 0 and the one key leaves
        nothing to learn: every mutual information is 0 and every length
        is reliable."""
        code, out, err = run_cli(
            capsys, "channel", "--alphabet-size", "1", "--lengths", "1,2",
            "--rate", "0", "--seed", "1", "--format", "json",
        )
        assert code == 0 and err == ""
        rows = json.loads(out)["results"]["rows"]
        assert [row["N"] for row in rows] == [1, 2]
        for row in rows:
            assert row["I_theoretical"] == row["I_empA"] == row["I_empB"] == 0.0
            assert row["reliable"] is True and row["N_min"] == 0.0

    def test_large_alphabet_without_key_enumeration(self, capsys):
        """262,144 messages under 26! keys: exact MI from orbit classes."""
        code, out, _ = run_cli(
            capsys, "channel", "--alphabet-size", "26", "--lengths", "6",
            "--rate", "3.0", "--seed", "1", "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["results"]["rows"]
        assert abs(row["I_empA"] - row["I_empB"]) <= 1e-9


class TestAttack:
    def test_crack_known_key(self, capsys, latin, english_split):
        from unicity import SubstitutionKey, encrypt

        _, heldout = english_split
        key = SubstitutionKey((np.arange(26) + 3) % 26)
        plain = latin.decode(heldout[:400])
        cipher_text = latin.decode(encrypt(key, latin.encode(plain)))
        code, out, _ = run_cli(
            capsys,
            "attack",
            "--mode",
            "crack",
            "--corpus",
            str(CORPUS_PATH),
            "--ciphertext",
            cipher_text,
            "--true-key",
            key.as_string(latin),
            "--iterations",
            "8000",
            "--restarts",
            "3",
            "--seed",
            "6",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["plaintext_accuracy"] >= 0.9
        assert len(doc["results"]["best_key"]) == 26
        rates = doc["results"]["acceptance_rates"]
        assert len(rates) == 4 and all(0.0 <= r <= 1.0 for r in rates)
        assert doc["results"]["best_restart"] in range(4)

    @pytest.mark.parametrize("order", [3, 4])
    def test_crack_higher_order(self, capsys, latin, english_split, order):
        from unicity import SubstitutionKey, encrypt

        _, heldout = english_split
        key = SubstitutionKey((np.arange(26) + 5) % 26)
        cipher_text = latin.decode(encrypt(key, heldout[:200]))
        code, out, _ = run_cli(
            capsys, "attack", "--mode", "crack", "--order", str(order), "--corpus",
            str(CORPUS_PATH), "--ciphertext", cipher_text, "--iterations", "300",
            "--restarts", "1", "--checkpoint-interval", "40", "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert len(res["score_trace"]) == 2 * (1 + 7 + 1)
        assert res["score_trace"][-1] == res["best_score_bits"]

    def test_crack_key_from_file(self, capsys, tmp_path, latin, english_split):
        from unicity import SubstitutionKey, encrypt

        _, heldout = english_split
        key = SubstitutionKey((np.arange(26) + 5) % 26)
        key_path = tmp_path / "key.txt"
        key_path.write_text(key.as_string(latin) + "\n")
        cipher_text = latin.decode(encrypt(key, heldout[:300]))
        code, out, _ = run_cli(
            capsys,
            "attack",
            "--mode",
            "crack",
            "--corpus",
            str(CORPUS_PATH),
            "--ciphertext",
            cipher_text,
            "--true-key-file",
            str(key_path),
            "--iterations",
            "4000",
            "--restarts",
            "2",
            "--seed",
            "8",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["plaintext_accuracy"] is not None

    def test_crack_requires_ciphertext(self, capsys):
        code, _, err = run_cli(
            capsys, "attack", "--mode", "crack", "--corpus", str(CORPUS_PATH)
        )
        assert code == 2

    def test_curve_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "attack",
            "--corpus",
            str(CORPUS_PATH),
            "--lengths",
            "40,100",
            "--trials",
            "2",
            "--iterations",
            "1500",
            "--restarts",
            "1",
            "--seed",
            "7",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "N",
            "trial",
            "key_accuracy",
            "plaintext_accuracy",
            "best_score_bits",
            "iterations",
            "seed",
        ]
        assert len(rows) == 4

    def test_curve_rows_are_the_curve_cracks(self, capsys, latin, english_split, bigram_model):
        """Each curve row holds its trial's crack from recovery_curve,
        field by field, in length then trial order; each length's summary
        is the statistics of its rows; and the unicity distance is
        H(K)/D for the model fit on the first half of the corpus."""
        code, out, _ = run_cli(
            capsys, "attack", "--corpus", str(CORPUS_PATH), "--lengths", "30,60,120",
            "--trials", "3", "--iterations", "400", "--restarts", "1", "--seed", "8",
            "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        _, heldout = english_split
        config = AttackConfig(model=bigram_model, iterations=400, restarts=1, seed=8)
        space = KeySpace(SUBSTITUTION, latin)
        curve = recovery_curve([30, 60, 120], 3, config, heldout, space)
        want = [
            {"N": n, "trial": t, "key_accuracy": crack.key_accuracy,
             "plaintext_accuracy": crack.plaintext_accuracy,
             "best_score_bits": crack.best_score_bits, "iterations": crack.iterations,
             "seed": crack.seed}
            for n, cracks in zip([30, 60, 120], curve) for t, crack in enumerate(cracks)
        ]
        assert len(want) == 9
        assert results["rows"] == want

        summaries = []
        for n in (30, 60, 120):
            rows = [row for row in results["rows"] if row["N"] == n]
            accs = np.array([row["plaintext_accuracy"] for row in rows])
            mean, se = mean_and_se(accs)
            summaries.append({
                "N": n, "trials": 3,
                "mean_key_accuracy": float(np.mean([row["key_accuracy"] for row in rows])),
                "mean_plaintext_accuracy": float(mean), "se_plaintext_accuracy": float(se),
                "median_plaintext_accuracy": float(np.median(accs)),
                "min_plaintext_accuracy": float(accs.min()),
                "max_plaintext_accuracy": float(accs.max()),
            })
        assert results["summaries"] == summaries
        d = redundancy(bigram_model).redundancy
        assert results["unicity_distance_letters"] == unicity_distance(space.key_entropy_bits, d)
        assert results["unicity_distance_letters"] > 0

    def test_curve_workers_do_not_change_results(self, capsys):
        """--workers is accepted and echoed, but has no effect."""
        docs = []
        for workers in ("1", "3"):
            code, out, _ = run_cli(
                capsys, "attack", "--corpus", str(CORPUS_PATH), "--lengths", "40,90",
                "--trials", "2", "--iterations", "1500", "--restarts", "1",
                "--seed", "10", "--workers", workers, "--format", "json",
            )
            assert code == 0
            docs.append(json.loads(out))
        assert [d["config"]["workers"] for d in docs] == [1, 3]
        assert docs[0]["results"] == docs[1]["results"]

    def test_curve_too_long_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "attack",
            "--corpus",
            str(CORPUS_PATH),
            "--lengths",
            "99999",
            "--trials",
            "1",
            "--seed",
            "0",
        )
        assert code == 1
        assert "shorter" in err

    def test_length_below_order_exit_2_before_corpus_length(self, capsys):
        """A length below the order is a usage error even when another
        length is longer than the held-out corpus."""
        code, out, err = run_cli(capsys, "attack", "--corpus", str(CORPUS_PATH),
                                 "--lengths", "1,99999", "--trials", "1", "--seed", "0")
        assert (code, out) == (2, "")
        assert err == "error: lengths must be at least the model order 2, got 1\n"

    def test_crack_too_large_to_allocate_exit_1(self, capsys):
        """A score trace of about 4 EiB: the allocator refuses it at once."""
        code, out, err = run_cli(
            capsys, "attack", "--mode", "crack", "--corpus", str(CORPUS_PATH),
            "--ciphertext", "QEBNRFZHYOLTK", "--iterations", "100000000000000000",
            "--checkpoint-interval", "1",
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("temperature", ["5e-324", "1e-320", "1e-307", "1e308"])
    def test_crack_extreme_temperature(self, capsys, temperature):
        """Temperatures at both ends of the float range run without a
        numeric warning: an overflowing threshold is the T -> 0 limit."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "attack", "--mode", "crack", "--corpus", str(CORPUS_PATH),
                "--ciphertext", "QEB NRFZH YOLTK CLU", "--iterations", "300",
                "--temperature", temperature, "--seed", "1",
            )
        assert code == 0 and out
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestConfigHandling:
    def test_config_file_and_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"order": 1, "corpus": str(CORPUS_PATH)}))
        code, out, _ = run_cli(
            capsys,
            "corpus-stats",
            "--config",
            str(cfg_path),
            "--order",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["order"] == 2  # flag wins
        assert doc["config"]["corpus"] == str(CORPUS_PATH)

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"orderr": 3}))
        code, _, err = run_cli(
            capsys, "corpus-stats", "--config", str(cfg_path), "--corpus", str(CORPUS_PATH)
        )
        assert code == 2
        assert "unknown config keys" in err

    def test_emitted_config_round_trips(self, capsys, tmp_path):
        """The config embedded in a report reproduces the run exactly
        when fed back through --config."""
        code, out, _ = run_cli(
            capsys, "channel", "--lengths", "1,2,3", "--seed", "17", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(doc["config"]))
        code, replay_out, _ = run_cli(capsys, "channel", "--config", str(cfg_path))
        assert code == 0
        assert json.loads(replay_out) == doc

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out_path in (out_a, out_b):
            code, _, _ = run_cli(
                capsys,
                "spurious",
                "--constructions",
                "3",
                "--seed",
                "11",
                "--out",
                str(out_path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()


# argv placeholders for config files the test writes first
CONFIG_FILES = {
    "<config: constructions x>": {"constructions": "x"},
    "<config: 5>": 5,
    "<config: alphabet_symbols 5>": {"alphabet_symbols": 5},
    "<config: corpus 5>": {"corpus": 5},
    "<config: ciphertext 5>": {"ciphertext": 5},
    "<config: true_key 5>": {"true_key": 5},
    "<config: out 5>": {"out": 5},
    "<config: format xml>": {"format": "xml"},
    "<config: seed 1.5>": {"seed": 1.5},
    "<config: seed true>": {"seed": True},
    "<config: alphabet_size 2.7>": {"alphabet_size": 2.7},
    "<config: cipher 5>": {"cipher": 5},
    "<config: alpha 10**400>": {"alpha": 10**400},  # an integer past the float range
}
# argv placeholders for other input files the test writes first, with
# their bytes; MISSING_FILE names one it does not write
LATIN1_FILE = "<file: latin-1 text>"
INPUT_FILES = {
    LATIN1_FILE: "THE CAF\xc9 IS OPEN".encode("latin-1"),
    "<file: not JSON>": b'{"alpha": ',
    "<file: two keys>": b"DEFGHIJKLMNOPQRSTUVWXYZABC\nABCDEFGHIJKLMNOPQRSTUVWXYZ\n",
}
MISSING_FILE = "<file: missing>"


@pytest.mark.parametrize(
    "argv",
    [
        ["spurious", "--constructions", "0"],
        ["unicity", "--redundancy", "3.2", "--n-step", "0"],
        ["channel", "--lengths", "a,b"],
        ["spurious", "--length", "3,x"],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH),
         "--ciphertext", "QEB NRFZH", "--true-key", "ABC"],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH),
         "--ciphertext", "QEB NRFZH", "--true-key", "A" * 26],
        ["channel", "--lengths", "1", "--workers", "0"],
        ["attack", "--corpus", str(CORPUS_PATH), "--workers", "-3"],
        ["spurious", "--mode", "monte-carlo", "--keys-per-trial", "0", "--seed", "1"],
        ["spurious", "--rate", "-1"],
        ["channel", "--rate", "-1"],
        ["spurious", "--mode", "monte-carlo", "--trials", "0"],
        ["attack", "--corpus", str(CORPUS_PATH), "--iterations", "0"],
        ["attack", "--corpus", str(CORPUS_PATH), "--trials", "0"],
        ["attack", "--corpus", str(CORPUS_PATH), "--restarts", "-1"],
        ["attack", "--corpus", str(CORPUS_PATH), "--temperature", "0"],
        ["unicity", "--alphabet-size", "0", "--redundancy", "1"],
        ["channel", "--alphabet-size", "100"],
        ["spurious", "--config", "<config: constructions x>"],
        ["channel", "--config", "<config: 5>"],
        ["spurious", "--length", "0"],
        ["attack", "--corpus", str(CORPUS_PATH), "--order", "1"],
        ["attack", "--corpus", str(CORPUS_PATH), "--lengths", "1"],
        ["attack", "--mode", "crack", "--alphabet-size", "1", "--corpus", str(CORPUS_PATH),
         "--ciphertext", "ABCABCAAB", "--iterations", "50"],
        ["corpus-stats", "--corpus", str(CORPUS_PATH), "--config", "<config: alphabet_symbols 5>"],
        ["corpus-stats", "--config", "<config: corpus 5>"],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH),
         "--config", "<config: ciphertext 5>"],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH), "--ciphertext", "QEB",
         "--config", "<config: true_key 5>"],
        ["unicity", "--redundancy", "3.2", "--config", "<config: out 5>"],
        ["unicity", "--redundancy", "3.2", "--config", "<config: format xml>"],
        ["spurious", "--config", "<config: seed 1.5>"],
        ["spurious", "--config", "<config: seed true>"],
        ["channel", "--config", "<config: alphabet_size 2.7>"],
        ["unicity", "--redundancy", "3.2", "--config", "<config: cipher 5>"],
        ["corpus-stats", "--corpus", str(CORPUS_PATH), "--alphabet-symbols", "AAB"],
        ["corpus-stats", "--corpus", LATIN1_FILE],
        ["unicity", "--corpus", LATIN1_FILE],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH),
         "--ciphertext-file", LATIN1_FILE],
        ["channel", "--config", MISSING_FILE],
        ["channel", "--config", "<file: not JSON>"],
        ["unicity", "--redundancy", "3.2", "--config", "<config: alpha 10**400>"],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH), "--ciphertext", "123"],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH), "--ciphertext", "QEB NRFZH",
         "--true-key-file", "<file: two keys>"],
        ["unicity", "--redundancy", "3.2", "--n-max", "99999999999999999999999"],
        ["corpus-stats", "--corpus", str(CORPUS_PATH), "--order", "2", "--alpha", "1e-320"],
        ["corpus-stats", "--corpus", str(CORPUS_PATH), "--order", "2", "--alpha", "1e307"],
        ["unicity", "--corpus", str(CORPUS_PATH), "--alpha", "5e-324"],
        ["attack", "--mode", "crack", "--corpus", str(CORPUS_PATH), "--ciphertext", "QEB NRFZH",
         "--iterations", "50", "--alpha", "1e-320"],
        ["attack", "--corpus", str(CORPUS_PATH), "--lengths", "25", "--trials", "1",
         "--iterations", "50", "--alpha", "1e307"],
        ["attack", "--corpus", str(CORPUS_PATH), "--lengths", "30,30", "--trials", "2",
         "--iterations", "300", "--restarts", "1", "--seed", "5"],
        ["unicity", "--n-min", "5", "--n-max", "2", "--redundancy", "1"],
        ["unicity", "--n-max", "-1", "--redundancy", "1"],
    ],
    ids=[
        "constructions-0", "n-step-0", "lengths-not-int", "length-not-int",
        "short-true-key", "true-key-not-permutation", "workers-0", "workers-negative",
        "keys-per-trial-0", "spurious-rate-negative", "channel-rate-negative",
        "mc-trials-0", "iterations-0", "attack-trials-0", "restarts-negative",
        "temperature-0", "alphabet-size-0", "alphabet-size-100", "config-not-int",
        "config-not-object",
        "length-0", "attack-order-1", "attack-length-below-order", "attack-one-letter",
        "config-alphabet-symbols-int", "config-corpus-int", "config-ciphertext-int",
        "config-true-key-int", "config-out-int", "config-format-xml", "config-seed-float",
        "config-seed-bool", "config-alphabet-size-float", "config-cipher-int",
        "alphabet-symbols-repeated", "corpus-latin-1", "unicity-corpus-latin-1",
        "ciphertext-file-latin-1", "config-missing", "config-not-json",
        "config-alpha-past-float-range", "ciphertext-no-symbols", "true-key-file-two-keys",
        "n-max-past-list-size", "alpha-underflows", "alpha-overflows", "unicity-alpha-underflows",
        "crack-alpha-underflows", "curve-alpha-overflows", "attack-lengths-repeated",
        "unicity-range-empty", "unicity-n-max-negative",
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    contents = {**{k: json.dumps(v).encode() for k, v in CONFIG_FILES.items()}, **INPUT_FILES}
    paths = {MISSING_FILE: tmp_path / "missing.json"}
    for i, arg in enumerate(argv):
        if arg in contents:
            paths[arg] = tmp_path / f"input{i}"
            paths[arg].write_bytes(contents[arg])
    argv = [str(paths[a]) if a in paths else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_version_from_module():
    """`python -m unicity.cli --version` runs the module's own entry point."""
    src = Path(sys.modules["unicity"].__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "unicity.cli", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "unicity 0.1.0\n", "")


def test_cli_import_leaves_openssl_unloaded():
    """Importing the CLI loads no hashlib: a command that draws no key,
    or only an unseeded run's seed, does not pay for OpenSSL."""
    src = Path(sys.modules["unicity"].__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, unicity.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_help_unchanged_by_runs(capsys):
    """Every main call parses with one shared parser; runs leave it as it was."""
    before = [run_cli(capsys, name, "--help") for name in ("unicity", "attack")]
    assert run_cli(capsys, "unicity", "--redundancy", "3.2", "--n-max", "3")[0] == 0
    assert run_cli(capsys, "attack", "--mode", "nope")[0] == 2
    assert [run_cli(capsys, name, "--help") for name in ("unicity", "attack")] == before
