import math
from dataclasses import replace

import numpy as np
import pytest

from unicity import (
    SUBSTITUTION,
    Alphabet,
    AttackConfig,
    KeySpace,
    NGramModel,
    UsageError,
    encrypt,
    mcmc_crack,
    recovery_curve,
)
from unicity import attack
from unicity.attack import _cipher_windows, _frequency_start, _trial_job
from unicity.lang import fit_ngram

from test_kernels import count_rounds, mcmc_oracle


@pytest.fixture(scope="module")
def space(latin):
    return KeySpace(SUBSTITUTION, latin)


class TestConfig:
    def test_order_one_model_rejected(self, latin):
        model = NGramModel(latin, 1, 0.5, np.ones((1, 26), dtype=np.int64), total_symbols=0)
        with pytest.raises(ValueError):
            AttackConfig(model=model)

    def test_one_letter_alphabet_rejected(self):
        one = NGramModel(Alphabet.first_n(1), 2, 0.5, np.ones((1, 1), dtype=np.int64),
                         total_symbols=0)
        with pytest.raises(ValueError, match="2 letters"):
            AttackConfig(model=one)

    def test_parameter_validation(self, bigram_model):
        with pytest.raises(ValueError):
            AttackConfig(model=bigram_model, iterations=0)
        with pytest.raises(ValueError):
            AttackConfig(model=bigram_model, restarts=-1)
        with pytest.raises(ValueError):
            AttackConfig(model=bigram_model, temperature=0.0)
        with pytest.raises(ValueError):
            AttackConfig(model=bigram_model, checkpoint_interval=0)


class TestCrack:
    def test_deterministic(self, bigram_model, english_split, space):
        _, heldout = english_split
        key = space.sample(np.random.default_rng(1))
        cipher = encrypt(key, heldout[:300])
        cfg = AttackConfig(model=bigram_model, iterations=3000, restarts=2, seed=42)
        a = mcmc_crack(cipher, cfg, key)
        b = mcmc_crack(cipher, cfg, key)
        assert a.best_key == b.best_key
        assert a.best_score_bits == b.best_score_bits
        assert np.array_equal(a.score_trace, b.score_trace)
        assert a.key_accuracy == b.key_accuracy
        assert a.plaintext_accuracy == b.plaintext_accuracy

    def test_trace_nonincreasing(self, bigram_model, english_split, space):
        _, heldout = english_split
        key = space.sample(np.random.default_rng(2))
        cipher = encrypt(key, heldout[50:650])
        cfg = AttackConfig(model=bigram_model, iterations=4000, restarts=3, seed=7)
        res = mcmc_crack(cipher, cfg, key)
        trace = res.score_trace
        assert trace.size == (res.restarts + 1) * (1 + res.iterations // 100)
        assert np.all(trace[:-1] >= trace[1:] - 1e-12)
        assert res.best_score_bits == trace[-1]

    def test_trace_closes_with_best_off_interval(self, bigram_model, english_split, space):
        """When the last step is not a checkpoint, each chain's trace is
        closed with its final best, so the trace ends at the best score."""
        _, heldout = english_split
        for seed in range(6):
            key = space.sample(np.random.default_rng((9, seed)))
            cipher = encrypt(key, heldout[seed * 300 : seed * 300 + 250])
            cfg = AttackConfig(
                model=bigram_model, iterations=150, restarts=2, seed=seed,
                checkpoint_interval=100,
            )
            res = mcmc_crack(cipher, cfg, key)
            trace = res.score_trace
            assert trace.size == 3 * (1 + 1 + 1)
            assert np.all(trace[:-1] >= trace[1:])
            assert trace[-1] == res.best_score_bits

    def test_telemetry(self, bigram_model, english_split, space):
        """One acceptance rate per chain and the index of the winning
        restart; a hot walk accepts nearly everything, a cold one little."""
        _, heldout = english_split
        key = space.sample(np.random.default_rng(4))
        cipher = encrypt(key, heldout[:300])
        cfg = AttackConfig(model=bigram_model, iterations=1000, restarts=3, seed=2)
        res = mcmc_crack(cipher, cfg, key)
        assert len(res.acceptance_rates) == 4
        assert all(0.0 <= r <= 1.0 for r in res.acceptance_rates)
        assert 0 <= res.best_restart <= 3
        again = mcmc_crack(cipher, cfg, key)
        assert again.acceptance_rates == res.acceptance_rates
        assert again.best_restart == res.best_restart
        hot = mcmc_crack(cipher, replace(cfg, temperature=1e9), key)
        cold = mcmc_crack(cipher, replace(cfg, temperature=1e-9), key)
        assert min(hot.acceptance_rates) > 0.99
        assert max(cold.acceptance_rates) < 0.2

    def test_order_three_model(self, trigram_model, english_split, space):
        _, heldout = english_split
        key = space.sample(np.random.default_rng(6))
        cipher = encrypt(key, heldout[:150])
        cfg = AttackConfig(model=trigram_model, iterations=600, restarts=1, seed=3)
        res = mcmc_crack(cipher, cfg, key)
        plain = res.best_key.inverse().mapping[cipher]
        assert abs(res.best_score_bits - trigram_model.sequence_nll(plain)) < 1e-6
        assert res.score_trace[-1] == res.best_score_bits

    def test_order_four_matches_oracle(self, latin, english_codes, english_split, space):
        """Scoring cost follows the ciphertext, not the 26**4 n-grams: an
        order-4 crack runs and walks exactly as the reference walker."""
        model = fit_ngram(english_codes, order=4, alpha=0.5, alphabet=latin)
        _, heldout = english_split
        key = space.sample(np.random.default_rng(8))
        cipher = encrypt(key, heldout[400:520])
        cfg = AttackConfig(model=model, iterations=300, restarts=0, seed=3)
        res = mcmc_crack(cipher, cfg, key)
        rng = np.random.default_rng((3, 0))
        pair_a = rng.integers(0, 26, size=300)
        raw_b = rng.integers(0, 25, size=300)
        log2_u = np.log2(rng.random(size=300))
        wins, wcounts = _cipher_windows(cipher, 4, 26)
        best, score, trace, _ = mcmc_oracle(
            wins, wcounts, model.nll_flat, 26, _frequency_start(cipher, model),
            pair_a, raw_b + (raw_b >= pair_a), log2_u, 1.0, 100,
        )
        assert np.array_equal(res.best_key.mapping, np.argsort(best))
        assert res.best_score_bits == pytest.approx(score, rel=1e-12)
        assert np.allclose(res.score_trace, trace, rtol=1e-12, atol=0)

    def test_accuracies_none_without_truth(self, bigram_model, english_split):
        _, heldout = english_split
        cfg = AttackConfig(model=bigram_model, iterations=500, restarts=0, seed=0)
        res = mcmc_crack(heldout[:100], cfg)
        assert res.key_accuracy is None and res.plaintext_accuracy is None

    def test_score_matches_model_nll_of_decryption(
        self, bigram_model, english_split, space
    ):
        _, heldout = english_split
        key = space.sample(np.random.default_rng(3))
        cipher = encrypt(key, heldout[:200])
        cfg = AttackConfig(model=bigram_model, iterations=1000, restarts=1, seed=5)
        res = mcmc_crack(cipher, cfg, key)
        plain = res.best_key.inverse().mapping[cipher]
        assert abs(res.best_score_bits - bigram_model.sequence_nll(plain)) < 1e-6

    def test_recovers_training_prefix(self, bigram_model, english_split, space):
        """Encryptions of a 2000-letter prefix of the training text are
        recovered with >= 0.9 plaintext accuracy in a majority of 20
        seeded trials."""
        train, _ = english_split
        plain = train[:2000]
        successes = 0
        for trial in range(20):
            rng = np.random.default_rng((100, trial))
            key = space.sample(rng)
            cfg = AttackConfig(
                model=bigram_model, iterations=20_000, restarts=5, seed=trial
            )
            res = mcmc_crack(encrypt(key, plain), cfg, key)
            if res.plaintext_accuracy >= 0.9:
                successes += 1
        assert successes > 10

    def test_short_ciphertext_spurious_regime(
        self, bigram_model, english_split, space
    ):
        """Below the unicity point many keys explain the ciphertext:
        independent chains land on distinct keys with near-equal scores."""
        _, heldout = english_split
        key = space.sample(np.random.default_rng(8))
        cipher = encrypt(key, heldout[200:210])  # 10 letters
        found = {}
        for seed in range(8):
            cfg = AttackConfig(
                model=bigram_model, iterations=4000, restarts=0, seed=seed
            )
            res = mcmc_crack(cipher, cfg, key)
            found[res.best_key.as_string(space.alphabet)] = res.best_score_bits
        best = min(found.values())
        near_best = [k for k, s in found.items() if s <= best + 1.0]
        assert len(set(near_best)) >= 2

    def test_round_width_leaves_crack_unchanged(
        self, bigram_model, english_split, space, monkeypatch
    ):
        """_LOOK_AHEAD caps the proposals a chain scores in one round. At
        1 each chain of a 6-chain crack takes one step per round, at the
        default up to _LOOK_AHEAD; the results are the same, and the
        settled chains of the wider rounds need far fewer rounds than
        steps."""
        _, heldout = english_split
        key = space.sample(np.random.default_rng(12))
        cipher = encrypt(key, heldout[1000:1800])
        cfg = AttackConfig(model=bigram_model, iterations=4000, restarts=5, seed=21)
        results, rounds = [], []
        for cap in (1, attack._LOOK_AHEAD):
            monkeypatch.setattr(attack, "_LOOK_AHEAD", cap)
            widths = count_rounds(monkeypatch)
            results.append(mcmc_crack(cipher, cfg, key))
            rounds.append(len(widths))
            assert max(int(w.max()) for w in widths) == cap
        narrow, wide = results
        # a proposal of two letters absent from the ciphertext takes no round
        assert cfg.iterations * 0.9 < rounds[0] <= cfg.iterations
        assert rounds[1] < cfg.iterations / 4
        assert narrow.best_key == wide.best_key
        assert narrow.best_score_bits == wide.best_score_bits
        assert np.array_equal(narrow.score_trace, wide.score_trace)
        assert narrow.key_accuracy == wide.key_accuracy
        assert narrow.plaintext_accuracy == wide.plaintext_accuracy
        assert narrow.acceptance_rates == wide.acceptance_rates
        assert narrow.best_restart == wide.best_restart

    def test_checkpoint_cuts_leave_walk_unchanged(self, bigram_model, english_split, space,
                                                  monkeypatch):
        """A sweep is cut at every checkpoint, inside a refill of _BLOCK
        proposals or at its end, and neither the cuts nor the refill size
        change the walk: 7 and 333 do not divide _BLOCK, and 5,000 passes
        the last step, at refills of 7, 200 and the default. Each
        interval's trace is the same at every refill size, and the trace
        at interval 7 holds the trace at 21 in every third checkpoint."""
        _, heldout = english_split
        key = space.sample(np.random.default_rng(31))
        cipher = encrypt(key, heldout[2000:2400])
        iters = 2100
        runs = {}
        default = attack._BLOCK
        for block in (7, 200, default):
            monkeypatch.setattr(attack, "_BLOCK", block)
            for every in (7, 21, 333, 5000):
                cfg = AttackConfig(model=bigram_model, iterations=iters, restarts=3, seed=17,
                                   checkpoint_interval=every)
                res = mcmc_crack(cipher, cfg, key)
                runs[block, every] = res, res.score_trace.reshape(4, 1 + math.ceil(iters / every))
        first, _ = runs[default, 7]
        for res, _ in runs.values():
            assert res.best_key == first.best_key
            assert res.best_score_bits == first.best_score_bits
            assert res.acceptance_rates == first.acceptance_rates
            assert res.best_restart == first.best_restart
        for block, every in runs:
            assert np.array_equal(runs[block, every][1], runs[default, every][1])
        assert np.array_equal(runs[default, 7][1][:, ::3], runs[default, 21][1])

    def test_too_short_ciphertext(self, bigram_model):
        cfg = AttackConfig(model=bigram_model, iterations=10, restarts=0, seed=0)
        with pytest.raises(ValueError):
            mcmc_crack(np.array([3], dtype=np.int64), cfg)


class TestRecoveryCurve:
    def test_small_sweep(self, bigram_model, english_split, space):
        _, heldout = english_split
        cfg = AttackConfig(model=bigram_model, iterations=2000, restarts=2, seed=9)
        curve = recovery_curve([30, 120], 3, cfg, heldout, space)
        assert [len(cracks) for cracks in curve] == [3, 3]
        for cracks in curve:
            for crack in cracks:
                assert crack.iterations == 2000 and crack.restarts == 2
                assert 0.0 <= crack.plaintext_accuracy <= 1.0

    def test_repeated_length_rejected(self, bigram_model, english_split, space):
        """A length listed twice would give two summaries of that length
        that no report could tell apart."""
        _, heldout = english_split
        cfg = AttackConfig(model=bigram_model, iterations=200, restarts=0, seed=4)
        with pytest.raises(ValueError, match="distinct"):
            recovery_curve([30, 60, 30], 2, cfg, heldout, space)

    @pytest.mark.parametrize("batch_chains", [64, 6])
    def test_rows_match_standalone_cracks(
        self, bigram_model, english_split, space, monkeypatch, batch_chains
    ):
        """A curve runs its trials' chains in batches of up to
        batch_chains; each trial is still the crack of its own ciphertext
        under its attack seed, whichever batch it ran in."""
        monkeypatch.setattr(attack, "_BATCH_CHAINS", batch_chains)
        _, heldout = english_split
        cfg = AttackConfig(model=bigram_model, iterations=1500, restarts=2, seed=5)
        lengths = [20, 90, 300]
        curve = recovery_curve(lengths, 2, cfg, heldout, space)
        trials = [(n, crack) for n, cracks in zip(lengths, curve) for crack in cracks]
        assert len(trials) == 6
        for i, (n, crack) in enumerate(trials):
            cipher, seed, key = _trial_job(heldout, space, cfg.seed, n, i)
            assert seed == crack.seed
            res = mcmc_crack(cipher, replace(cfg, seed=seed), key)
            assert res.best_score_bits == crack.best_score_bits
            assert res.key_accuracy == crack.key_accuracy
            assert res.plaintext_accuracy == crack.plaintext_accuracy

    def test_validation(self, bigram_model, english_split, space):
        _, heldout = english_split
        cfg = AttackConfig(model=bigram_model, iterations=10, restarts=0, seed=0)
        with pytest.raises(ValueError):
            recovery_curve([], 3, cfg, heldout, space)
        with pytest.raises(ValueError):
            recovery_curve([30], 0, cfg, heldout, space)
        with pytest.raises(ValueError):
            recovery_curve([heldout.size + 1], 1, cfg, heldout, space)
        with pytest.raises(ValueError):
            recovery_curve([1], 1, cfg, heldout, space)


ORDER_ONE = NGramModel(Alphabet.first_n(26), 1, 0.5, np.ones((1, 26), dtype=np.int64), 0)
ONE_LETTER = NGramModel(Alphabet.first_n(1), 2, 0.5, np.ones((1, 1), dtype=np.int64), 0)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda m, _: AttackConfig(model=ORDER_ONE), "order >= 2, got 1"),
        (lambda m, _: AttackConfig(model=ONE_LETTER), "2 letters"),
        (lambda m, _: AttackConfig(model=m, iterations=0), "iterations must be >= 1, got 0"),
        (lambda m, _: AttackConfig(model=m, restarts=-1), "restarts must be nonnegative, got -1"),
        (lambda m, _: AttackConfig(model=m, temperature=0.0), "positive, got 0.0"),
        (lambda m, _: AttackConfig(model=m, temperature=math.nan), "positive, got nan"),
        (lambda m, _: AttackConfig(model=m, checkpoint_interval=0), "interval must be >= 1"),
        (lambda m, _: AttackConfig(model=m, iterations=2e4),
         "iterations must be an integer, got 20000.0"),
        (lambda m, _: AttackConfig(model=m, restarts=1.0), "restarts must be an integer, got 1.0"),
        (lambda m, _: AttackConfig(model=m, checkpoint_interval=10.0),
         "checkpoint_interval must be an integer, got 10.0"),
        (lambda m, _: AttackConfig(model=m, seed=-1), "seed must be a nonnegative integer, got -1"),
        (lambda m, _: AttackConfig(model=m, seed=1.5), "nonnegative integer, got 1.5"),
        (lambda m, c: recovery_curve([], 1, AttackConfig(model=m), c, None), "nonempty"),
        (lambda m, c: recovery_curve([30, 30], 1, AttackConfig(model=m), c, None),
         r"distinct, got \[30, 30\]"),
        (lambda m, c: recovery_curve([30], 0, AttackConfig(model=m), c, None), "got 0"),
        (lambda m, c: recovery_curve([30], 2.0, AttackConfig(model=m), c, None),
         "trials_per_length must be an integer, got 2.0"),
        (lambda m, c: recovery_curve([30, 60.0], 1, AttackConfig(model=m), c, None),
         r"lengths must be integers, got \[30, 60.0\]"),
        (lambda m, c: recovery_curve([1, 99999], 1, AttackConfig(model=m), c, None),
         "at least the model order 2, got 1"),
    ],
    ids=["config-order-1", "config-one-letter", "config-iterations-0", "config-restarts-negative",
         "config-temperature-0", "config-temperature-nan", "config-interval-0",
         "config-iterations-float", "config-restarts-float", "config-interval-float",
         "config-seed-negative", "config-seed-float", "curve-no-lengths", "curve-repeated-length",
         "curve-trials-0", "curve-trials-float", "curve-length-float",
         "curve-below-order-and-too-long"],
)
def test_usage_errors(bigram_model, english_split, build, match):
    """Each refused argument raises UsageError, a ValueError, and a
    length below the order is refused before the corpus is measured."""
    with pytest.raises(UsageError, match=match) as info:
        build(bigram_model, english_split[1])
    assert isinstance(info.value, ValueError)


def test_corpus_too_short_is_not_a_usage_error(bigram_model, english_split, space):
    """A held-out corpus too short for the lengths makes the run
    infeasible: a plain ValueError, not a UsageError."""
    _, heldout = english_split
    with pytest.raises(ValueError, match="shorter") as info:
        recovery_curve([heldout.size + 1], 1, AttackConfig(model=bigram_model), heldout, space)
    assert not isinstance(info.value, UsageError)
