import numpy as np
import pytest

from unicity import (
    SUBSTITUTION,
    AttackConfig,
    KeySpace,
    NGramModel,
    encrypt,
    mcmc_crack,
    recovery_curve,
)


@pytest.fixture(scope="module")
def space(latin):
    return KeySpace(SUBSTITUTION, latin)


class TestConfig:
    def test_order_one_model_rejected(self, latin):
        model = NGramModel.uniform(latin, order=1)
        with pytest.raises(ValueError):
            AttackConfig(model=model)

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

    def test_too_short_ciphertext(self, bigram_model):
        cfg = AttackConfig(model=bigram_model, iterations=10, restarts=0, seed=0)
        with pytest.raises(ValueError):
            mcmc_crack(np.array([3], dtype=np.int64), cfg)


class TestRecoveryCurve:
    def test_small_sweep(self, bigram_model, english_split, space):
        _, heldout = english_split
        cfg = AttackConfig(model=bigram_model, iterations=2000, restarts=2, seed=9)
        curve = recovery_curve([30, 120], 3, cfg, heldout, space)
        assert len(curve.rows) == 6
        assert [s.length for s in curve.summaries] == [30, 120]
        for s in curve.summaries:
            assert s.trials == 3
            assert 0.0 <= s.mean_plaintext_accuracy <= 1.0
        assert curve.unicity_letters > 0

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
