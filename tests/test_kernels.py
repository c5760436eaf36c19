import math

import numpy as np

from unicity.attack import mcmc_sweep


def mcmc_oracle(wins, wcounts, nll_flat, g, inv0, pair_a, pair_b, log2_u, temp, every):
    """Step-by-step reference walker with plain-python accumulation."""

    def score_of(inv):
        total = 0.0
        for u in range(wins.shape[0]):
            code = 0
            for j in range(wins.shape[1]):
                code = code * g + int(inv[wins[u, j]])
            total += wcounts[u] * nll_flat[code]
        return total

    inv = inv0.copy()
    score = score_of(inv)
    best, best_score = inv.copy(), score
    trace = [score]
    for i in range(len(pair_a)):
        a, b = pair_a[i], pair_b[i]
        inv[a], inv[b] = inv[b], inv[a]
        new = score_of(inv)
        if new < score or log2_u[i] < (score - new) / temp:
            score = new
            if score < best_score:
                best_score, best = score, inv.copy()
        else:
            inv[a], inv[b] = inv[b], inv[a]
        if (i + 1) % every == 0:
            trace.append(best_score)
    return best, best_score, np.array(trace)


def _random_case(seed, g=5, u=12, order=2, iters=200):
    rng = np.random.default_rng(seed)
    wins = rng.integers(0, g, size=(u, order))
    wcounts = rng.integers(1, 6, size=u).astype(np.float64)
    nll_flat = rng.uniform(0.5, 9.0, size=g**order)
    inv0 = rng.permutation(g).astype(np.int64)
    pair_a = rng.integers(0, g, size=iters)
    raw_b = rng.integers(0, g - 1, size=iters)
    pair_b = raw_b + (raw_b >= pair_a)
    log2_u = np.log2(rng.random(size=iters))
    return wins, wcounts, nll_flat, g, inv0, pair_a, pair_b, log2_u


class TestMcmcSweep:
    def test_numpy_path_matches_oracle(self):
        for seed in range(5):
            case = _random_case(seed)
            best_np, score_np, trace_np = mcmc_sweep(*case, 1.0, 50)
            best_or, score_or, trace_or = mcmc_oracle(*case, 1.0, 50)
            assert np.array_equal(best_np, best_or)
            assert abs(score_np - score_or) < 1e-9
            assert np.allclose(trace_np, trace_or, atol=1e-9)

    def test_improving_proposal_always_accepted(self):
        # one window AA; swapping entries 0 and 1 strictly improves the
        # score; the acceptance uniform is set impossible (log2 u = +inf)
        g = 2
        wins = np.array([[0, 0]], dtype=np.int64)
        wcounts = np.array([1.0])
        nll_flat = np.array([5.0, 9.0, 9.0, 1.0])  # AA costly, BB cheap
        inv0 = np.array([0, 1], dtype=np.int64)
        pair_a = np.array([0], dtype=np.int64)
        pair_b = np.array([1], dtype=np.int64)
        log2_u = np.array([math.inf])
        best, score, trace = mcmc_sweep(
            wins, wcounts, nll_flat, g, inv0, pair_a, pair_b, log2_u, 1.0, 1
        )
        assert score == 1.0  # swap accepted despite impossible uniform
        assert np.array_equal(best, [1, 0])

    def test_worsening_proposal_needs_luck(self):
        g = 2
        wins = np.array([[0, 0]], dtype=np.int64)
        wcounts = np.array([1.0])
        nll_flat = np.array([1.0, 9.0, 9.0, 5.0])  # start is already best
        inv0 = np.array([0, 1], dtype=np.int64)
        pair_a = np.array([0, 0], dtype=np.int64)
        pair_b = np.array([1, 1], dtype=np.int64)
        # first uniform too high to accept a +4-bit move, second low enough
        log2_u = np.array([-1.0, -8.0])
        best, score, trace = mcmc_sweep(
            wins, wcounts, nll_flat, g, inv0, pair_a, pair_b, log2_u, 1.0, 1
        )
        # walker wandered uphill on step 2, but best-so-far stays at start
        assert score == 1.0
        assert np.array_equal(best, [0, 1])
        assert np.array_equal(trace, [1.0, 1.0, 1.0])

    def test_trace_nonincreasing(self):
        for seed in range(3):
            case = _random_case(seed, iters=500)
            _, _, trace = mcmc_sweep(*case, 1.0, 25)
            assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
