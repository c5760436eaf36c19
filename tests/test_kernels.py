import math

import numpy as np
import pytest

from unicity.attack import _BLOCK, _proposals, _score_bits, _start_chains, mcmc_sweep


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


def run_batch(windows, nll_flat, g, inv0, pair_a, pair_b, log2_u, temp, every):
    """Drive mcmc_sweep the way the attack does, one call per checkpoint
    interval. Returns the best mappings, each chain's trace of float
    rescored best scores, and the final state."""
    code, score, scoring = _start_chains(windows, inv0, nll_flat, g)
    inv = inv0.copy()
    best_inv, best_score = inv.copy(), score.copy()
    accepted = np.zeros(inv.shape[0], dtype=np.int64)

    def rescore(mappings):
        return [_score_bits(*w, nll_flat, g, v) for w, v in zip(windows, mappings)]

    trace = [rescore(inv)]
    for lo in range(0, pair_a.shape[1], every):
        cols = slice(lo, lo + every)
        accepted += mcmc_sweep(
            code, inv, score, best_inv, best_score,
            pair_a[:, cols], pair_b[:, cols], log2_u[:, cols], scoring, temp,
        )
        trace.append(rescore(best_inv))
    state = {"code": code, "inv": inv, "score": score, "best_score": best_score,
             "scoring": scoring, "accepted": accepted}
    return best_inv, np.array(trace).T, state


def _random_batch(seed, chains=4, g=5, order=2, iters=200):
    """Chains of one random cost table over windows of different sizes.
    The last chain's counts pass 2**16 windows in total, so it counts on
    a coarser fixed-point scale than the others."""
    rng = np.random.default_rng(seed)
    nll_flat = rng.uniform(0.5, 9.0, size=g**order)
    windows = []
    for c in range(chains):
        u = 3 + 20 * c
        wins = rng.integers(0, g, size=(u, order))
        wcounts = rng.integers(1, 6 + 40 * c, size=u) * (5000 if c == chains - 1 else 1)
        windows.append((wins, wcounts.astype(np.float64)))
    inv0 = np.array([rng.permutation(g) for _ in range(chains)], dtype=np.int64)
    pair_a = rng.integers(0, g, size=(chains, iters))
    raw_b = rng.integers(0, g - 1, size=(chains, iters))
    pair_b = raw_b + (raw_b >= pair_a)
    log2_u = np.log2(rng.random(size=(chains, iters)))
    return windows, nll_flat, g, inv0, pair_a, pair_b, log2_u


def _assert_matches_oracle(seed, order):
    windows, nll_flat, g, inv0, pair_a, pair_b, log2_u = case = _random_batch(
        seed, order=order
    )
    best, trace, _ = run_batch(*case, 1.0, 50)
    for c, (wins, wcounts) in enumerate(windows):
        best_or, score_or, trace_or = mcmc_oracle(
            wins, wcounts, nll_flat, g, inv0[c], pair_a[c], pair_b[c], log2_u[c], 1.0, 50
        )
        assert np.array_equal(best[c], best_or)
        assert math.isclose(trace[c, -1], score_or, rel_tol=1e-12, abs_tol=1e-9)
        assert np.allclose(trace[c], trace_or, rtol=1e-12, atol=1e-9)


class TestMcmcSweep:
    def test_numpy_path_matches_oracle(self):
        for seed in range(5):
            _assert_matches_oracle(seed, order=2)

    def test_order_three_matches_oracle(self):
        for seed in range(3):
            _assert_matches_oracle(seed, order=3)

    def test_order_four_matches_oracle(self):
        for seed in range(2):
            _assert_matches_oracle(seed, order=4)

    def test_running_score_is_exact(self):
        """The fixed-point score carried through a sweep equals a fresh
        integer rescore of the final mapping, and the window codes equal
        the final decryption's."""
        for order in (2, 3, 4):
            windows, nll_flat, g, *_ = case = _random_batch(7, order=order, iters=600)
            _, _, state = run_batch(*case, 2.0, 100)
            assert state["accepted"].min() > 0
            code, score, _ = _start_chains(windows, state["inv"], nll_flat, g)
            assert np.array_equal(state["code"], code)
            assert np.array_equal(state["score"], score)

    def test_improving_proposal_always_accepted(self):
        # one window AA; swapping entries 0 and 1 strictly improves the
        # score; the acceptance uniform is set impossible (log2 u = +inf)
        windows = [(np.array([[0, 0]], dtype=np.int64), np.array([1.0]))]
        nll_flat = np.array([5.0, 9.0, 9.0, 1.0])  # AA costly, BB cheap
        inv0 = np.array([[0, 1]], dtype=np.int64)
        best, trace, _ = run_batch(
            windows, nll_flat, 2, inv0, np.array([[0]]), np.array([[1]]),
            np.array([[math.inf]]), 1.0, 1,
        )
        assert trace[0, -1] == 1.0  # swap accepted despite impossible uniform
        assert np.array_equal(best[0], [1, 0])

    def test_worsening_proposal_needs_luck(self):
        windows = [(np.array([[0, 0]], dtype=np.int64), np.array([1.0]))]
        nll_flat = np.array([1.0, 9.0, 9.0, 5.0])  # start is already best
        inv0 = np.array([[0, 1]], dtype=np.int64)
        # first uniform too high to accept a +4-bit move, second low enough
        best, trace, state = run_batch(
            windows, nll_flat, 2, inv0, np.array([[0, 0]]), np.array([[1, 1]]),
            np.array([[-1.0, -8.0]]), 1.0, 1,
        )
        # walker wandered uphill on step 2, but best-so-far stays at start
        assert state["accepted"].tolist() == [1]
        assert np.array_equal(best[0], [0, 1])
        assert np.array_equal(trace[0], [1.0, 1.0, 1.0])

    def test_trace_nonincreasing(self):
        for seed in range(3):
            case = _random_batch(seed, iters=500)
            _, trace, _ = run_batch(*case, 1.0, 25)
            assert np.all(trace[:, :-1] >= trace[:, 1:] - 1e-12)


@pytest.mark.parametrize(
    "g, sizes",
    [(26, [_BLOCK] * 25), (3, [_BLOCK] * 10), (2, [7]), (25, [30, 70, 1, _BLOCK - 1, 45, 9])],
    ids=["26-2500", "3-1000", "2-7", "25-254"],  # g-iterations
)
def test_block_streams_equal_whole_draws(g, sizes):
    """A chain's proposals, taken in blocks of the given sizes (none
    crossing a multiple of _BLOCK), are the three whole-stream draws
    from default_rng((seed, chain)): first letters, raw second letters,
    then acceptance uniforms."""
    iterations = sum(sizes)
    rng = np.random.default_rng((11, 4))
    pair_a = rng.integers(0, g, size=iterations)
    raw_b = rng.integers(0, g - 1, size=iterations)
    log2_u = np.log2(rng.random(size=iterations))
    rows = (np.empty(_BLOCK, dtype=np.int64), np.empty(_BLOCK, dtype=np.int64), np.empty(_BLOCK))
    blocks = [[], [], []]
    for block in _proposals(11, 4, g, sizes, *rows):
        for got, row in zip(blocks, rows):
            got.append(row[block].copy())
    assert np.array_equal(np.concatenate(blocks[0]), pair_a)
    assert np.array_equal(np.concatenate(blocks[1]), raw_b + (raw_b >= pair_a))
    assert np.array_equal(np.concatenate(blocks[2]), log2_u)
