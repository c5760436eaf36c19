import math

import numpy as np
import pytest

from unicity import attack
from unicity.attack import _BATCH_CHAINS, _BLOCK, _score_bits, _start_chains, _streams, mcmc_sweep

# the fields of a batch that hold its chains' state
STATE = ("code", "inv", "score", "best_inv", "best_score", "accepted")


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


def run_batch(windows, nll_flat, g, inv0, pairs, log2_u, temp, every):
    """Drive mcmc_sweep the way the attack does, one call per checkpoint
    interval. Returns the best mappings, each chain's trace of float
    rescored best scores, and the final batch's fields by name."""
    batch = _start_chains(windows, inv0, nll_flat, g)

    def rescore(mappings):
        return [_score_bits(*w, nll_flat, g, v) for w, v in zip(windows, mappings)]

    trace = [rescore(batch.inv)]
    for lo in range(0, pairs.shape[2], every):
        cols = slice(lo, lo + every)
        mcmc_sweep(batch, pairs[:, :, cols], log2_u[:, cols], temp)
        trace.append(rescore(batch.best_inv))
    return batch.best_inv, np.array(trace).T, vars(batch)


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
    pairs = np.stack([pair_a, raw_b + (raw_b >= pair_a)])
    log2_u = np.log2(rng.random(size=(chains, iters)))
    return windows, nll_flat, g, inv0, pairs, log2_u


def count_rounds(monkeypatch) -> list[int]:
    """Record the width k of every round mcmc_sweep scores from now on."""
    widths = []
    score = attack._move_and_score

    def counted(target, index, *rest):
        widths.append(index.shape[2] if index.ndim == 3 else 1)
        return score(target, index, *rest)

    monkeypatch.setattr(attack, "_move_and_score", counted)
    return widths


def _assert_matches_oracle(seed, order, temp=1.0, every=50, **batch):
    windows, nll_flat, g, inv0, (pair_a, pair_b), log2_u = case = _random_batch(
        seed, order=order, **batch
    )
    best, trace, state = run_batch(*case, temp, every)
    for c, (wins, wcounts) in enumerate(windows):
        best_or, score_or, trace_or = mcmc_oracle(
            wins, wcounts, nll_flat, g, inv0[c], pair_a[c], pair_b[c], log2_u[c], temp, every
        )
        assert np.array_equal(best[c], best_or)
        assert math.isclose(trace[c, -1], score_or, rel_tol=1e-12, abs_tol=1e-9)
        assert np.allclose(trace[c], trace_or, rtol=1e-12, atol=1e-9)
    return state


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

    @pytest.mark.parametrize("temp", [0.02, 30.0], ids=["rare", "frequent"])
    def test_lookahead_rounds_match_oracle(self, monkeypatch, temp):
        """Rounds that score several steps of each chain at once walk as
        the one-step reference does, whether the chains accept rarely
        (cold: rounds reach the widest k, 64 // 3 = 21, and cover many
        steps each) or often (hot: a chain accepts most steps, and most
        rounds are one step)."""
        widths = count_rounds(monkeypatch)
        steps = 3000
        state = _assert_matches_oracle(
            13, order=2, temp=temp, every=100, chains=3, g=8, iters=steps
        )
        if temp < 1:
            assert max(widths) == 21
            assert len(widths) < steps / 5
        else:
            assert state["accepted"].max() > steps / 2
            assert len(widths) > steps / 2
        assert sum(widths) >= steps

    def test_running_score_is_exact(self):
        """The fixed-point score carried through a sweep equals a fresh
        integer rescore of the final mapping, and the window codes equal
        the final decryption's."""
        for order in (2, 3, 4):
            windows, nll_flat, g, *_ = case = _random_batch(7, order=order, iters=600)
            _, _, state = run_batch(*case, 2.0, 100)
            assert state["accepted"].min() > 0
            fresh = _start_chains(windows, state["inv"], nll_flat, g)
            assert np.array_equal(state["code"], fresh.code)
            assert np.array_equal(state["score"], fresh.score)

    @pytest.mark.parametrize("temp", [1.0, 10.0])
    @pytest.mark.parametrize("chains, widest", [(3, 21), (40, 1)])
    def test_split_sweeps_equal_one_sweep(self, monkeypatch, chains, widest, temp):
        """Two sweeps over steps [0, 70) and [70, 200) leave a batch as one
        sweep over [0, 200) does, whether its rounds reach k = 64 // 3 = 21
        or stay at k = 1: the attack cuts its sweeps at checkpoints and
        refills, so no result may depend on where the cuts fall. The hot
        chains often sit above their best at the cut."""
        windows, nll_flat, g, inv0, pairs, log2_u = _random_batch(5, chains=chains, g=8, iters=200)
        widths = count_rounds(monkeypatch)
        whole, split = (_start_chains(windows, inv0, nll_flat, g) for _ in range(2))
        mcmc_sweep(whole, pairs, log2_u, temp)
        for cols in (slice(0, 70), slice(70, 200)):
            mcmc_sweep(split, pairs[:, :, cols], log2_u[:, cols], temp)
        assert max(widths) == widest
        assert whole.accepted.min() > 0
        for name in STATE:
            assert np.array_equal(getattr(split, name), getattr(whole, name)), name

    def test_start_state_shares_no_memory(self):
        """Every state array of a new batch, and the caller's start
        mappings, can be written without changing any of the others."""
        windows, nll_flat, g, inv0, *_ = _random_batch(2)
        batch = _start_chains(windows, inv0, nll_flat, g)
        assert np.array_equal(batch.inv, inv0) and np.array_equal(batch.best_inv, inv0)
        assert np.array_equal(batch.best_score, batch.score)
        arrays = {"inv0": inv0, **{name: getattr(batch, name) for name in STATE}}
        for name, written in arrays.items():
            before = {other: v.copy() for other, v in arrays.items()}
            written += 1
            for other, v in arrays.items():
                if other != name:
                    assert np.array_equal(v, before[other]), (name, other)

    @pytest.mark.parametrize("chains", [1, 6, 33, 64])
    def test_rounds_are_built_with_the_batch(self, chains):
        """A batch holds the work views of every round width k = 1 to
        its cap, the largest k with C * k <= _BATCH_CHAINS, all in its
        one room, and its sweeps work in those views."""
        windows, nll_flat, g, inv0, pairs, log2_u = _random_batch(3, chains=chains, iters=300)
        batch = _start_chains(windows, inv0, nll_flat, g)
        rounds = batch.rounds
        assert len(rounds) == max(1, _BATCH_CHAINS // chains)
        for k, work in enumerate(rounds, 1):
            assert work.cells.shape[1:-1] == ((chains,) if k == 1 else (chains, k))
            assert (work.copies is None) == (k == 1)
            views = [work.picked, work.cells, *work.cell, *work.places, work.counts, work.moves,
                     *work.after, *work.before, work.costs, *([work.copies] if k > 1 else [])]
            for view in views:
                assert np.shares_memory(view, batch.room)
        mcmc_sweep(batch, pairs, log2_u, 1.0)
        assert all(now is then for now, then in zip(batch.rounds, rounds, strict=True))

    def test_improving_proposal_always_accepted(self):
        # one window AA; swapping entries 0 and 1 strictly improves the
        # score; the acceptance uniform is set impossible (log2 u = +inf)
        windows = [(np.array([[0, 0]], dtype=np.int64), np.array([1.0]))]
        nll_flat = np.array([5.0, 9.0, 9.0, 1.0])  # AA costly, BB cheap
        inv0 = np.array([[0, 1]], dtype=np.int64)
        best, trace, _ = run_batch(
            windows, nll_flat, 2, inv0, np.array([[[0]], [[1]]]), np.array([[math.inf]]), 1.0, 1,
        )
        assert trace[0, -1] == 1.0  # swap accepted despite impossible uniform
        assert np.array_equal(best[0], [1, 0])

    def test_worsening_proposal_needs_luck(self):
        windows = [(np.array([[0, 0]], dtype=np.int64), np.array([1.0]))]
        nll_flat = np.array([1.0, 9.0, 9.0, 5.0])  # start is already best
        inv0 = np.array([[0, 1]], dtype=np.int64)
        # first uniform too high to accept a +4-bit move, second low enough
        best, trace, state = run_batch(
            windows, nll_flat, 2, inv0, np.array([[[0, 0]], [[1, 1]]]), np.array([[-1.0, -8.0]]),
            1.0, 1,
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
    [
        (26, [_BLOCK] * 25),
        (3, [_BLOCK] * 10),
        (2, [7]),
        (25, [30, 250, 1, 199, 45, 9]),
    ],
    ids=["26-2500", "3-1000", "2-7", "25-254"],  # stable names: g, then an old iteration count
)
def test_block_streams_equal_whole_draws(g, sizes, monkeypatch):
    """A chain's proposals, drawn from its three positioned generators in
    pieces of the given sizes, are the three whole-stream draws from
    default_rng((seed, chain)): first letters, raw second letters, then
    acceptance uniforms. The pieces cross multiples of _BLOCK, so the
    draws must not depend on how they are split into calls, and the
    skips past the earlier streams take several calls of _SKIP draws."""
    monkeypatch.setattr(attack, "_SKIP", 97)
    iterations = sum(sizes)
    rng = np.random.default_rng((11, 4))
    pair_a = rng.integers(0, g, size=iterations)
    raw_b = rng.integers(0, g - 1, size=iterations)
    log2_u = np.log2(rng.random(size=iterations))
    gen_a, gen_b, gen_u = _streams(11, 4, g, iterations)
    blocks = [[], [], []]
    for size in sizes:
        a = gen_a.integers(0, g, size=size)
        b = gen_b.integers(0, g - 1, size=size)
        for got, piece in zip(blocks, (a, b + (b >= a), np.log2(gen_u.random(size)))):
            got.append(piece)
    assert np.array_equal(np.concatenate(blocks[0]), pair_a)
    assert np.array_equal(np.concatenate(blocks[1]), raw_b + (raw_b >= pair_a))
    assert np.array_equal(np.concatenate(blocks[2]), log2_u)
