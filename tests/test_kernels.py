import math

import numpy as np
import pytest

from unicity import attack
from unicity.attack import _BLOCK, _LOOK_AHEAD, _score_bits, _start_chains, _streams, mcmc_sweep

# the fields of a batch that hold its chains' state
STATE = ("code", "inv", "score", "best_inv", "best_score", "accepted")


def mcmc_oracle(wins, wcounts, nll_flat, g, inv0, pair_a, pair_b, log2_u, temp, every):
    """Step-by-step reference walker with plain-python accumulation.
    Returns the best mapping, its score, the trace of best scores at
    every checkpoint, and the number of accepted proposals."""

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
    accepted = 0
    for i in range(len(pair_a)):
        a, b = pair_a[i], pair_b[i]
        inv[a], inv[b] = inv[b], inv[a]
        new = score_of(inv)
        # an uphill threshold that overflows is -inf: the T -> 0 limit
        with np.errstate(over="ignore"):
            passes = log2_u[i] < (score - new) / temp
        if new < score or passes:
            score = new
            accepted += 1
            if score < best_score:
                best_score, best = score, inv.copy()
        else:
            inv[a], inv[b] = inv[b], inv[a]
        if (i + 1) % every == 0:
            trace.append(best_score)
    return best, best_score, np.array(trace), accepted


def run_batch(windows, nll_flat, g, inv0, pairs, log2_u, temp, every, per_job=1):
    """Drive mcmc_sweep the way the attack does, one call per checkpoint
    interval, with per_job chains on each ciphertext. Returns the best
    mappings, each chain's trace of float rescored best scores, and the
    final batch's fields by name."""
    batch = _start_chains(windows, inv0, nll_flat, g, per_job)

    def rescore(mappings):
        return [_score_bits(*windows[c // per_job], nll_flat, g, v) for c, v in enumerate(mappings)]

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


def count_rounds(monkeypatch, held=None) -> list[np.ndarray]:
    """Record every round mcmc_sweep takes from now on: how many
    proposals each chain still sweeping scores in it. When a list held
    is given, also append to it, per round, each of those chains and the
    folded proposals it has left at the round's start."""
    widths = []
    score = attack._round

    def scored(batch, fold, rows, starts, *rest):
        widths.append(np.diff([*starts.tolist(), rows.size]))
        if held is not None:
            c = fold.chain[rows[starts]]
            held.append((c, fold.base[c] + fold.count[c] - rows[starts]))
        return score(batch, fold, rows, starts, *rest)

    monkeypatch.setattr(attack, "_round", scored)
    return widths


def widest(widths) -> int:
    """The most proposals any chain scored in one round."""
    return max(int(w.max()) for w in widths)


def free_moves(windows, pairs, log2_u, per_job=1) -> np.ndarray:
    """Each chain's proposals of two letters absent from its ciphertext
    that it accepts, as every uniform below 1 accepts them."""
    out = []
    for c in range(pairs.shape[1]):
        held = set(np.unique(windows[c // per_job][0]).tolist())
        out.append(sum(a not in held and b not in held and u < 0
                       for a, b, u in zip(*pairs[:, c].tolist(), log2_u[c].tolist())))
    return np.array(out)


def _assert_case_matches_oracle(case, temp, every, per_job=1):
    """Run the batch of case and check every chain against the oracle:
    best mapping, trace, acceptance count, and a running score and best
    score that equal fresh integer rescores of their mappings."""
    windows, nll_flat, g, inv0, (pair_a, pair_b), log2_u = case
    best, trace, state = run_batch(*case, temp, every, per_job)
    for c in range(inv0.shape[0]):
        wins, wcounts = windows[c // per_job]
        best_or, score_or, trace_or, accepted_or = mcmc_oracle(
            wins, wcounts, nll_flat, g, inv0[c], pair_a[c], pair_b[c], log2_u[c], temp, every
        )
        assert np.array_equal(best[c], best_or)
        assert math.isclose(trace[c, -1], score_or, rel_tol=1e-12, abs_tol=1e-9)
        assert np.allclose(trace[c], trace_or, rtol=1e-12, atol=1e-9)
        assert state["accepted"][c] == accepted_or
    for mapping, score in (("inv", "score"), ("best_inv", "best_score")):
        fresh = _start_chains(windows, state[mapping], nll_flat, g, per_job)
        assert np.array_equal(state[score], fresh.score), score
    return state


def _assert_matches_oracle(seed, order, temp=1.0, every=50, **batch):
    return _assert_case_matches_oracle(_random_batch(seed, order=order, **batch), temp, every)


def _ragged_batch(seed, order, jobs, per_job, iters, long=300):
    """per_job chains on each of the given number of ciphertexts at
    G = 26, the second of long windows and the others of 2: most letters
    of a short ciphertext have no window, so most of its runs are empty,
    while the runs of a long ciphertext differ widely in length."""
    g = 26
    rng = np.random.default_rng(seed)
    nll_flat = rng.uniform(0.5, 9.0, size=g**order)
    windows = []
    for i in range(jobs):
        u = long if i == 1 else 2
        wins = rng.integers(0, g, size=(u, order))
        windows.append((wins, rng.integers(1, 8, size=u).astype(np.float64)))
    chains = jobs * per_job
    inv0 = np.array([rng.permutation(g) for _ in range(chains)], dtype=np.int64)
    pair_a = rng.integers(0, g, size=(chains, iters))
    raw_b = rng.integers(0, g - 1, size=(chains, iters))
    pairs = np.stack([pair_a, raw_b + (raw_b >= pair_a)])
    log2_u = np.log2(rng.random(size=(chains, iters)))
    return windows, nll_flat, g, inv0, pairs, log2_u


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
        """Rounds in which each chain scores several of its proposals at
        once walk as the one-step reference does, whether the chains
        accept rarely (cold: rounds of _LOOK_AHEAD proposals cover many
        steps each) or often (hot: a chain accepts most steps, and most
        of its rounds advance it one step)."""
        widths = count_rounds(monkeypatch)
        steps = 3000
        state = _assert_matches_oracle(
            13, order=2, temp=temp, every=100, chains=3, g=8, iters=steps
        )
        if temp < 1:
            assert widest(widths) == _LOOK_AHEAD
            assert len(widths) < steps / 5
        else:
            assert state["accepted"].max() > steps / 2
            assert len(widths) > steps / 2
        assert sum(int(w.max()) for w in widths) >= steps

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
    @pytest.mark.parametrize("chains, cap", [(3, 21), (40, 1)])
    def test_split_sweeps_equal_one_sweep(self, monkeypatch, chains, cap, temp):
        """Two sweeps over steps [0, 70) and [70, 200) leave a batch as one
        sweep over [0, 200) does, whether its chains' rounds score 21
        proposals or one (_LOOK_AHEAD set to cap): the attack cuts its
        sweeps at checkpoints and refills, so no result may depend on
        where the cuts fall. The hot chains often sit above their best at
        the cut."""
        windows, nll_flat, g, inv0, pairs, log2_u = _random_batch(5, chains=chains, g=8, iters=200)
        monkeypatch.setattr(attack, "_LOOK_AHEAD", cap)
        widths = count_rounds(monkeypatch)
        whole, split = (_start_chains(windows, inv0, nll_flat, g) for _ in range(2))
        mcmc_sweep(whole, pairs, log2_u, temp)
        for cols in (slice(0, 70), slice(70, 200)):
            mcmc_sweep(split, pairs[:, :, cols], log2_u[:, cols], temp)
        assert widest(widths) == cap
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

    @pytest.mark.parametrize("chains", [1, 6, 32, 33, 64])
    def test_rounds_are_built_with_the_batch(self, chains):
        """Every batch size takes one path. The batch holds its tables,
        built once: a sweep reads them and leaves them unchanged, and
        every round scores _LOOK_AHEAD proposals of each chain it holds,
        or all that chain has left when fewer are. A chain is in every
        round until it has passed its last proposal."""
        windows, nll_flat, g, inv0, pairs, log2_u = _random_batch(3, chains=chains, iters=300)
        batch = _start_chains(windows, inv0, nll_flat, g)
        tables = {name: getattr(batch, name) for name in ("store", "start", "length", "cost")}
        copies = {name: table.copy() for name, table in tables.items()}
        held = []
        with pytest.MonkeyPatch.context() as patch:
            widths = count_rounds(patch, held)
            mcmc_sweep(batch, pairs, log2_u, 1.0)
        assert widths[0].tolist() == [_LOOK_AHEAD] * chains
        assert widest(widths) == _LOOK_AHEAD
        last = {}
        for r, (chain, _) in enumerate(held):
            last.update(dict.fromkeys(chain.tolist(), r))
        assert sorted(last) == list(range(chains))
        for r, (width, (chain, left)) in enumerate(zip(widths, held)):
            assert chain.tolist() == [c for c in range(chains) if last[c] >= r]
            assert np.array_equal(width, np.minimum(left, _LOOK_AHEAD))
        for name, table in tables.items():
            assert getattr(batch, name) is table and np.array_equal(table, copies[name]), name

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("jobs, per_job", [(6, 6), (2, 3)], ids=["one-step", "look-ahead"])
    def test_unequal_and_empty_runs_match_oracle(self, monkeypatch, order, jobs, per_job):
        """Chains whose ciphertexts differ in length by 150 times, most of
        whose runs are empty, walk as the one-step reference does, both
        in a batch of 36 chains that score one step per round
        (_LOOK_AHEAD set to 1) and in one of 6 whose rounds look ahead.
        The run of each pair of letters l < m lists exactly its
        ciphertext's windows that hold l or m, with the place sum of l
        less that of m, and no other run lists a window."""
        case = _ragged_batch(11 + order, order, jobs, per_job, iters=100)
        windows, nll_flat, g, inv0, *_ = case
        if jobs * per_job > 32:
            monkeypatch.setattr(attack, "_LOOK_AHEAD", 1)
        widths = count_rounds(monkeypatch)
        _assert_case_matches_oracle(case, 4.0, 25, per_job)
        assert (widest(widths) == 1) == (jobs * per_job > 32)
        batch = _start_chains(windows, inv0, nll_flat, g, per_job)

        def place(window, letter):
            return sum(g ** (order - 1 - j) for j in range(order) if window[j] == letter)

        for i, (wins, wcounts) in enumerate(windows):
            for lo in range(g):
                for hi in range(g):
                    r = (i * g + lo) * g + hi
                    run = batch.store[:, batch.start[r] : batch.start[r] + batch.length[r]]
                    expected = [
                        [u, wcounts[u], place(wins[u], lo) - place(wins[u], hi)]
                        for u in range(wins.shape[0]) if lo < hi and {lo, hi} & set(wins[u])
                    ]
                    assert run.T.tolist() == expected, (i, lo, hi)

    @pytest.mark.parametrize("chains", [1, 6, 36])
    @pytest.mark.parametrize("every", [1, 7, 50])
    def test_free_moves_match_oracle(self, chains, every):
        """Chains whose ciphertexts lack most letters make many free
        moves, proposals of two absent letters, which every uniform
        accepts and which change no score. Folded out of the sweep, they
        still count as accepted, still move the letters they name, and
        are in the best mapping when they came before the step that
        found it: every letter of the best mapping, the trace, each
        acceptance count and the exact running scores match the
        one-step reference."""
        jobs = {1: 1, 6: 2, 36: 6}[chains]
        case = _ragged_batch(40 + chains, 2, jobs, chains // jobs, iters=350, long=6)
        windows, _, _, _, pairs, log2_u = case
        free = free_moves(windows, pairs, log2_u, chains // jobs)
        assert free.min() > 10
        state = _assert_case_matches_oracle(case, 3.0, every, chains // jobs)
        assert np.all(state["accepted"] > free)

    @pytest.mark.parametrize("temp", [1e-310, 1e308], ids=["cold", "hot"])
    @pytest.mark.parametrize("chains", [1, 6, 36])
    def test_extreme_temperatures_match_oracle(self, chains, temp):
        """At T = 1e-310 every uphill move's threshold overflows to -inf,
        so only level and downhill moves pass; at T = 1e308 nearly every
        move passes. Both walk as the one-step reference does."""
        jobs = {1: 1, 6: 2, 36: 6}[chains]
        case = _ragged_batch(60 + chains, 2, jobs, chains // jobs, iters=120)
        state = _assert_case_matches_oracle(case, temp, 30, chains // jobs)
        if temp > 1:
            assert state["accepted"].min() > 100

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

    @pytest.mark.parametrize("log2_u, accepted", [(math.inf, 0), (-1.0, 1)])
    def test_free_move_needs_a_uniform_below_one(self, log2_u, accepted):
        """A proposal of two letters absent from the ciphertext changes
        no score, so like any level move it is accepted and counted at a
        uniform below 1 (log2 u = -1), and at log2 u = +inf it is
        rejected: the mapping stays and nothing is counted."""
        windows = [(np.array([[0, 0]], dtype=np.int64), np.array([1.0]))]
        nll_flat = np.arange(16.0)
        inv0 = np.array([[0, 1, 2, 3]], dtype=np.int64)
        best, trace, state = run_batch(
            windows, nll_flat, 4, inv0, np.array([[[2]], [[3]]]), np.array([[log2_u]]), 1.0, 1,
        )
        assert state["accepted"].tolist() == [accepted]
        assert state["inv"][0].tolist() == ([0, 1, 3, 2] if accepted else [0, 1, 2, 3])
        assert np.array_equal(best[0], inv0[0])
        assert trace[0].tolist() == [0.0, 0.0]

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
