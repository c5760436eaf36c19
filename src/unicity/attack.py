"""Metropolis-Hastings key recovery for substitution ciphers.

The walker scores candidate decryptions with an n-gram model (bigram by
default), proposes random transpositions of the current key, and keeps
the best key seen. The chains of a crack, and of a recovery curve's
trials in groups, advance together as one batch. A chain holds
the n-gram code of each distinct window of its decrypted ciphertext, so
a transposition is scored from the few windows it moves (after Jakobsen
1995), in exact fixed-point integers; the work per step follows the
text, not the number of n-grams.

A proposal of two letters that are both absent from a chain's
ciphertext moves no window: its cost change is 0, so it is accepted at
any uniform below 1 and any temperature. A sweep folds these free moves
out of each chain's proposals before it scores any: it relabels the
chain's later proposals through the permutation the free moves compose,
counts each as accepted, and at its end applies the permutation to the
chain's mapping, and to its best mapping up to the step that found it.

Each chain then advances in rounds of its own. A round scores the
chain's next _LOOK_AHEAD folded proposals (fewer at the sweep's end)
from its current state, and the chain moves to the first it accepts.
This is the step-at-a-time walk bit for bit, at any width: every
earlier proposal in the round was scored from the state the walk would
have had, and rejected. A settled chain rejects almost every proposal,
and one round covers many of its steps (pre-fetching, after Brockwell
2006). A round scores every row of every chain still sweeping at once,
each from its chain's unmodified code row.

Results are deterministic given the seed. Chain c of a crack seeded s draws
its proposals from default_rng((s, c)): every first letter, then every
second letter, then every acceptance uniform, from three generators
positioned at the starts of the three streams and refilled _BLOCK at a
time as the batch advances. Per-run generators in sweeps derive from
(seed, run index), so each trial's result depends only on the seed and
its place in the sweep, not on the rest of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cipher import KeySpace, SubstitutionKey, decrypt, encrypt
from .lang import NGramModel, UsageError, check_codes, decode_codes, encode_rows

# proposals drawn per chain and stream in one refill
_BLOCK = 200
# most draws per call when a generator skips a stream, bounding its memory
_SKIP = 1 << 16
# most chains advanced as one batch: a recovery curve runs its trials in
# groups of whole cracks, so memory does not grow with the trial count
_BATCH_CHAINS = 64
# proposals a chain scores in one round, but for its last of a sweep
_LOOK_AHEAD = 16


@dataclass(frozen=True)
class AttackConfig:
    model: NGramModel
    iterations: int = 20_000
    restarts: int = 5
    seed: int = 0
    temperature: float = 1.0
    checkpoint_interval: int = 100

    def __post_init__(self):
        if self.model.order < 2:
            raise UsageError(f"attack scoring needs order >= 2, got {self.model.order}")
        if self.model.alphabet.size < 2:
            raise UsageError("attack needs at least 2 letters to propose transpositions")
        if self.iterations < 1:
            raise UsageError(f"iterations must be >= 1, got {self.iterations}")
        if self.restarts < 0:
            raise UsageError(f"restarts must be nonnegative, got {self.restarts}")
        if not self.temperature > 0:  # refuses NaN, which compares false
            raise UsageError(f"temperature must be positive, got {self.temperature}")
        if self.checkpoint_interval < 1:
            raise UsageError(f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}")


@dataclass(frozen=True, eq=False)
class AttackResult:
    best_key: SubstitutionKey
    best_score_bits: float
    # each chain's score at its start, every checkpoint_interval steps and
    # its end, the chains laid end to end in restart order under one running
    # minimum: (restarts+1) * (1 + ceil(iterations / interval)) entries,
    # nonincreasing, ending at best_score_bits
    score_trace: np.ndarray
    key_accuracy: float | None
    plaintext_accuracy: float | None
    iterations: int
    restarts: int
    seed: int
    acceptance_rates: tuple[float, ...]  # accepted proposals / iterations, per chain
    best_restart: int  # the chain that found best_key


def _frequency_start(ciphertext: np.ndarray, model: NGramModel) -> np.ndarray:
    """Initial ciphertext->plaintext mapping aligning ciphertext letter
    frequencies with the model's marginal symbol weights."""
    g = model.alphabet.size
    cipher_freq = np.bincount(ciphertext, minlength=g)
    cipher_rank = np.argsort(-cipher_freq, kind="stable")
    model_rank = np.argsort(-model.symbol_weights(), kind="stable")
    inv = np.empty(g, dtype=np.int64)
    inv[cipher_rank] = model_rank
    return inv


def _cipher_windows(ciphertext: np.ndarray, order: int, g: int):
    """Unique length-`order` windows of the ciphertext and their counts."""
    codes = encode_rows(sliding_window_view(ciphertext, order), g)
    uniq, counts = np.unique(codes, return_counts=True)
    return decode_codes(uniq, g, order), counts.astype(np.float64)


def _score_bits(wins, wcounts, nll_flat, g, inv) -> float:
    """Cost in bits of decrypting the windows with mapping inv."""
    return float(wcounts @ nll_flat[encode_rows(inv[wins], g)])


@dataclass(frozen=True)
class _Batch:
    """A batch of Metropolis chains: their state and delta-scoring tables.

    Row c of code, inv, score, best_inv, best_score and accepted is
    chain c: code indexes the cost of each window of its decrypted
    ciphertext, inv is its ciphertext->plaintext mapping, score the
    fixed-point cost of inv, best_inv/best_score the best mapping seen,
    and accepted the number of proposals it accepted. code is
    C-contiguous, as mcmc_sweep updates it through a flat view.

    Run row[c] + l * g + m, for cipher letters l < m, belongs to that
    pair of letters in chain c's ciphertext, and chains of one
    ciphertext share their runs. It is slots start[r] to start[r] +
    length[r] - 1 of store, one for each window that holds l or m: in
    three planes, the window's column in the code row, how often it
    occurs, and p_l - p_m, where p_l sums the place values at which the
    window holds l. Transposing l and m moves the window's code by
    (p_l - p_m) * (inv[m] - inv[l]), so a window that holds both
    letters is moved once, by all of its change, and the run of two
    letters absent from the ciphertext is empty. Costs are fixed point:
    chain c counts in units of unit[c] bits, and its codes are offset
    into the block of cost that holds the model's costs in those
    units."""

    code: np.ndarray  # (C, code width) int64
    inv: np.ndarray  # (C, g) int64
    score: np.ndarray  # (C,) int64
    best_inv: np.ndarray
    best_score: np.ndarray
    accepted: np.ndarray  # (C,) int64
    row: np.ndarray  # (C,)
    cost: np.ndarray  # (scales * g**order,) int64
    unit: np.ndarray  # (C,) bits per unit, a power of two
    store: np.ndarray  # (3, slots) int32: window columns, counts, place differences
    start: np.ndarray  # (ciphertexts * g * g,)
    length: np.ndarray  # (ciphertexts * g * g,)


def _start_chains(windows, inv0: np.ndarray, nll_flat: np.ndarray, g: int, per_job: int = 1):
    """The batch in which chains i * per_job to i * per_job + per_job - 1
    walk over the ciphertext windows windows[i], a (wins, wcounts) pair,
    chain c from mapping inv0[c], at its start: each chain's best is its
    start, and no state array shares memory with another or with inv0."""
    job = np.arange(len(windows)).repeat(per_job)
    chains = job.size
    width = max(wins.shape[0] for wins, _ in windows)
    lo, hi = np.triu_indices(g, 1)
    planes, lengths = [], []
    for wins, wcounts in windows:
        # the place sum of each letter in each window
        places = encode_rows(wins == np.arange(g)[:, None, None], g)
        pair, w = np.nonzero((places[lo] > 0) | (places[hi] > 0))
        # int32 halves the store: every value is below the window count or g**order
        planes.append(np.stack([w, wcounts[w], places[lo[pair], w] - places[hi[pair], w]])
                      .astype(np.int32))
        lengths.append(np.bincount(lo[pair] * g + hi[pair], minlength=g * g))
    store = np.concatenate(planes, axis=1)
    length = np.concatenate(lengths)
    # A chain counts in units of 2**-k bits, where k keeps (a bound on
    # its window count) * (largest cost) within 2**62 units. A move sums
    # cost changes over at most twice the windows, so nothing passes
    # int64. The bound is a power of 16, so ciphertexts of similar length
    # share one cost table, and no chain's scale depends on its batch.
    max_bits = math.frexp(float(nll_flat.max()))[1]
    ks = np.array(
        [62 - max_bits - 4 * math.ceil(math.frexp(wc.sum())[1] / 4) for _, wc in windows]
    )
    levels, level = np.unique(ks, return_inverse=True)
    cost = np.concatenate([np.rint(np.ldexp(nll_flat, k)).astype(np.int64) for k in levels])
    code = np.repeat(level[job, None] * nll_flat.size, width, axis=1)
    score = np.zeros(chains, dtype=np.int64)
    for c, i in enumerate(job):
        wins, wcounts = windows[i]
        code[c, : wins.shape[0]] += encode_rows(inv0[c][wins], g)
        score[c] = wcounts.astype(np.int64) @ cost[code[c, : wins.shape[0]]]
    inv = np.array(inv0, dtype=np.int64)
    return _Batch(
        code, inv, score, inv.copy(), score.copy(), np.zeros(chains, dtype=np.int64),
        job * g * g, cost, np.ldexp(1.0, -ks[job]), store, np.cumsum(length) - length, length,
    )


class _Folded(NamedTuple):
    """A sweep's proposals with its free moves folded out: chain c's
    count[c] proposals that move some window are entries base[c]
    onward, in step order, each relabelled through the free moves
    before it, lo < hi naming its letters after that. Entry [t, c] of
    sigma composes chain c's first t free moves, so that its true
    mapping is inv[sigma[t, c]] after them; a sweep with no free move
    has the identity alone."""

    count: np.ndarray  # (C,)
    base: np.ndarray  # (C,)
    chain: np.ndarray  # (n,)
    log2_u: np.ndarray  # (n,)
    unit: np.ndarray  # (n,) its chain's
    offset: np.ndarray  # (n,) of its chain's code row in the flat code rows
    lo: np.ndarray  # (n,) of its lower letter's entry in the flat mappings
    hi: np.ndarray  # (n,) and of its higher letter's
    start: np.ndarray  # (n,) of its run in store
    length: np.ndarray  # (n,) of its run
    before: np.ndarray  # (n,) free moves of its chain before it
    sigma: np.ndarray  # (1 + most free moves, C, g)
    moves: np.ndarray  # (C,) free moves of each chain


def _fold(batch: _Batch, pairs: np.ndarray, log2_u: np.ndarray) -> _Folded:
    """Fold out a sweep's proposals of two letters absent from their
    chain's ciphertext. Such a proposal changes no window, so its cost
    change is 0: at a uniform below 1 it is a free move, accepted at any
    temperature, and otherwise it is rejected and changes nothing."""
    chains, steps = log2_u.shape
    g = batch.inv.shape[1]
    lo, hi = np.minimum(*pairs), np.maximum(*pairs)
    run = lo * g
    run += hi
    run += batch.row[:, None]
    empty = batch.length.take(run) == 0
    free = empty & (log2_u < 0)
    kept = np.flatnonzero(~empty)
    chain = kept // steps
    lo, hi = lo.take(kept), hi.take(kept)
    moves = free.sum(axis=1)
    ranks = free.cumsum(axis=1)
    sigma = _compose(pairs, free, ranks, moves, g)
    before = ranks.take(kept)
    at = (before * chains + chain) * g
    lo, hi = sigma.take(at + lo), sigma.take(at + hi)
    lo, hi = np.minimum(lo, hi, dtype=np.int64), np.maximum(lo, hi, dtype=np.int64)
    count = steps - empty.sum(axis=1)
    run = batch.row[chain] + lo * g + hi
    maps = chain * g
    return _Folded(
        count, np.cumsum(count) - count, chain, log2_u.take(kept), batch.unit[chain],
        chain * batch.code.shape[1], maps + lo, maps + hi, batch.start[run], batch.length[run],
        before, sigma, moves,
    )


def _compose(pairs: np.ndarray, free: np.ndarray, ranks: np.ndarray, moves: np.ndarray,
             g: int) -> np.ndarray:
    """Entry [t, c] of the result: the mapping of true letters to folded
    ones after chain c's first t free moves, free[c] marking its steps
    that are free, ranks[c] counting its free moves up to each step and
    moves[c] in all."""
    chains = free.shape[0]
    c, j = np.nonzero(free)
    rank = ranks[c, j] - 1  # of each free move in its chain
    by_rank = np.argsort(rank, kind="stable")
    c, j = c[by_rank], j[by_rank]
    at_a, at_b = pairs[:, c, j] + c * g  # the two letters' entries of a flat (C, g) mapping
    sigma = np.empty((1 + int(moves.max()), chains, g), dtype=np.int16)  # g**2 costs fit in memory
    sigma[0] = np.arange(g)
    ends = np.cumsum(np.bincount(rank)).tolist()
    for t, (lo, hi) in enumerate(zip([0, *ends], ends)):
        now = sigma[t + 1].reshape(-1)
        now[...] = sigma[t].reshape(-1)
        a, b = at_a[lo:hi], at_b[lo:hi]
        now[a], now[b] = now[b], now[a]
    return sigma


def _round(batch: _Batch, fold: _Folded, rows: np.ndarray, starts: np.ndarray,
           temperature: float) -> np.ndarray:
    """Score the folded proposals rows, each from its chain's state, and
    move each chain to the first of its rows that it accepts. rows holds
    the rows of one chain after another, the i-th chain's from
    starts[i]. Returns the place of that row among the i-th chain's
    rows, or a place past them where it accepts none."""
    flat, inv = batch.code.reshape(-1), batch.inv.reshape(-1)
    lengths = fold.length[rows]
    offsets = lengths.cumsum() - lengths
    slot = np.repeat(fold.start[rows] - offsets, lengths)
    slot += np.arange(slot.size)
    columns, counts, places = batch.store.take(slot, axis=1)
    del slot
    cells = np.repeat(fold.offset[rows], lengths)
    cells += columns
    lo, hi = inv.take(fold.lo[rows]), inv.take(fold.hi[rows])
    move = np.repeat(hi - lo, lengths)
    move *= places
    before = flat.take(cells)
    move += before  # the codes after the move
    gain = batch.cost.take(move)
    gain -= batch.cost.take(before)
    gain *= counts
    delta = np.add.reduceat(gain, offsets)
    accept = (delta < 0) | (fold.log2_u[rows] < -delta * fold.unit[rows] / temperature)
    first = np.minimum.reduceat(np.where(accept, np.arange(rows.size), rows.size), starts)
    took = first[first < rows.size]
    if took.size:
        reach = lengths[took]
        at = np.repeat(offsets[took] - (reach.cumsum() - reach), reach)
        at += np.arange(at.size)
        flat[cells[at]] = move[at]
        picked = rows[took]
        inv[fold.lo[picked]] = hi[took]
        inv[fold.hi[picked]] = lo[took]
        c = fold.chain[picked]
        batch.score[c] += delta[took]
        batch.accepted[c] += 1
        better = batch.score[c] < batch.best_score[c]
        if better.any():
            c = c[better]
            batch.best_score[c] = batch.score[c]
            batch.best_inv[c] = np.take_along_axis(
                batch.inv[c], fold.sigma[fold.before[picked[better]], c], axis=1)
    return first - starts


# At a temperature so small that delta * unit / temperature overflows, an
# uphill move's threshold is -inf and no uniform passes it: that is the
# exact T -> 0 limit of the acceptance probability 2**(-delta / T) for
# delta > 0. A downhill move is accepted by delta < 0 whatever its +inf
# threshold, and a level one's threshold is zero at any T, which is why
# a free move can be folded out at every temperature.
@np.errstate(over="ignore")
def mcmc_sweep(batch: _Batch, pairs: np.ndarray, log2_u: np.ndarray, temperature: float) -> None:
    """Advance a batch of Metropolis chains through their steps, in place.

    Step j of chain c proposes to transpose entries (pairs[0, c, j],
    pairs[1, c, j]) of its mapping; log2_u is log2 of the acceptance
    uniform. A step rescores only the windows that hold either cipher
    letter. Each chain's accepted proposals are added to its count.

    Free moves are folded out first (see _fold), and each chain then
    advances in rounds of its own (see the module docstring): a round
    scores its next _LOOK_AHEAD folded proposals, or those it has left
    if fewer. The sweep returns when every chain has passed its last
    step, with each chain's mappings true ones.
    """
    fold = _fold(batch, pairs, log2_u)
    live = fold.count > 0
    at, end = fold.base[live], (fold.base + fold.count)[live]  # each live chain's next row
    while at.size:
        width = np.minimum(end - at, _LOOK_AHEAD)
        starts = width.cumsum() - width
        rows = np.repeat(at - starts, width)
        rows += np.arange(rows.size)
        at += np.minimum(_round(batch, fold, rows, starts, temperature) + 1, width)
        if (at == end).any():
            keep = at < end
            at, end = at[keep], end[keep]
    ends = fold.sigma[fold.moves, np.arange(fold.moves.size)]
    batch.inv[...] = np.take_along_axis(batch.inv, ends, axis=1)
    batch.accepted[...] += fold.moves


def _streams(seed: int, chain: int, g: int, iterations: int):
    """Three generators, each at the start of one of the streams that
    three whole calls on default_rng((seed, chain)) would draw: first
    letters, raw second letters, acceptance uniforms. Draws do not
    depend on how a stream is split into calls, so the second and third
    generators skip the stream before their own in pieces."""
    gen_a, gen_b, gen_u = (np.random.default_rng((seed, chain)) for _ in range(3))
    for gen, high in ((gen_b, g), (gen_u, g - 1)):
        gen.bit_generator.state = gen_b.bit_generator.state
        for start in range(0, iterations, _SKIP):
            gen.integers(0, high, size=min(_SKIP, iterations - start))
    return gen_a, gen_b, gen_u


def _crack_jobs(jobs, config: AttackConfig) -> list[AttackResult]:
    """Crack each (ciphertext, seed, true key or None) job with
    restarts+1 chains, all advancing as one batch. No job's result
    depends on the rest of its batch."""
    model = config.model
    g = model.alphabet.size
    nll_flat = model.nll_flat
    per_job = config.restarts + 1
    iters = config.iterations
    every = config.checkpoint_interval

    job_windows = [_cipher_windows(ct, model.order, g) for ct, _, _ in jobs]
    starts = [_frequency_start(ct, model) for ct, _, _ in jobs]
    batch = _start_chains(job_windows, np.repeat(starts, per_job, axis=0), nll_flat, g, per_job)
    chains = len(batch.score)

    # reported scores are float rescores of best keys, made when they change
    bits = np.repeat([_score_bits(*w, nll_flat, g, v) for w, v in zip(job_windows, starts)],
                     per_job)
    trace = np.empty((chains, 1 + math.ceil(iters / every)))
    trace[:, 0] = bits
    recorded = batch.best_score.copy()
    streams = [_streams(seed, i, g, iters) for _, seed, _ in jobs for i in range(per_job)]
    # refilled in place: fresh rows at every refill raised peak RSS over repeated runs
    pairs = np.empty((2, chains, min(_BLOCK, iters)), dtype=np.int64)
    log2_u = np.empty(pairs.shape[1:])
    for start in range(0, iters, _BLOCK):
        size = min(_BLOCK, iters - start)
        for c, (gen_a, gen_b, gen_u) in enumerate(streams):
            pairs[0, c, :size] = gen_a.integers(0, g, size)
            pairs[1, c, :size] = gen_b.integers(0, g - 1, size)
            gen_u.random(out=log2_u[c, :size])
        pairs[1, :, :size] += pairs[1, :, :size] >= pairs[0, :, :size]
        np.log2(log2_u[:, :size], out=log2_u[:, :size])
        # sweep to each checkpoint inside the refill, then to its end
        cuts = [*range(start // every * every + every, start + size, every), start + size]
        for lo, hi in zip([start, *cuts], cuts):
            cols = slice(lo - start, hi - start)
            mcmc_sweep(batch, pairs[:, :, cols], log2_u[:, cols], config.temperature)
            if hi % every == 0 or hi == iters:
                for c in np.flatnonzero(batch.best_score != recorded):
                    bits[c] = _score_bits(*job_windows[c // per_job], nll_flat, g,
                                          batch.best_inv[c])
                recorded[:] = batch.best_score
                trace[:, math.ceil(hi / every)] = bits

    results = []
    for j, (ciphertext, seed, true_key) in enumerate(jobs):
        rows = slice(j * per_job, (j + 1) * per_job)
        winner = int(np.argmin(bits[rows]))
        found = batch.best_inv[j * per_job + winner]
        best_key = SubstitutionKey(np.argsort(found))
        key_acc = None
        plain_acc = None
        if true_key is not None:
            key_acc = float((best_key.mapping == true_key.mapping).mean())
            truth = decrypt(true_key, ciphertext)
            plain_acc = float((found[ciphertext] == truth).mean())
        results.append(
            AttackResult(
                best_key=best_key,
                best_score_bits=float(bits[rows][winner]),
                score_trace=np.minimum.accumulate(trace[rows].ravel()),
                key_accuracy=key_acc,
                plaintext_accuracy=plain_acc,
                iterations=iters,
                restarts=config.restarts,
                seed=seed,
                acceptance_rates=tuple((batch.accepted[rows] / iters).tolist()),
                best_restart=winner,
            )
        )
    return results


def mcmc_crack(
    ciphertext: np.ndarray,
    config: AttackConfig,
    true_key: SubstitutionKey | None = None,
) -> AttackResult:
    """Run restarts+1 independent Metropolis chains and return the best
    key found. Accuracies are filled in when the true key is supplied."""
    ciphertext = check_codes(ciphertext, config.model.alphabet.size)
    if ciphertext.size < config.model.order:
        raise ValueError("ciphertext shorter than the scoring model order")
    return _crack_jobs([(ciphertext, config.seed, true_key)], config)[0]


def _trial_job(corpus, space, seed, length, run_index):
    """The (ciphertext, attack seed, true key) of one curve trial."""
    ss = np.random.SeedSequence(entropy=(seed, run_index))
    sample_seq, attack_seq = ss.spawn(2)
    rng = np.random.default_rng(sample_seq)
    offset = int(rng.integers(0, corpus.size - length + 1))
    plaintext = corpus[offset : offset + length]
    true_key = space.sample(rng)
    attack_seed = int(attack_seq.generate_state(1, np.uint64)[0])
    return encrypt(true_key, plaintext), attack_seed, true_key


def recovery_curve(
    lengths: Sequence[int],
    trials_per_length: int,
    config: AttackConfig,
    corpus: np.ndarray,
    space: KeySpace,
) -> tuple[tuple[AttackResult, ...], ...]:
    """Attack trials_per_length fresh (plaintext slice, uniform key)
    pairs at each of the distinct lengths. Returns one tuple of cracks
    per length, in the order given, each in trial order."""
    lengths = list(lengths)
    if not lengths:
        raise UsageError("lengths must be nonempty")
    if len(set(lengths)) < len(lengths):
        raise UsageError(f"lengths must be distinct, got {lengths}")
    if trials_per_length < 1:
        raise UsageError(f"trials_per_length must be >= 1, got {trials_per_length}")
    if min(lengths) < config.model.order:
        raise UsageError(f"lengths must be at least the model order {config.model.order}, "
                         f"got {min(lengths)}")
    corpus = np.asarray(corpus, dtype=np.int64)
    if corpus.size < max(lengths):
        raise ValueError(f"corpus ({corpus.size} letters) shorter than the longest "
                         f"requested length {max(lengths)}")

    jobs = [
        _trial_job(corpus, space, config.seed, n, i)
        for i, n in enumerate(np.repeat(lengths, trials_per_length).tolist())
    ]
    # batches of whole cracks, at most _BATCH_CHAINS chains each
    per_batch = max(1, _BATCH_CHAINS // (config.restarts + 1))
    results = []
    for i in range(0, len(jobs), per_batch):
        results += _crack_jobs(jobs[i : i + per_batch], config)
    return tuple(tuple(results[i : i + trials_per_length])
                 for i in range(0, len(results), trials_per_length))
