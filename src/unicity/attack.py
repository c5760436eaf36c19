"""Metropolis-Hastings key recovery for substitution ciphers.

The walker scores candidate decryptions with an n-gram model (bigram by
default), proposes random transpositions of the current key, and keeps
the best key seen. The chains of a crack, and of a recovery curve's
trials in groups, advance in lock-step along a batch axis. A chain holds
the n-gram code of each distinct window of its decrypted ciphertext, so
a transposition is scored from the few windows it moves (after Jakobsen
1995), in exact fixed-point integers; the work per step follows the
text, not the number of n-grams.

The batch advances in rounds. A round scores the next k proposals of
every chain from the chains' current states. The batch then moves to
the first step at which any chain accepts, and only the chains that
accept there take their move. This is the step-at-a-time walk bit for
bit: no chain moves before that step, so every earlier proposal was
scored from the state the walk would have had, and rejected. Once the
chains have settled they reject almost every proposal, and one round
covers many steps (pre-fetching, after Brockwell 2006).

A batch of up to _BATCH_CHAINS // 2 chains looks ahead: its rounds
score C * k rows, row (c, i) a copy of chain c's code row trying its
proposal i, from letter window lists padded to the longest. A larger
batch has no room to look ahead and scores one step per round, in
place. Its chains' window lists are ragged runs, and a sweep lays out
the runs its steps score a piece of many steps at a time, as the
proposals are drawn before the sweep starts, so each step scores only
real windows.

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
# most slots laid out at once by a sweep that scores one step per round,
# unless a single step needs more
_PIECE_SLOTS = 1 << 13


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
        if self.temperature <= 0:
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

    Run row[c] + a belongs to cipher letter a in chain c's ciphertext,
    and chains of one ciphertext share their runs. Its slots list the
    windows that hold a: in three planes, each window's column in the
    code row, the sum of the place values at which it holds a, and how
    often it occurs. Every run leads with one slot on the last column,
    a window of count zero, so no run is empty. Costs are fixed point:
    chain c counts in units of unit[c] bits, and its codes are offset
    into the block of cost that holds the model's costs in those units.

    A batch of more than _BATCH_CHAINS // 2 chains scores one step per
    round. It keeps its runs end to end in store, run r in slots
    start[r] to start[r] + length[r] - 1, and a sweep lays out the runs
    its steps score at most budget slots at a time. A smaller batch
    looks ahead: row r of lists holds run r's windows, padded to the
    longest with copies of its lead slot, and rounds holds the work
    views, in one room, of every round width k = 1 to its cap."""

    code: np.ndarray  # (C, code width) int64
    inv: np.ndarray  # (C, g) int64
    score: np.ndarray  # (C,) int64
    best_inv: np.ndarray
    best_score: np.ndarray
    accepted: np.ndarray  # (C,) int64
    row: np.ndarray  # (C,)
    cost: np.ndarray  # (scales * g**order,) int64
    unit: np.ndarray  # (C,) bits per unit, a power of two
    store: np.ndarray | None  # (3, slots) int64, when scoring one step per round
    start: np.ndarray  # (ciphertexts * g,)
    length: np.ndarray  # (ciphertexts * g,) slots of each run, its lead included
    budget: int  # most slots in a piece of a one-step sweep
    lists: np.ndarray | None  # (3, ciphertexts * g, M) int64, when looking ahead
    rounds: tuple  # mcmc_sweep's _Round views of room, for widths k = 1 to its cap


def _letter_windows(wins: np.ndarray, g: int):
    """(letter, window, place sum) for each window and each letter it
    holds, by letter: the place sum adds the place values at which the
    window holds the letter, the code of the window's indicator row."""
    places = encode_rows(wins == np.arange(g)[:, None, None], g)
    a, w = np.nonzero(places)
    return a, w, places[a, w]


def _start_chains(windows, inv0: np.ndarray, nll_flat: np.ndarray, g: int, per_job: int = 1):
    """The batch in which chains i * per_job to i * per_job + per_job - 1
    walk over the ciphertext windows windows[i], a (wins, wcounts) pair,
    chain c from mapping inv0[c], at its start: each chain's best is its
    start, and no state array shares memory with another or with inv0."""
    job = np.arange(len(windows)).repeat(per_job)
    chains = job.size
    width = 1 + max(wins.shape[0] for wins, _ in windows)  # the last column pads
    runs = []  # each ciphertext's runs, letter by letter: (3, slots) planes and lengths
    for wins, wcounts in windows:
        a, w, place = _letter_windows(wins, g)
        planes = np.zeros((3, g + a.size), dtype=np.int64)
        planes[0] = width - 1
        # letter a's windows follow the runs of the letters before it and their leads
        planes[:, np.arange(a.size) + a + 1] = w, place, wcounts[w]
        runs.append((planes, np.bincount(a, minlength=g) + 1))
    store = np.concatenate([planes for planes, _ in runs], axis=1)
    length = np.concatenate([lengths for _, lengths in runs])
    start = np.cumsum(length) - length
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
    # a step scores one run of each of its two letters in every chain
    widest = 2 * int(length.reshape(-1, g).max(axis=1)[job].sum())
    lists, rounds = None, ()
    cap = _BATCH_CHAINS // chains
    if cap > 1:
        longest = int(length.max()) - 1
        at = np.arange(longest)
        slots = np.where(at < length[:, None] - 1, start[:, None] + 1 + at, start[:, None])
        # take, unlike store[:, slots], returns lists C-contiguous, which
        # each round's take from them needs to keep the crack's pace
        lists, store = store.take(slots, axis=1), None
        # the widest round scores k steps of every chain, with C * k <=
        # _BATCH_CHAINS: 7 arrays of (2, C * k, M) and copies of the C * k
        # code rows
        room = np.empty(chains * cap * (14 * longest + width), dtype=np.int64)
        rounds = tuple(_round(room, (chains, k), longest, width) for k in range(1, cap + 1))
    return _Batch(
        code, inv, score, inv.copy(), score.copy(), np.zeros(chains, dtype=np.int64),
        job * g, cost, np.ldexp(1.0, -ks[job]), store, start, length,
        max(_PIECE_SLOTS, widest), lists, rounds,
    )


class _Round(NamedTuple):
    """Work arrays of a look-ahead round of width k, whose rows have
    shape (C, k): row (c, i) is a copy of chain c's code row trying its
    proposal i. Each pair holds the views for letter a's windows and
    for letter b's."""

    picked: np.ndarray  # (3, 2, C, k, M): windows, place sums, counts
    cells: np.ndarray  # the window plane, made each window's index into the copies
    cell: tuple
    places: tuple
    counts: np.ndarray
    moves: np.ndarray  # (2, 2, C, k, M): window codes after, then before
    after: tuple
    before: tuple
    costs: np.ndarray  # the costs of moves
    base: np.ndarray  # each row's offset into the flat copies
    copies: np.ndarray  # (C, k, code width) code rows


def _round(room: np.ndarray, lead: tuple, m: int, code_width: int) -> _Round:
    """The work arrays of a round whose rows have shape lead, with
    letter lists of width m, as views of room."""
    rows = math.prod(lead)
    shape = (2, *lead, m)
    n = math.prod(shape)
    picked = room[: 3 * n].reshape(3, *shape)
    moves = room[3 * n : 5 * n].reshape(2, *shape)
    return _Round(
        picked, picked[0], tuple(picked[0]), tuple(picked[1]), picked[2], moves,
        tuple(moves[0]), tuple(moves[1]), room[5 * n : 7 * n].reshape(2, *shape),
        np.arange(rows).reshape(*lead, 1) * code_width,
        room[7 * n : 7 * n + rows * code_width].reshape(*lead, code_width),
    )


def _move_and_score(target, index, shift, work: _Round, batch: _Batch):
    """Score one proposal per row of target, the flat code-row copies of
    a look-ahead round, given the list rows to index: move letter a's
    windows (x -> y) in place, then letter b's (y -> x) from there. A
    window holding both letters is moved by both, and its two cost
    changes add up to the right total. Letter b's move is left
    unwritten. Returns each row's cost change."""
    picked, cells, (cell_a, cell_b), (places_a, places_b), counts, moves, \
        (after_a, after_b), (before_a, before_b), costs, base, _ = work
    # the takes use mode="clip" only because numpy buffers `out` under
    # the default mode; every index is in range
    batch.lists.take(index, axis=1, out=picked, mode="clip")
    cells += base
    target.take(cell_a, out=before_a, mode="clip")
    np.multiply(places_a, shift, out=after_a)
    after_a += before_a
    target[cell_a] = after_a
    target.take(cell_b, out=before_b, mode="clip")
    np.multiply(places_b, shift, out=after_b)
    np.subtract(before_b, after_b, out=after_b)
    batch.cost.take(moves, out=costs, mode="clip")
    gain, lost = costs
    np.subtract(gain, lost, out=gain)
    return np.einsum("ijkl,ijkl->jk", counts, gain)


def _lay_out(batch: _Batch, runs: np.ndarray, lengths: np.ndarray, shifts: np.ndarray, out):
    """The store's slots of runs, laid end to end in out, a flat array:
    (cells, place sums, counts), with each run's window columns moved by
    its entry of shifts into its chain's flat code row, and the offset
    at which each run starts."""
    offsets = lengths.cumsum() - lengths
    index = np.repeat(batch.start[runs] - offsets, lengths)
    index += np.arange(index.size)
    # mode="clip" keeps numpy from buffering out, as in _move_and_score
    planes = batch.store.take(index, axis=1, out=out[: 3 * index.size].reshape(3, -1),
                              mode="clip")
    planes[0] += np.repeat(shifts, lengths)
    return (*planes, offsets)


def _take_moves(batch: _Batch, c, moved, image, delta) -> None:
    """Settle the moves that chains c accept, whose window codes are
    already written: entries moved of the flat mappings, letter a's of
    every chain and then letter b's, take the values in image."""
    both = np.concatenate((c, c + batch.inv.shape[0]))
    batch.inv.reshape(-1)[moved[both]] = image[both]
    batch.score[c] += delta[c]
    batch.accepted[c] += 1
    better = c[batch.score[c] < batch.best_score[c]]
    if better.size:
        batch.best_score[better] = batch.score[better]
        batch.best_inv[better] = batch.inv[better]


# At a temperature so small that delta * unit / temperature overflows, an
# uphill move's threshold is -inf and no uniform passes it: that is the
# exact T -> 0 limit of the acceptance probability 2**(-delta / T) for
# delta > 0. A downhill move is accepted by delta < 0 whatever its +inf
# threshold, and a level one's threshold is zero at any T.
@np.errstate(over="ignore")
def mcmc_sweep(batch: _Batch, pairs: np.ndarray, log2_u: np.ndarray, temperature: float) -> None:
    """Advance a batch of Metropolis chains in lock-step, in place.

    Step j of chain c proposes to transpose entries (pairs[0, c, j],
    pairs[1, c, j]) of its mapping; log2_u is log2 of the acceptance
    uniform. A step rescores only the windows that hold either cipher
    letter. Each chain's accepted proposals are added to its count.

    A batch of more than _BATCH_CHAINS // 2 chains scores one step per
    round, in place. A smaller batch advances in rounds of k steps (see
    the module docstring). k starts at its cap, the largest k with
    C * k <= _BATCH_CHAINS. It doubles, up to the cap, after a round in
    which no chain accepts, and halves when some chain accepts the
    round's first step. A round never passes the last step.
    """
    (_look_ahead if batch.rounds else _one_step)(batch, pairs, log2_u, temperature)


def _one_step(batch: _Batch, pairs: np.ndarray, log2_u: np.ndarray, temperature: float) -> None:
    """mcmc_sweep for a batch that scores one step per round, in place.
    A piece of whole steps is laid out at once, at most the batch's
    budget of slots: step by step, letter a's run of every chain, then
    letter b's. A step moves letter a's windows (x -> y) in place, then
    letter b's (y -> x) from there, as _move_and_score does, and undoes
    letter a's move in the chains that reject it."""
    chains, steps = pairs.shape[1:]
    flat = batch.code.reshape(-1)
    inv, cost, neg_unit = batch.inv.reshape(-1), batch.cost, -batch.unit
    g = batch.inv.shape[1]
    held = np.arange(chains)
    # per run of a step: its ciphertext's first run, its chain's offsets
    # into the flat mappings and the flat code rows
    rows, maps = np.tile(batch.row, 2), np.tile(held * g, 2)
    shifts = np.tile(held * batch.code.shape[1], 2)
    swap = np.roll(np.arange(2 * chains), chains)  # each run's other letter
    tops = batch.length[pairs + batch.row[:, None]].sum(axis=(0, 1)).cumsum()
    out = np.empty(3 * batch.budget, dtype=np.int64)
    p = 0
    while p < steps:
        q = int(np.searchsorted(tops, (tops[p - 1] if p else 0) + batch.budget, side="right"))
        letters = pairs[:, :, p:q].transpose(2, 0, 1).reshape(q - p, 2 * chains)
        runs = letters + rows
        lengths = batch.length[runs]
        cells, places, counts, offsets = _lay_out(
            batch, runs.ravel(), lengths.ravel(), np.tile(shifts, q - p), out
        )
        offsets = offsets.reshape(lengths.shape)
        bounds = [*offsets[:, 0].tolist(), cells.size]
        splits = offsets[:, chains].tolist()
        offsets -= offsets[:, :1]
        moved = letters + maps
        for j, run, starts, mv, lo, split, hi in zip(
            range(p, q), lengths, offsets, moved, bounds, splits, bounds[1:]
        ):
            old = inv.take(mv)  # x for letter a, y for letter b
            new = old.take(swap)
            moves = np.empty((2, hi - lo), dtype=np.int64)
            after, before = moves
            np.multiply(places[lo:hi], (new - old).repeat(run), out=after)
            cell_a, cell_b = cells[lo:split], cells[split:hi]
            after_a, after_b = after[: split - lo], after[split - lo :]
            before_a, before_b = before[: split - lo], before[split - lo :]
            flat.take(cell_a, out=before_a, mode="clip")
            after_a += before_a
            flat[cell_a] = after_a
            flat.take(cell_b, out=before_b, mode="clip")
            after_b += before_b
            gain, lost = cost.take(moves)
            gain -= lost
            gain *= counts[lo:hi]
            total = np.add.reduceat(gain, starts)
            delta = total[:chains] + total[chains:]
            accept = (delta < 0) | (log2_u[:, j] < delta * neg_unit / temperature)
            # undo letter a's move where rejected
            np.copyto(after_a, before_a, where=(~accept).repeat(run[:chains]))
            flat[cell_a] = after_a
            c = accept.nonzero()[0]
            if c.size:
                keep = accept.repeat(run[chains:])
                flat[cell_b[keep]] = after_b[keep]
                _take_moves(batch, c, mv, new, delta)
        p = q


def _look_ahead(batch: _Batch, pairs: np.ndarray, log2_u: np.ndarray, temperature: float) -> None:
    """mcmc_sweep for a batch that looks ahead, in rounds of k steps."""
    code, inv = batch.code, batch.inv
    steps = pairs.shape[2]
    cap = len(batch.rounds)  # k of the widest round
    runs = pairs + batch.row[:, None]  # the runs of each proposal's letters
    held = np.arange(code.shape[0])[:, None]
    maps = held.T * inv.shape[1]  # each chain's offset into the flat mappings
    unit = batch.unit[:, None]
    k = cap
    p = 0
    while p < steps:
        width = min(k, steps - p)
        work = batch.rounds[width - 1]
        now = slice(p, p + width)
        work.copies[...] = code[:, None, :]
        target = work.copies.reshape(-1)
        a, b = pairs[:, :, now]
        x = inv[held, a]
        y = inv[held, b]
        delta = _move_and_score(target, runs[:, :, now], (y - x)[..., None], work, batch)
        accept = (delta < 0) | (log2_u[:, now] < -delta * unit / temperature)
        first = int(accept.any(axis=0).argmax())
        c = np.flatnonzero(accept[:, first])
        if not c.size:
            p += width
            k = min(2 * k, cap)
            continue
        target[work.cell[1][c, first]] = work.after[1][c, first]
        code[c] = work.copies[c, first]
        _take_moves(batch, c, (pairs[:, :, p + first] + maps).ravel(),
                    np.concatenate((y[:, first], x[:, first])), delta[:, first])
        p += first + 1
        if first == 0:
            k = max(k // 2, 1)


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
