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
every chain from the chains' current states, as C * k rows: at k = 1
the rows are the chains themselves, scored in place; above, row (c, i)
is a copy of chain c's code row trying its proposal i. The batch then
moves to the first step at which any chain accepts, and only the chains
that accept there take their move. This is the step-at-a-time walk bit
for bit: no chain moves before that step, so every earlier proposal was
scored from the state the walk would have had, and rejected. Once the
chains have settled they reject almost every proposal, and one round
covers many steps (pre-fetching, after Brockwell 2006).

Runs are deterministic given the seed. Chain c of a crack seeded s draws
its proposals from default_rng((s, c)): every first letter, then every
second letter, then every acceptance uniform, from three generators
positioned at the starts of the three streams and refilled _BLOCK at a
time as the batch advances. Per-run generators in sweeps derive from
(seed, run index), so each trial's result depends only on the seed and
its place in the sweep, not on the rest of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cipher import KeySpace, SubstitutionKey, encrypt
from .lang import NGramModel, decode_codes, encode_rows

# proposals drawn per chain and stream in one refill
_BLOCK = 200
# most draws per call when a generator skips a stream, bounding its memory
_SKIP = 1 << 16
# most chains advanced as one batch: a recovery curve runs its trials in
# groups of whole cracks, so memory does not grow with the trial count
_BATCH_CHAINS = 64


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
            raise ValueError("attack model must have order >= 2")
        if self.model.alphabet.size < 2:
            raise ValueError("attack needs at least 2 letters to propose transpositions")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")


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
class _Scoring:
    """Delta-scoring tables of a batch of chains.

    Row row[c] + a of lists belongs to cipher letter a in chain c's
    ciphertext. Its three planes list the windows that hold a, the sum
    of the place values at which each holds it, and how often each
    occurs; short rows are padded with the last column of the chain's
    code row, a window of count zero. Costs are fixed point: chain c
    counts in units of unit[c] bits, and its codes are offset into the
    block of cost that holds the model's costs in those units."""

    lists: np.ndarray  # (3, ciphertexts * g, M) int64
    row: np.ndarray  # (C,)
    cost: np.ndarray  # (scales * g**order,) int64
    unit: np.ndarray  # (C,) bits per unit, a power of two
    room: np.ndarray  # flat room for the work arrays of mcmc_sweep's widest round
    copies: np.ndarray  # flat room for that round's C * k code rows, empty at k = 1
    rounds: dict = field(default_factory=dict)  # views of room and copies, by row shape


def _letter_windows(wins: np.ndarray, g: int):
    """(letter, window, place sum) for each window and each letter it
    holds, by letter: the place sum adds the place values at which the
    window holds the letter, the code of the window's indicator row."""
    places = encode_rows(wins == np.arange(g)[:, None, None], g)
    a, w = np.nonzero(places)
    return a, w, places[a, w]


def _start_chains(windows, inv0: np.ndarray, nll_flat: np.ndarray, g: int, per_job: int = 1):
    """Scoring tables and start state of a batch in which chains
    i * per_job to i * per_job + per_job - 1 walk over the ciphertext
    windows windows[i], a (wins, wcounts) pair, chain c from mapping
    inv0[c]. Returns (the cost index of each window of each chain's
    decryption, fixed-point scores, scoring tables)."""
    job = np.arange(len(windows)).repeat(per_job)
    width = 1 + max(wins.shape[0] for wins, _ in windows)  # the last column pads
    held = [_letter_windows(wins, g) for wins, _ in windows]
    longest = max(int(np.bincount(a).max()) for a, _, _ in held)
    lists = np.zeros((3, len(windows) * g, longest), dtype=np.int64)
    lists[0] = width - 1
    for i, ((_, wcounts), (a, w, place)) in enumerate(zip(windows, held)):
        at = (i * g + a, np.arange(a.size) - np.searchsorted(a, a))
        lists[(0, *at)] = w
        lists[(1, *at)] = place
        lists[(2, *at)] = wcounts[w]
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
    # mcmc_sweep's widest round scores k steps of every chain, with
    # C * k <= _BATCH_CHAINS, and at k > 1 works on copies of code rows
    most = job.size * max(1, _BATCH_CHAINS // job.size)
    scoring = _Scoring(
        lists=lists,
        row=job * g,
        cost=np.concatenate([np.rint(np.ldexp(nll_flat, k)).astype(np.int64) for k in levels]),
        unit=np.ldexp(1.0, -ks[job]),
        room=np.empty(7 * 2 * most * longest, dtype=np.int64),  # 7 arrays of (2, rows, M)
        copies=np.empty((most if most > job.size else 0) * width, dtype=np.int64),
    )
    code = np.repeat(level[job, None] * nll_flat.size, width, axis=1)
    score = np.zeros(job.size, dtype=np.int64)
    for c, i in enumerate(job):
        wins, wcounts = windows[i]
        code[c, : wins.shape[0]] += encode_rows(inv0[c][wins], g)
        score[c] = wcounts.astype(np.int64) @ scoring.cost[code[c, : wins.shape[0]]]
    return code, score, scoring


class _Round(NamedTuple):
    """Work arrays of a round whose rows have shape lead: (C,) at k = 1,
    (C, k) above. Each pair holds the views for letter a's windows and
    for letter b's."""

    picked: np.ndarray  # (3, 2, *lead, M): windows, place sums, counts
    cells: np.ndarray  # the window plane, made each window's index into the rows
    cell: tuple
    places: tuple
    counts: np.ndarray
    moves: np.ndarray  # (2, 2, *lead, M): window codes after, then before
    after: tuple
    before: tuple
    costs: np.ndarray  # the costs of moves
    base: np.ndarray  # each row's offset into the flat rows
    total: str  # the einsum that sums a row's cost change
    copies: np.ndarray | None  # (C, k, code width) code rows at k > 1


def _round(scoring: _Scoring, lead: tuple, code_width: int) -> _Round:
    """The work arrays of a round whose rows have shape lead, made on
    first use as views of the batch's room."""
    if lead not in scoring.rounds:
        rows = math.prod(lead)
        shape = (2, *lead, scoring.lists.shape[2])
        n = math.prod(shape)
        picked = scoring.room[: 3 * n].reshape(3, *shape)
        moves = scoring.room[3 * n : 5 * n].reshape(2, *shape)
        axes = "jk"[: len(lead)]
        scoring.rounds[lead] = _Round(
            picked, picked[0], tuple(picked[0]), tuple(picked[1]), picked[2], moves,
            tuple(moves[0]), tuple(moves[1]), scoring.room[5 * n : 7 * n].reshape(2, *shape),
            np.arange(rows).reshape(*lead, 1) * code_width,
            f"i{axes}l,i{axes}l->{axes}",
            scoring.copies[: rows * code_width].reshape(*lead, code_width)
            if len(lead) > 1 else None,
        )
    return scoring.rounds[lead]


def _move_and_score(target, index, shift, work: _Round, scoring: _Scoring):
    """Score one proposal per row of target, a flat array of code rows,
    given the list rows to index: move letter a's windows (x -> y) in
    place, then letter b's (y -> x) from there. A window holding both
    letters is moved by both, and its two cost changes add up to the
    right total. Letter b's move is left unwritten. Returns each row's
    cost change."""
    picked, cells, (cell_a, cell_b), (places_a, places_b), counts, moves, \
        (after_a, after_b), (before_a, before_b), costs, base, total, _ = work
    # the takes use mode="clip" only because numpy buffers `out` under
    # the default mode; every index is in range
    scoring.lists.take(index, axis=1, out=picked, mode="clip")
    cells += base
    target.take(cell_a, out=before_a, mode="clip")
    np.multiply(places_a, shift, out=after_a)
    after_a += before_a
    target[cell_a] = after_a
    target.take(cell_b, out=before_b, mode="clip")
    np.multiply(places_b, shift, out=after_b)
    np.subtract(before_b, after_b, out=after_b)
    scoring.cost.take(moves, out=costs, mode="clip")
    gain, lost = costs
    np.subtract(gain, lost, out=gain)
    return np.einsum(total, counts, gain)


# At a temperature so small that delta * unit / temperature overflows, an
# uphill move's threshold is -inf and no uniform passes it: that is the
# exact T -> 0 limit of the acceptance probability 2**(-delta / T) for
# delta > 0. A downhill move is accepted by delta < 0 whatever its +inf
# threshold, and a level one's threshold is -0.0 at any T.
@np.errstate(over="ignore")
def mcmc_sweep(
    code: np.ndarray,
    inv: np.ndarray,
    score: np.ndarray,
    best_inv: np.ndarray,
    best_score: np.ndarray,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    log2_u: np.ndarray,
    scoring: _Scoring,
    temperature: float,
) -> np.ndarray:
    """Advance a batch of Metropolis chains in lock-step, in place.

    Row c of every array is chain c: code indexes the cost of each
    window of its decrypted ciphertext, inv is its ciphertext->plaintext
    mapping, score the fixed-point cost of inv, and best_inv/best_score
    the best mapping seen. Step j proposes to transpose entries
    (pair_a[c, j], pair_b[c, j]) of inv; log2_u is log2 of the acceptance
    uniform. A step rescores only the windows that hold either cipher
    letter. code must be C-contiguous, as it is updated through a flat
    view. Returns the number of proposals each chain accepted.

    The batch advances in rounds of k steps (see the module docstring).
    k starts at its cap, the largest k with C * k <= _BATCH_CHAINS. It
    doubles, up to the cap, after a round in which no chain accepts, and
    halves when some chain accepts the round's first step. A round never
    passes the last step.
    """
    chains, code_width = code.shape
    steps = pair_a.shape[1]
    cap = max(1, scoring.copies.size // code.size)  # k of the widest round
    flat = code.reshape(-1)
    rows = np.stack([pair_a, pair_b])  # the list rows of each proposal's letters
    rows += scoring.row[:, None]
    held = np.arange(chains)
    single = _round(scoring, (chains,), code_width)
    accepted = np.zeros(chains, dtype=np.int64)
    k = cap
    p = 0
    while p < steps:
        width = min(k, steps - p)
        if width == 1:
            now = p
            target = flat  # the rows are the chains themselves
            ahead = held
            unit = scoring.unit
            work = single
        else:
            now = slice(p, p + width)
            work = _round(scoring, (chains, width), code_width)
            work.copies[...] = code[:, None, :]
            target = work.copies.reshape(-1)
            ahead = held[:, None]
            unit = scoring.unit[:, None]
        a = pair_a[:, now]
        b = pair_b[:, now]
        x = inv[ahead, a]
        y = inv[ahead, b]
        delta = _move_and_score(target, rows[:, :, now], (y - x)[..., None], work, scoring)
        accept = (delta < 0) | (log2_u[:, now] < -delta * unit / temperature)
        if width == 1:
            np.copyto(work.after[0], work.before[0], where=~accept[:, None])
            flat[work.cell[0]] = work.after[0]  # undo letter a's move where rejected
            first = 0
            c = np.flatnonzero(accept)
        else:
            first = int(accept.any(axis=0).argmax())
            c = np.flatnonzero(accept[:, first])
        if not c.size:
            p += width
            k = min(2 * k, cap)
            continue
        if width == 1:
            flat[work.cell[1][c]] = work.after[1][c]
        else:
            target[work.cell[1][c, first]] = work.after[1][c, first]
            code[c] = work.copies[c, first]
            a, b, x, y, delta = (v[:, first] for v in (a, b, x, y, delta))
        inv[c, a[c]] = y[c]
        inv[c, b[c]] = x[c]
        score[c] += delta[c]
        accepted[c] += 1
        better = c[score[c] < best_score[c]]
        if better.size:
            best_score[better] = score[better]
            best_inv[better] = inv[better]
        p += first + 1
        if first == 0:
            k = max(k // 2, 1)
    return accepted


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
    inv = np.repeat(starts, per_job, axis=0)
    code, score, scoring = _start_chains(job_windows, inv, nll_flat, g, per_job)
    best_inv = inv.copy()
    best_score = score.copy()
    accepts = np.zeros(len(inv), dtype=np.int64)

    # reported scores are float rescores of best keys, made when they change
    bits = np.repeat([_score_bits(*w, nll_flat, g, v) for w, v in zip(job_windows, starts)],
                     per_job)
    trace = np.empty((len(inv), 1 + math.ceil(iters / every)))
    trace[:, 0] = bits
    recorded = best_score.copy()
    streams = [_streams(seed, i, g, iters) for _, seed, _ in jobs for i in range(per_job)]
    # refilled in place: fresh rows at every refill raised peak RSS over repeated runs
    pair_a, pair_b = np.empty((2, len(inv), min(_BLOCK, iters)), dtype=np.int64)
    log2_u = np.empty(pair_a.shape)
    for start in range(0, iters, _BLOCK):
        size = min(_BLOCK, iters - start)
        for c, (gen_a, gen_b, gen_u) in enumerate(streams):
            pair_a[c, :size] = gen_a.integers(0, g, size)
            pair_b[c, :size] = gen_b.integers(0, g - 1, size)
            gen_u.random(out=log2_u[c, :size])
        pair_b[:, :size] += pair_b[:, :size] >= pair_a[:, :size]
        np.log2(log2_u[:, :size], out=log2_u[:, :size])
        # sweep to each checkpoint inside the refill, then to its end
        cuts = [*range(start // every * every + every, start + size, every), start + size]
        for lo, hi in zip([start, *cuts], cuts):
            cols = slice(lo - start, hi - start)
            accepts += mcmc_sweep(
                code, inv, score, best_inv, best_score, pair_a[:, cols], pair_b[:, cols],
                log2_u[:, cols], scoring, config.temperature,
            )
            if hi % every == 0 or hi == iters:
                for c in np.flatnonzero(best_score != recorded):
                    bits[c] = _score_bits(*job_windows[c // per_job], nll_flat, g, best_inv[c])
                recorded[:] = best_score
                trace[:, math.ceil(hi / every)] = bits

    results = []
    for j, (ciphertext, seed, true_key) in enumerate(jobs):
        rows = slice(j * per_job, (j + 1) * per_job)
        winner = int(np.argmin(bits[rows]))
        found = best_inv[j * per_job + winner]
        best_key = SubstitutionKey(np.argsort(found))
        key_acc = None
        plain_acc = None
        if true_key is not None:
            key_acc = float((best_key.mapping == true_key.mapping).mean())
            truth = true_key.inverse().mapping[ciphertext]
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
                acceptance_rates=tuple((accepts[rows] / iters).tolist()),
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
    ciphertext = np.asarray(ciphertext, dtype=np.int64)
    g = config.model.alphabet.size
    if ciphertext.size < config.model.order:
        raise ValueError("ciphertext shorter than the scoring model order")
    if ciphertext.min() < 0 or ciphertext.max() >= g:
        raise ValueError("ciphertext code outside the model alphabet")
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
        raise ValueError("lengths must be nonempty")
    if len(set(lengths)) < len(lengths):
        raise ValueError("lengths must be distinct")
    if trials_per_length < 1:
        raise ValueError("trials_per_length must be >= 1")
    corpus = np.asarray(corpus, dtype=np.int64)
    if corpus.size < max(lengths):
        raise ValueError("corpus shorter than the longest requested length")
    if min(lengths) < config.model.order:
        raise ValueError("length below the scoring model order")

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
