"""Metropolis-Hastings key recovery for substitution ciphers.

The walker scores candidate decryptions with an n-gram model (bigram by
default), proposes random transpositions of the current key, and keeps
the best key seen. The chains of a crack, and of a recovery curve's
trials in groups, advance in lock-step along a batch axis. A chain holds
the n-gram code of each distinct window of its decrypted ciphertext, so
a transposition is scored from the few windows it moves (after Jakobsen
1995), in exact fixed-point integers; the work per step follows the
text, not the number of n-grams.

Runs are deterministic given the seed. Chain c of a crack seeded s draws
its proposals from default_rng((s, c)): every first letter, then every
second letter, then every acceptance uniform, taken in blocks as the
batch advances. Per-run generators in sweeps derive from (seed, run
index), so each trial's result depends only on the seed and its place
in the sweep, not on the rest of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cipher import KeySpace, SubstitutionKey, encrypt
from .lang import NGramModel, decode_codes, encode_rows, redundancy
from .spurious import unicity_distance

# proposals drawn per chain and stream in one generator call
_BLOCK = 100
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
    score_trace: np.ndarray  # best-so-far at each checkpoint and the end, nonincreasing
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

    lists: np.ndarray  # (3, ciphertexts * g, M) int32
    row: np.ndarray  # (C,)
    cost: np.ndarray  # (scales * g**order,) int64
    unit: np.ndarray  # (C,) bits per unit, a power of two


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
    lists = np.zeros((3, len(windows) * g, longest), dtype=np.int32)
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
    scoring = _Scoring(
        lists=lists,
        row=job * g,
        cost=np.concatenate([np.rint(np.ldexp(nll_flat, k)).astype(np.int64) for k in levels]),
        unit=np.ldexp(1.0, -ks[job]),
    )
    code = np.repeat(level[job, None] * nll_flat.size, width, axis=1)
    score = np.zeros(job.size, dtype=np.int64)
    for c, i in enumerate(job):
        wins, wcounts = windows[i]
        code[c, : wins.shape[0]] += encode_rows(inv0[c][wins], g)
        score[c] = wcounts.astype(np.int64) @ scoring.cost[code[c, : wins.shape[0]]]
    return code, score, scoring


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
    """
    chains = np.arange(inv.shape[0])
    flat = code.reshape(-1)
    base = chains[:, None] * code.shape[1]
    rows = np.stack([pair_a, pair_b]) + scoring.row[:, None]  # (2, C, steps)
    # per-step work arrays, [0] for letter a's windows and [1] for b's;
    # the takes into them use mode="clip" only because numpy buffers
    # `out` under the default mode; every index is in range
    picked = np.empty((3, 2, chains.size, scoring.lists.shape[2]), dtype=scoring.lists.dtype)
    wins, places, counts = picked
    cells = np.empty(wins.shape, dtype=np.int64)
    moves = np.empty((2, *wins.shape), dtype=np.int64)
    after, before = moves
    costs = np.empty_like(moves)
    accepted = np.zeros(chains.size, dtype=np.int64)
    for j in range(pair_a.shape[1]):
        a = pair_a[:, j]
        b = pair_b[:, j]
        x = inv[chains, a]
        y = inv[chains, b]
        scoring.lists.take(rows[:, :, j], axis=1, out=picked, mode="clip")
        np.add(wins, base, out=cells)
        shift = (y - x)[:, None]
        # Move letter a's windows (x -> y) in place, then letter b's
        # (y -> x) from there: a window holding both letters is moved by
        # both, and its two cost changes add up to the right total.
        flat.take(cells[0], out=before[0], mode="clip")
        np.multiply(places[0], shift, out=after[0])
        after[0] += before[0]
        flat[cells[0]] = after[0]
        flat.take(cells[1], out=before[1], mode="clip")
        np.multiply(places[1], shift, out=after[1])
        np.subtract(before[1], after[1], out=after[1])
        scoring.cost.take(moves, out=costs, mode="clip")
        np.subtract(costs[0], costs[1], out=costs[0])
        delta = np.einsum("ijk,ijk->j", counts, costs[0])
        accept = (delta < 0) | (log2_u[:, j] < -delta * scoring.unit / temperature)
        np.copyto(after[0], before[0], where=~accept[:, None])
        flat[cells[0]] = after[0]  # undo letter a's move where rejected
        c = np.flatnonzero(accept)
        if not c.size:
            continue
        flat[cells[1, c]] = after[1, c]
        inv[c, a[c]] = y[c]
        inv[c, b[c]] = x[c]
        score[c] += delta[c]
        accepted[c] += 1
        better = c[score[c] < best_score[c]]
        if better.size:
            best_score[better] = score[better]
            best_inv[better] = inv[better]
    return accepted


def _proposals(seed: int, chain: int, g: int, sizes: list[int], pair_a, pair_b, log2_u):
    """Yield, for each block of the given sizes in turn, the slice of the
    rows pair_a, pair_b and log2_u that holds one chain's proposals for
    it. The rows are refilled _BLOCK proposals at a time, so no block may
    cross a multiple of _BLOCK. The fills join up to what three whole
    calls on default_rng((seed, chain)) would draw: all first letters,
    then all raw second letters, then all uniforms."""
    iterations = sum(sizes)
    fills = [min(_BLOCK, iterations - start) for start in range(0, iterations, _BLOCK)]
    gen_a, gen_b, gen_u = (np.random.default_rng((seed, chain)) for _ in range(3))
    for size in fills:
        gen_b.integers(0, g, size=size)
    gen_u.bit_generator.state = gen_b.bit_generator.state
    for size in fills:
        gen_u.integers(0, g - 1, size=size)
    start = 0
    for size in sizes:
        lo = start % _BLOCK
        if lo == 0:
            fill = fills[start // _BLOCK]
            pair_a[:fill] = gen_a.integers(0, g, size=fill)
            raw_b = gen_b.integers(0, g - 1, size=fill)
            pair_b[:fill] = raw_b + (raw_b >= pair_a[:fill])
            np.log2(gen_u.random(out=log2_u[:fill]), out=log2_u[:fill])
        yield slice(lo, lo + size)
        start += size


def _crack_batch(jobs, config: AttackConfig) -> list[AttackResult]:
    """Crack each (ciphertext, seed, true key or None) job with
    restarts+1 chains. The chains of up to _BATCH_CHAINS // (restarts+1)
    jobs advance as one batch; no job's result depends on its batch."""
    per_batch = max(1, _BATCH_CHAINS // (config.restarts + 1))
    return [
        result
        for i in range(0, len(jobs), per_batch)
        for result in _crack_jobs(jobs[i : i + per_batch], config)
    ]


def _crack_jobs(jobs, config: AttackConfig) -> list[AttackResult]:
    """Crack jobs with all their chains advancing as one batch."""
    model = config.model
    g = model.alphabet.size
    nll_flat = model.nll_flat
    per_job = config.restarts + 1
    iters = config.iterations
    every = config.checkpoint_interval

    job_windows = [_cipher_windows(ct, model.order, g) for ct, _, _ in jobs]
    windows = [w for w in job_windows for _ in range(per_job)]
    inv = np.repeat([_frequency_start(ct, model) for ct, _, _ in jobs], per_job, axis=0)
    code, score, scoring = _start_chains(job_windows, inv, nll_flat, g, per_job)
    best_inv = inv.copy()
    best_score = score.copy()
    accepts = np.zeros(len(windows), dtype=np.int64)

    # reported scores are float rescores of best keys, made when they change
    bits = np.array([_score_bits(*w, nll_flat, g, v) for w, v in zip(windows, inv)])
    trace = np.empty((len(windows), 1 + math.ceil(iters / every)))
    trace[:, 0] = bits
    recorded = best_score.copy()
    col = 1
    # blocks of at most _BLOCK steps, cut at every checkpoint
    cuts = np.union1d(np.arange(_BLOCK, iters, _BLOCK), np.arange(every, iters, every))
    sizes = np.diff(cuts, prepend=0, append=iters).tolist()
    done = 0
    pair_a = np.empty((len(windows), min(_BLOCK, iters)), dtype=np.int64)
    pair_b = np.empty_like(pair_a)
    log2_u = np.empty(pair_a.shape)
    seeds = [seed for _, seed, _ in jobs for _ in range(per_job)]
    streams = [
        _proposals(seed, c % per_job, g, sizes, pair_a[c], pair_b[c], log2_u[c])
        for c, seed in enumerate(seeds)
    ]
    for block, *_ in zip(*streams):  # every chain yields the same slice
        accepts += mcmc_sweep(
            code, inv, score, best_inv, best_score, pair_a[:, block], pair_b[:, block],
            log2_u[:, block], scoring, config.temperature,
        )
        done += block.stop - block.start
        if done % every == 0 or done == iters:
            for c in np.flatnonzero(best_score != recorded):
                bits[c] = _score_bits(*windows[c], nll_flat, g, best_inv[c])
            recorded[:] = best_score
            trace[:, col] = bits
            col += 1

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
    return _crack_batch([(ciphertext, config.seed, true_key)], config)[0]


@dataclass(frozen=True)
class AttackTrialRow:
    length: int
    trial: int
    key_accuracy: float
    plaintext_accuracy: float
    best_score_bits: float
    iterations: int
    seed: int


@dataclass(frozen=True)
class LengthSummary:
    length: int
    trials: int
    mean_key_accuracy: float
    mean_plaintext_accuracy: float
    se_plaintext_accuracy: float
    median_plaintext_accuracy: float
    min_plaintext_accuracy: float
    max_plaintext_accuracy: float


@dataclass(frozen=True)
class RecoveryCurveResult:
    rows: tuple[AttackTrialRow, ...]
    summaries: tuple[LengthSummary, ...]
    unicity_letters: float
    seed: int


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
) -> RecoveryCurveResult:
    """Attack fresh (plaintext slice, uniform key) pairs at each length
    and summarize recovery accuracy, alongside the theoretical unicity
    distance for this key space and scoring model."""
    lengths = list(lengths)
    if not lengths:
        raise ValueError("lengths must be nonempty")
    if trials_per_length < 1:
        raise ValueError("trials_per_length must be >= 1")
    corpus = np.asarray(corpus, dtype=np.int64)
    if corpus.size < max(lengths):
        raise ValueError("corpus shorter than the longest requested length")
    if min(lengths) < config.model.order:
        raise ValueError("length below the scoring model order")

    cells = [(n, t) for n in lengths for t in range(trials_per_length)]
    jobs = [
        _trial_job(corpus, space, config.seed, n, i)
        for i, (n, _) in enumerate(cells)
    ]
    rows = [
        AttackTrialRow(
            length=n,
            trial=t,
            key_accuracy=result.key_accuracy,
            plaintext_accuracy=result.plaintext_accuracy,
            best_score_bits=result.best_score_bits,
            iterations=result.iterations,
            seed=result.seed,
        )
        for (n, t), result in zip(cells, _crack_batch(jobs, config))
    ]

    summaries = []
    for n in lengths:
        accs = np.array([r.plaintext_accuracy for r in rows if r.length == n])
        keys = np.array([r.key_accuracy for r in rows if r.length == n])
        se = float(accs.std(ddof=1) / math.sqrt(accs.size)) if accs.size > 1 else math.nan
        summaries.append(
            LengthSummary(
                length=n,
                trials=int(accs.size),
                mean_key_accuracy=float(keys.mean()),
                mean_plaintext_accuracy=float(accs.mean()),
                se_plaintext_accuracy=se,
                median_plaintext_accuracy=float(np.median(accs)),
                min_plaintext_accuracy=float(accs.min()),
                max_plaintext_accuracy=float(accs.max()),
            )
        )

    d = redundancy(config.model).redundancy
    return RecoveryCurveResult(
        rows=tuple(rows),
        summaries=tuple(summaries),
        unicity_letters=unicity_distance(space.key_entropy_bits, d),
        seed=config.seed,
    )
