"""Metropolis-Hastings key recovery for substitution ciphers.

The walker scores candidate decryptions with an n-gram model (bigram by
default), proposes random transpositions of the current key, and keeps
the best key seen. Runs are deterministic given the seed: all proposal
randomness is drawn up front from per-chain generators, and per-run
generators in sweeps derive from (seed, run index), so each trial's
result depends only on the seed and its place in the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cipher import KeySpace, SubstitutionKey, encrypt
from .lang import NGramModel, redundancy
from .spurious import unicity_distance


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
    score_trace: np.ndarray  # best-so-far at each checkpoint, nonincreasing
    key_accuracy: float | None
    plaintext_accuracy: float | None
    iterations: int
    restarts: int
    seed: int


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
    wins_all = np.lib.stride_tricks.sliding_window_view(ciphertext, order)
    pows = g ** np.arange(order - 1, -1, -1, dtype=np.int64)
    codes = wins_all @ pows
    uniq, counts = np.unique(codes, return_counts=True)
    wins = np.empty((uniq.size, order), dtype=np.int64)
    rem = uniq.copy()
    for j in range(order - 1, -1, -1):
        wins[:, j] = rem % g
        rem //= g
    return wins, counts.astype(np.float64)


def mcmc_sweep(
    wins: np.ndarray,
    wcounts: np.ndarray,
    nll_flat: np.ndarray,
    g: int,
    inv0: np.ndarray,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    log2_u: np.ndarray,
    temperature: float,
    trace_every: int,
):
    """Metropolis walk over ciphertext->plaintext mappings.

    wins: (U, n) unique ciphertext windows, wcounts their multiplicities,
    nll_flat the per-window cost table indexed by base-g window code.
    Proposals transpose entries (pair_a[i], pair_b[i]) of the current
    mapping; log2_u[i] is log2 of the acceptance uniform. Returns
    (best mapping, best score, best-so-far trace).
    """
    n = wins.shape[1]
    pows = g ** np.arange(n - 1, -1, -1, dtype=np.int64)
    inv = inv0.copy()

    idx = (inv[wins] * pows).sum(axis=1)
    score = float(wcounts @ nll_flat[idx])
    best = inv.copy()
    best_score = score

    iters = pair_a.shape[0]
    trace = np.empty(1 + iters // trace_every, dtype=np.float64)
    trace[0] = score

    for i in range(iters):
        a = pair_a[i]
        b = pair_b[i]
        inv[a], inv[b] = inv[b], inv[a]
        idx = (inv[wins] * pows).sum(axis=1)
        new_score = float(wcounts @ nll_flat[idx])
        if new_score < score or log2_u[i] < (score - new_score) / temperature:
            score = new_score
            if score < best_score:
                best_score = score
                best[:] = inv
        else:
            inv[a], inv[b] = inv[b], inv[a]
        if (i + 1) % trace_every == 0:
            trace[1 + i // trace_every] = best_score
    return best, best_score, trace


def mcmc_crack(
    ciphertext: np.ndarray,
    config: AttackConfig,
    true_key: SubstitutionKey | None = None,
) -> AttackResult:
    """Run restarts+1 independent Metropolis chains and return the best
    key found. Accuracies are filled in when the true key is supplied."""
    ciphertext = np.asarray(ciphertext, dtype=np.int64)
    model = config.model
    g = model.alphabet.size
    if ciphertext.size < model.order:
        raise ValueError("ciphertext shorter than the scoring model order")
    if ciphertext.min() < 0 or ciphertext.max() >= g:
        raise ValueError("ciphertext code outside the model alphabet")

    wins, wcounts = _cipher_windows(ciphertext, model.order, g)
    nll_flat = model.nll_flat
    inv0 = _frequency_start(ciphertext, model)

    best_inv = None
    best_score = math.inf
    traces = []
    for chain in range(config.restarts + 1):
        rng = np.random.default_rng((config.seed, chain))
        pair_a = rng.integers(0, g, size=config.iterations)
        raw_b = rng.integers(0, g - 1, size=config.iterations)
        pair_b = raw_b + (raw_b >= pair_a)
        log2_u = np.log2(rng.random(size=config.iterations))
        inv, score, trace = mcmc_sweep(
            wins,
            wcounts,
            nll_flat,
            g,
            inv0,
            pair_a,
            pair_b,
            log2_u,
            config.temperature,
            config.checkpoint_interval,
        )
        traces.append(trace)
        if score < best_score:
            best_score = score
            best_inv = inv

    score_trace = np.minimum.accumulate(np.concatenate(traces))
    mapping = np.empty(g, dtype=np.int64)
    mapping[best_inv] = np.arange(g, dtype=np.int64)
    best_key = SubstitutionKey(mapping)

    key_acc = None
    plain_acc = None
    if true_key is not None:
        key_acc = float((best_key.mapping == true_key.mapping).mean())
        recovered = best_inv[ciphertext]
        truth = true_key.inverse().mapping[ciphertext]
        plain_acc = float((recovered == truth).mean())

    return AttackResult(
        best_key=best_key,
        best_score_bits=float(best_score),
        score_trace=score_trace,
        key_accuracy=key_acc,
        plaintext_accuracy=plain_acc,
        iterations=config.iterations,
        restarts=config.restarts,
        seed=config.seed,
    )


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


def _run_trial(corpus, space, config, length, trial, run_index):
    ss = np.random.SeedSequence(entropy=(config.seed, run_index))
    sample_seq, attack_seq = ss.spawn(2)
    rng = np.random.default_rng(sample_seq)
    offset = int(rng.integers(0, corpus.size - length + 1))
    plaintext = corpus[offset : offset + length]
    true_key = space.sample(rng)
    ciphertext = encrypt(true_key, plaintext)
    attack_seed = int(attack_seq.generate_state(1, np.uint64)[0])
    result = mcmc_crack(ciphertext, replace(config, seed=attack_seed), true_key)
    return AttackTrialRow(
        length=length,
        trial=trial,
        key_accuracy=result.key_accuracy,
        plaintext_accuracy=result.plaintext_accuracy,
        best_score_bits=result.best_score_bits,
        iterations=result.iterations,
        seed=attack_seed,
    )


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

    rows = [
        _run_trial(corpus, space, config, n, t, i * trials_per_length + t)
        for i, n in enumerate(lengths)
        for t in range(trials_per_length)
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
