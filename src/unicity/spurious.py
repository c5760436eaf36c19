"""Spurious-key counting and the unicity bound.

Provides the random-cipher estimate (2**H(K) - 1) * 2**(-N*D) of the
expected spurious-key count (Shannon 1949; Hellman 1977) and the bound
N >= H(K)/D. Builds small synthetic languages with an explicit uniform
set of meaningful messages, so that spurious keys can be counted exactly
and checked against the exact combinatorial expectation for the cipher
at hand. For substitution ciphers the two differ: a wrong key that
agrees with the true key on every letter of the message decrypts it to
the message itself, so it is always spurious.

Exact counts for a toy language come from the orbit classes of the key
group (`KeySpace.orbit_summary`), without enumerating keys, and are
exact Python integers at every G. A seeded Monte Carlo estimate, which
samples wrong keys, is kept beside them as an independent check. It
takes a block of constructions at once: its trials only draw, one pass
scores every sampled key of the block, and only the sampled messages
are decoded. The CLI's `unicity` command tabulates the estimate and the
bound over a range of lengths, and its `spurious` command sets the
estimate beside the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cipher import KeySpace
from .lang import Alphabet, absolute_rate, decode_codes

_MAX_CODE_BITS = 62


def unicity_distance(key_entropy_bits: float, redundancy_bits: float) -> float:
    """Ciphertext length at which spurious keys are expected to die out:
    key entropy divided by per-letter redundancy. Infinite when the
    redundancy is zero (nothing ever rules a key out)."""
    if key_entropy_bits < 0 or redundancy_bits < 0:
        raise ValueError("entropy and redundancy must be nonnegative")
    if redundancy_bits == 0:
        return math.inf
    return key_entropy_bits / redundancy_bits


@dataclass(frozen=True)
class SpuriousExpectation:
    """Random-cipher estimate of the spurious-key count at one length.

    log2_exact is log2((2**H - 1) * 2**(-N*D)), kept in the log domain:
    the estimate evaluated exactly, with the -1 for the true key kept. It
    is not the exact expectation for any given cipher (see the module
    docstring). linear is the same value, or None when it exceeds 2**52.
    log2_approx drops the -1 term, which changes the linear value by
    exactly 2**(-N*D).
    """

    log2_exact: float
    linear: float | None
    log2_approx: float


def expected_spurious_keys(
    key_entropy_bits: float, redundancy_bits: float, length: float
) -> SpuriousExpectation:
    if length < 0:
        raise ValueError("length must be nonnegative")
    h = key_entropy_bits
    nd = length * redundancy_bits
    # log2(2**h - 1) = h + log(1 - 2**-h)/log(2), stable for large h
    if h <= 0:
        log2_minus_one = -math.inf
    else:
        log2_minus_one = h + math.log1p(-(2.0**-h)) / math.log(2)
    log2_exact = log2_minus_one - nd
    linear = 2.0**log2_exact if log2_exact < 52 else None
    return SpuriousExpectation(log2_exact=log2_exact, linear=linear, log2_approx=h - nd)


@dataclass(frozen=True, eq=False)
class ToyLanguage:
    """Explicit uniform set of meaningful fixed-length messages."""

    alphabet: Alphabet
    length: int
    codes: np.ndarray  # sorted base-G codes of the member messages

    def __post_init__(self):
        arr = np.asarray(self.codes, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("toy language needs at least one message")
        arr = np.sort(arr)
        if np.any(arr[1:] == arr[:-1]):
            raise ValueError("toy language messages must be distinct")
        object.__setattr__(self, "codes", arr)
        arr.flags.writeable = False

    @property
    def size(self) -> int:
        return int(self.codes.size)

    @property
    def rate(self) -> float:
        """Achieved bits per letter: log2(size) / length, but exactly log2(G)
        for all G**length messages, where the quotient rounds to either side."""
        if self.size == self.alphabet.size**self.length:
            return absolute_rate(self.alphabet)
        return math.log2(self.size) / self.length

    @cached_property
    def messages(self) -> np.ndarray:
        """(M, length) symbol-code rows, in sorted code order."""
        out = decode_codes(self.codes, self.alphabet.size, self.length)
        out.flags.writeable = False
        return out

    def contains_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized membership test on base-G message codes."""
        pos = np.searchsorted(self.codes, codes)
        pos = np.clip(pos, 0, self.codes.size - 1)
        return self.codes[pos] == codes


def build_toy_language(
    alphabet: Alphabet, length: int, rate_target: float, seed: int
) -> ToyLanguage:
    """Sample round(2**(rate*length)) distinct messages uniformly without
    replacement from all G**length sequences."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if rate_target < 0:
        raise ValueError("rate must be nonnegative")
    g = alphabet.size
    if length * math.log2(g) > _MAX_CODE_BITS:
        raise ValueError("message space too large for 64-bit codes")
    total = g**length
    if rate_target * length > _MAX_CODE_BITS + 1:
        # past 2**63 messages: more than total, and 2.0**x overflows from x = 1024
        raise ValueError(
            f"requested over 2**{_MAX_CODE_BITS + 1} meaningful messages "
            f"but only {total} sequences exist"
        )
    want = round(2.0 ** (rate_target * length))
    if want > total:
        raise ValueError(
            f"requested {want} meaningful messages but only {total} sequences exist"
        )
    want = max(want, 1)
    rng = np.random.default_rng((seed, length))
    if total <= (1 << 22):
        codes = rng.permutation(total)[:want].astype(np.int64)
    else:
        # rejection sampling, uniform without replacement: the first want
        # distinct codes in draw order, taken a batch of draws at a time
        codes = np.empty(0, dtype=np.int64)
        while codes.size < want:
            batch = rng.integers(0, total, size=max(1024, want), dtype=np.int64)
            _, first = np.unique(batch, return_index=True)
            fresh = batch[np.sort(first)]
            fresh = fresh[~np.isin(fresh, codes)]
            codes = np.concatenate([codes, fresh[: want - codes.size]])
    return ToyLanguage(alphabet=alphabet, length=length, codes=codes)


def exhaustive_spurious_counts(space: KeySpace, language: ToyLanguage) -> np.ndarray:
    """Spurious-key count of every member message, whatever the true key.

    Decrypting encrypt(k, m) under a wrong key j applies the key j^-1 k
    to m, which runs over every non-identity key as j does. A key maps m
    onto a member for |L & O(m)| * |Stab(m)| keys, the identity included,
    so entry m of the returned vector (in language order) is that
    product minus one. No key is enumerated. Entries are exact Python
    ints in an object array, since they pass 2**63 from G = 21.
    """
    index, n_o, stab, _ = space.orbit_summary(language.messages)
    return (n_o * stab - 1)[index]


def mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error along the last axis of values, the SE nan
    over one value. numpy computes both; where its sum or sum of squares
    passes the float range, `statistics` computes that value from exact
    sums instead."""
    rows = values.reshape(-1, values.shape[-1])
    n = rows.shape[1]
    with np.errstate(over="ignore"):
        means = rows.mean(axis=1)
        ses = rows.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.full(len(rows), math.nan)
    if np.isinf(ses).any():  # an inf mean makes its SE inf too
        import statistics  # here, not at the top: it loads fractions and decimal
        for i in np.flatnonzero(np.isinf(means)):
            means[i] = statistics.mean(rows[i].tolist())
        for i in np.flatnonzero(np.isinf(ses)):
            ses[i] = statistics.stdev(rows[i].tolist()) / math.sqrt(n)
    return means.reshape(values.shape[:-1]), ses.reshape(values.shape[:-1])


def monte_carlo_spurious(
    space: KeySpace,
    languages: list[ToyLanguage],
    seeds: list[int],
    trials: int,
    keys_per_trial: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampling stand-in for exhaustive counting: the mean and standard
    error of the estimates for each construction (language and seed) of
    a block, as two float64 arrays. The languages share one length.

    Trial t of a construction draws from default_rng((seed, t)) the index
    of a member message, a true key and its keys_per_trial candidate
    keys. The keys go into one key block for the whole call, of the
    smallest unsigned dtype that holds G - 1. A trial whose rows hold its
    true key drops them and draws as many keys again from its own
    generator until none is left, so it keeps the first keys_per_trial
    wrong keys in draw order, as one draw at a time with redraws would.
    One pass then scores the block: only the sampled messages are
    decoded, each wrong key decrypts its trial's ciphertext by finding
    each ciphertext letter in the key row, and the decryptions are looked
    up in their own language. The fraction of a trial's wrong keys that
    decrypt to a member is scaled up to the key_count - 1 wrong keys. A
    construction's estimate depends only on its language and seed, not on
    the other constructions of the block.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if keys_per_trial < 1:
        raise ValueError("keys_per_trial must be >= 1")
    if len(seeds) != len(languages):
        raise ValueError(f"{len(languages)} languages but {len(seeds)} seeds")
    if not languages:
        raise ValueError("a block needs at least one construction")
    length = languages[0].length
    if any(language.length != length for language in languages):
        raise ValueError("the languages of a block must share one message length")
    g = space.alphabet.size
    wrong_total = space.key_count - 1
    if wrong_total == 0:  # a one-key space has no wrong key to sample
        return mean_and_se(np.zeros((len(seeds), trials)))
    runs = len(languages) * trials
    dtype = np.min_scalar_type(g - 1)
    # row 0 of each trial is its true key, drawn right before its candidates
    block = np.empty((runs, 1 + keys_per_trial, g), dtype=dtype)
    plain_codes = np.empty(runs, dtype=np.int64)
    rngs = []
    for language, seed in zip(languages, seeds):
        for t in range(trials):
            rng = np.random.default_rng((seed, t))
            plain_codes[len(rngs)] = language.codes[rng.integers(language.size)]
            space.sample_mappings(rng, 1 + keys_per_trial, block[len(rngs)])
            rngs.append(rng)
    true_keys, keys = block[:, 0], block[:, 1:]
    rows = block.view(np.dtype((np.void, block.strides[1])))[..., 0]  # each key row as one value
    is_true = rows[:, 1:] == rows[:, :1]
    for r in np.flatnonzero(is_true.any(axis=1)):
        wrong = keys[r][~is_true[r]]
        while short := keys_per_trial - len(wrong):
            drawn = space.sample_mappings(rngs[r], short)
            wrong = np.concatenate([wrong, drawn[(drawn != true_keys[r]).any(axis=1)]])
        keys[r] = wrong
    ciphertext = np.take_along_axis(true_keys, decode_codes(plain_codes, g, length), axis=1)
    letters = np.arange(g, dtype=dtype)
    codes = np.zeros((runs, keys_per_trial), dtype=np.int64)
    for j in range(length):
        # plaintext letter j of a decryption: where its key row holds ciphertext letter j
        codes = codes * g + (keys == ciphertext[:, j, None, None]) @ letters
    codes = codes.reshape(len(languages), trials * keys_per_trial)
    member = np.stack([language.contains_codes(c) for language, c in zip(languages, codes)])
    accepted = np.count_nonzero(member.reshape(len(languages), trials, keys_per_trial), axis=2)
    return mean_and_se(wrong_total * (accepted / keys_per_trial))
