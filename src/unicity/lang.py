"""Alphabets, text normalization, and smoothed n-gram letter models.

The model here is deliberately plain: additive-smoothed n-gram counts
over a finite symbol alphabet, with all rates measured in bits per
letter (log base 2 throughout). Models are immutable once fitted and
safe to share across threads.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# refuse count tables above this many cells (G**order)
_MAX_TABLE_CELLS = 1 << 26


class EmptyTextError(ValueError):
    """Raised when normalization leaves no symbols at all."""


class UsageError(ValueError):
    """An argument a library function refuses; the CLI exits 2 on it,
    and 1 on any other ValueError."""


class SmoothingError(UsageError):
    """Raised when a smoothing alpha leaves some probability at 0."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character symbols."""

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise UsageError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise UsageError("alphabet symbols must be distinct")
        for s in self.symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise UsageError(f"symbols must be single characters, got {s!r}")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def first_n(cls, n: int) -> "Alphabet":
        """First n uppercase letters (n <= 26)."""
        if not 1 <= n <= 26:
            raise UsageError("first_n supports 1..26 symbols")
        return cls(tuple(string.ascii_uppercase[:n]))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, text: str) -> np.ndarray:
        """Text -> int64 code array. Every character must be a symbol."""
        try:
            return np.array([self._index[c] for c in text], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} not in alphabet") from None

    def decode(self, codes: np.ndarray) -> str:
        return "".join(self.symbols[c] for c in check_codes(codes, self.size).tolist())


def check_codes(codes: np.ndarray, g: int) -> np.ndarray:
    """The codes as an int64 array. Raises ValueError when any code
    is outside 0..g-1, the symbols of a g-letter alphabet."""
    arr = np.asarray(codes, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= g):
        raise ValueError(f"symbol code outside the {g}-letter alphabet")
    return arr


def normalize_text(raw: str, alphabet: Alphabet) -> str:
    """Keep only alphabet symbols, case-folding when the alphabet is
    single-case letters. Raises EmptyTextError when nothing survives."""
    text = raw
    if all(s.isalpha() and s.isupper() for s in alphabet.symbols):
        text = text.upper()
    elif all(s.isalpha() and s.islower() for s in alphabet.symbols):
        text = text.lower()
    keep = re.escape("".join(alphabet.symbols))
    out = re.sub(f"[^{keep}]", "", text)
    if not out:
        raise EmptyTextError("no alphabet symbols in input")
    return out


def absolute_rate(alphabet: Alphabet) -> float:
    """Maximum information per letter: log2 of the alphabet size."""
    return math.log2(alphabet.size)


@dataclass(frozen=True)
class RedundancyEstimate:
    absolute_rate: float
    entropy_rate: float
    redundancy: float


@dataclass(frozen=True, eq=False)
class NGramModel:
    """Additive-smoothed order-n letter model.

    ``counts`` has shape (G**(order-1), G): one row per context (the
    n-1 preceding symbols, base-G encoded), one column per next symbol.
    """

    alphabet: Alphabet
    order: int
    alpha: float
    counts: np.ndarray
    total_symbols: int

    def __post_init__(self):
        g = self.alphabet.size
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.alpha <= 0:
            raise ValueError("smoothing alpha must be > 0")
        expected = (g ** (self.order - 1), g)
        if self.counts.shape != expected:
            raise ValueError(f"counts shape {self.counts.shape} != {expected}")
        if (self.counts < 0).any():
            raise ValueError("counts must be nonnegative")
        self.counts.flags.writeable = False
        if not (self.conditional_probs > 0).all():  # the cost of a 0 is infinite
            raise SmoothingError(f"smoothing alpha {self.alpha!r} rounds some probability to 0")

    @cached_property
    def context_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @cached_property
    def conditional_probs(self) -> np.ndarray:
        """(contexts, G) matrix of smoothed next-symbol probabilities."""
        g = self.alphabet.size
        denom = self.context_totals + self.alpha * g
        return (self.counts + self.alpha) / denom[:, None]

    @cached_property
    def nll_flat(self) -> np.ndarray:
        """-log2 conditional probability per full window, flattened to a
        length G**order vector indexed by the window's base-G code."""
        return (-np.log2(self.conditional_probs)).ravel()

    def entropy_rate(self) -> float:
        """Conditional next-letter entropy in bits, with contexts weighted
        by how often they occur in the training windows."""
        totals = self.context_totals
        grand = totals.sum()
        if grand == 0:
            raise ValueError("model has no observed windows")
        weights = totals / grand
        p = self.conditional_probs
        row_h = -(p * np.log2(p)).sum(axis=1)
        return float(weights @ row_h)

    def symbol_weights(self) -> np.ndarray:
        """Marginal next-symbol counts (used for frequency matching)."""
        return self.counts.sum(axis=0).astype(np.float64)

    def sequence_nll(self, codes: np.ndarray) -> float:
        """-log2 probability of the sequence in bits. The first order-1
        symbols serve as free initial context and are not charged."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1 or codes.shape[0] < self.order:
            raise ValueError(f"sequence shorter than model order {self.order}")
        idx = encode_rows(sliding_window_view(codes, self.order), self.alphabet.size)
        return float(self.nll_flat[idx].sum())


def encode_rows(rows: np.ndarray, g: int) -> np.ndarray:
    """Base-g code of each row along the last axis, first letter most
    significant: the index of a message or window among all g**width."""
    rows = np.asarray(rows)
    return rows @ g ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def decode_codes(codes: np.ndarray, g: int, width: int) -> np.ndarray:
    """Inverse of encode_rows: the (len(codes), width) letter rows."""
    rows = np.empty((np.size(codes), width), dtype=np.int64)
    rem = np.array(codes, dtype=np.int64)
    for j in range(width - 1, -1, -1):
        rem, rows[:, j] = np.divmod(rem, g)
    return rows


def fit_ngram(codes: np.ndarray, order: int, alpha: float = 0.5, *,
              alphabet: Alphabet) -> NGramModel:
    """Count every length-`order` window of the corpus exactly once. The
    alphabet is required: the codes index its symbols."""
    g = alphabet.size
    codes = check_codes(codes, g)
    if codes.ndim != 1:
        raise ValueError("corpus must be a 1-d code array")
    if codes.size < order:
        raise ValueError(f"corpus length {codes.size} shorter than order {order}")
    if g**order > _MAX_TABLE_CELLS:
        raise ValueError(f"count table G**order = {g**order} too large")
    flat = encode_rows(sliding_window_view(codes, order), g)
    counts = np.bincount(flat, minlength=g**order).astype(np.int64)
    counts = counts.reshape(g ** (order - 1), g)
    return NGramModel(alphabet, order, alpha, counts, total_symbols=int(codes.size))


def redundancy(model: NGramModel) -> RedundancyEstimate:
    r0 = absolute_rate(model.alphabet)
    r = model.entropy_rate()
    return RedundancyEstimate(absolute_rate=r0, entropy_rate=r, redundancy=r0 - r)
