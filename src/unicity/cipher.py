"""Substitution and shift cipher key spaces.

A key is a permutation of alphabet indices mapping plaintext symbol to
ciphertext symbol. Key spaces carry exact key counts and key entropy
under the uniform prior, sample keys uniformly, and list every key in
lexicographic order. Each key family is a group (S_G or Z_G) acting on
messages, and `KeySpace.orbit_classes` describes its orbits; counts over
a key space come from those orbits, not from listing its keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lang import Alphabet, encode_rows

SUBSTITUTION = "substitution"
SHIFT = "shift"


@dataclass(frozen=True, eq=False)
class SubstitutionKey:
    """Permutation of {0..G-1}: plaintext index -> ciphertext index."""

    mapping: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mapping, dtype=np.int64)
        if arr.ndim != 1 or not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValueError("key mapping must be a permutation of 0..G-1")
        object.__setattr__(self, "mapping", arr)
        arr.flags.writeable = False

    @classmethod
    def _of_permutation(cls, mapping: np.ndarray) -> "SubstitutionKey":
        """Key of an int64 array that is a permutation by construction,
        such as a draw of rng.permutation, without checking it again."""
        key = object.__new__(cls)
        object.__setattr__(key, "mapping", mapping)
        mapping.flags.writeable = False
        return key

    @property
    def size(self) -> int:
        return int(self.mapping.size)

    def inverse(self) -> "SubstitutionKey":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.mapping.size)
        return SubstitutionKey._of_permutation(inv)

    def as_string(self, alphabet: Alphabet) -> str:
        """Ciphertext image of the alphabet, e.g. a 26-char string."""
        if alphabet.size != self.size:
            raise ValueError("alphabet size does not match key size")
        return alphabet.decode(self.mapping)

    @classmethod
    def from_string(cls, image: str, alphabet: Alphabet) -> "SubstitutionKey":
        return cls(alphabet.encode(image))

    @classmethod
    def identity(cls, g: int) -> "SubstitutionKey":
        return cls(np.arange(g, dtype=np.int64))

    @classmethod
    def shift(cls, g: int, offset: int) -> "SubstitutionKey":
        return cls._of_permutation((np.arange(g, dtype=np.int64) + int(offset)) % g)

    def __eq__(self, other):
        if not isinstance(other, SubstitutionKey):
            return NotImplemented
        return np.array_equal(self.mapping, other.mapping)

    def __hash__(self):
        return hash(tuple(self.mapping.tolist()))


def _check_codes(codes: np.ndarray, g: int) -> np.ndarray:
    arr = np.asarray(codes, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= g):
        raise ValueError("symbol code outside key alphabet")
    return arr


def encrypt(key: SubstitutionKey, plaintext: np.ndarray) -> np.ndarray:
    """Position-wise application of the key permutation."""
    arr = _check_codes(plaintext, key.size)
    return key.mapping[arr]


def decrypt(key: SubstitutionKey, ciphertext: np.ndarray) -> np.ndarray:
    arr = _check_codes(ciphertext, key.size)
    return key.inverse().mapping[arr]


@dataclass(frozen=True)
class KeySpace:
    """Uniform prior over all keys of one cipher family."""

    kind: str
    alphabet: Alphabet

    def __post_init__(self):
        if self.kind not in (SUBSTITUTION, SHIFT):
            raise ValueError(f"unknown cipher kind {self.kind!r}")

    @property
    def key_count(self) -> int:
        g = self.alphabet.size
        return math.factorial(g) if self.kind == SUBSTITUTION else g

    @property
    def key_entropy_bits(self) -> float:
        """log2 of the key count, accumulated in the log domain."""
        g = self.alphabet.size
        if self.kind == SUBSTITUTION:
            return float(sum(math.log2(k) for k in range(2, g + 1)))
        return math.log2(g)

    def sample(self, rng: np.random.Generator) -> SubstitutionKey:
        g = self.alphabet.size
        if self.kind == SUBSTITUTION:
            return SubstitutionKey._of_permutation(rng.permutation(g).astype(np.int64))
        return SubstitutionKey.shift(g, int(rng.integers(g)))

    def enumerate_mappings(self) -> Iterator[tuple[int, ...]]:
        """All key mappings in lexicographic order, as index tuples."""
        g = self.alphabet.size
        if self.kind == SUBSTITUTION:
            return iter(itertools.permutations(range(g)))
        return (tuple((np.arange(g) + off) % g) for off in range(g))

    def enumerate_keys(self) -> Iterator[SubstitutionKey]:
        for mapping in self.enumerate_mappings():
            yield SubstitutionKey(np.array(mapping, dtype=np.int64))

    def orbit_classes(self, messages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Orbit label and stabilizer size of each (M, N) message row.

        The keys form a group acting on messages letter by letter, so a
        uniform key sends a message uniformly over its orbit and reaches
        each point |Stab| times. Two rows share a label iff some key maps
        one onto the other. Substitution: the label is the equality
        pattern (each letter replaced by the rank of its first
        occurrence) and |Stab| = (G - k)! for k distinct letters. Shift:
        the label is the row minus its first letter, mod G, and
        |Stab| = 1. Labels are base-G codes; stabilizer sizes are exact
        Python ints in an object array, since (G - 1)! overflows int64
        from G = 22.
        """
        g = self.alphabet.size
        rows = _check_codes(messages, g)
        n = rows.shape[1]
        if self.kind == SHIFT:
            pattern = (rows - rows[:, :1]) % g
            stab = np.ones(rows.shape[0], dtype=object)
        else:
            # first[m, j]: where row m first holds the letter at its position j
            first = (rows[:, :, None] == rows[:, None, :]).argmax(axis=1)
            is_new = first == np.arange(n)
            rank = np.cumsum(is_new, axis=1) - 1
            pattern = np.take_along_axis(rank, first, axis=1)
            free = np.array([math.factorial(g - k) for k in range(min(n, g) + 1)],
                            dtype=object)
            stab = free[is_new.sum(axis=1)]
        return encode_rows(pattern, g), stab


def parse_keys(text: str, alphabet: Alphabet) -> list[SubstitutionKey]:
    """Key file format: one alphabet-image string per line."""
    return [SubstitutionKey.from_string(line.strip(), alphabet)
            for line in text.splitlines() if line.strip()]
