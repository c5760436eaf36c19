"""Substitution and shift cipher key spaces.

A key is a permutation of alphabet indices mapping plaintext symbol to
ciphertext symbol. Key spaces carry exact key counts and key entropy
under the uniform prior and sample keys uniformly. Each key family is a
group (S_G or Z_G) acting on messages, and `KeySpace.orbit_summary`
tabulates its orbit classes; counts over a key space come from that
table, not from listing its keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def size(self) -> int:
        return int(self.mapping.size)

    def inverse(self) -> "SubstitutionKey":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.mapping.size)
        return SubstitutionKey(inv)

    def as_string(self, alphabet: Alphabet) -> str:
        """Ciphertext image of the alphabet, e.g. a 26-char string."""
        if alphabet.size != self.size:
            raise ValueError("alphabet size does not match key size")
        return alphabet.decode(self.mapping)

    @classmethod
    def from_string(cls, image: str, alphabet: Alphabet) -> "SubstitutionKey":
        return cls(alphabet.encode(image))

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
        return SubstitutionKey(self.sample_mappings(rng, 1)[0])

    def sample_mappings(self, rng: np.random.Generator, n: int,
                        out: np.ndarray | None = None) -> np.ndarray:
        """(n, G) mappings of n uniform keys, drawn as one block.

        Row i is the key that the i-th of n single draws would give:
        rng.permutation(G) for substitution, a rotation by rng.integers(G)
        for shift. The generator ends where those n draws leave it, so one
        block of n and n blocks of one draw the same keys. The keys are
        written into out when it is given, an (n, G) array of any integer
        dtype that holds G - 1 (such as rows of a caller's key block), and
        into a new int64 array otherwise; the draws are the same.
        """
        g = self.alphabet.size
        letters = np.arange(g, dtype=np.int64)
        if out is None:
            out = np.empty((n, g), dtype=np.int64)
        if self.kind == SUBSTITUTION:
            out[...] = letters
            return rng.permuted(out, axis=1, out=out)
        out[...] = (letters + rng.integers(g, size=(n, 1))) % g
        return out

    def orbit_summary(self, messages: np.ndarray) -> tuple[np.ndarray, ...]:
        """Orbit classes of the (M, N) message rows: (index, n_o, stab,
        log2_stab).

        The keys form a group acting on messages letter by letter, so a
        uniform key sends a message uniformly over its orbit and reaches
        each point |Stab| times. Two rows share a class iff some key maps
        one onto the other. index is each row's class and n_o each
        class's member count. stab holds each class's |Stab| as exact
        Python ints in an object array, since (G - 1)! overflows int64
        from G = 22, and log2_stab their math.log2, finite at every G.
        Substitution: a class is an equality pattern (each letter
        replaced by the rank of its first occurrence) and
        |Stab| = (G - k)! for k distinct letters. Shift: a class is a row
        minus its first letter, mod G, and |Stab| = 1.
        """
        g = self.alphabet.size
        rows = _check_codes(messages, g)
        if self.kind == SHIFT:
            pattern = (rows - rows[:, :1]) % g
            distinct = np.full(rows.shape[0], g)  # (G - G)! = 1: only the identity fixes a row
        else:
            # first[m, j]: where row m first holds the letter at its position j
            first = (rows[:, :, None] == rows[:, None, :]).argmax(axis=1)
            is_new = first == np.arange(rows.shape[1])
            rank = np.cumsum(is_new, axis=1) - 1
            pattern = np.take_along_axis(rank, first, axis=1)
            distinct = is_new.sum(axis=1)
        _, rep, index, n_o = np.unique(encode_rows(pattern, g), return_index=True,
                                       return_inverse=True, return_counts=True)
        stab = np.array([math.factorial(g - k) for k in distinct[rep].tolist()], dtype=object)
        return index, n_o, stab, np.array([math.log2(s) for s in stab.tolist()])


def parse_keys(text: str, alphabet: Alphabet) -> list[SubstitutionKey]:
    """Key file format: one alphabet-image string per line."""
    return [SubstitutionKey.from_string(line.strip(), alphabet)
            for line in text.splitlines() if line.strip()]
