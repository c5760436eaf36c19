"""Reference values for the benchmark's output checks, in pure Python.

Nothing here imports `unicity` or numpy: every value the benchmark
compares a CLI report against is derived from first principles, so a
fault in the program cannot hide in a shared helper.

Substitution keys form the symmetric group S_G. For a message m with k
distinct letters, the permutations map m onto every message with the
same equality pattern (its orbit), each one reached by (G-k)! of them.
That gives closed forms for the spurious-key count of m and for the
mutual information of the exact (plaintext, ciphertext) joint.
"""

from __future__ import annotations

import math
from collections import Counter

LATIN = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def normalize(raw: str, symbols: str = LATIN) -> str:
    """Upper-case the text and keep only the alphabet's symbols."""
    keep = set(symbols)
    return "".join(c for c in raw.upper() if c in keep)


def log2_factorial(g: int) -> float:
    return math.log2(math.factorial(g))


# ---------------------------------------------------------------- language


def bigram_counts(text: str, symbols: str = LATIN) -> list[list[int]]:
    """counts[a][b]: occurrences of the window (a, b) in the text."""
    index = {s: i for i, s in enumerate(symbols)}
    g = len(symbols)
    counts = [[0] * g for _ in range(g)]
    for a, b in zip(text, text[1:]):
        counts[index[a]][index[b]] += 1
    return counts


def bigram_conditional_entropy(text: str, alpha: float = 0.5, symbols: str = LATIN) -> float:
    """H(next | previous) in bits of the additive-smoothed bigram model,
    contexts weighted by how often they open a window of the text."""
    counts = bigram_counts(text, symbols)
    g = len(symbols)
    grand = sum(map(sum, counts))
    h = 0.0
    for row in counts:
        total = sum(row)
        if total == 0:
            continue
        denom = total + alpha * g
        row_h = 0.0
        for c in row:
            p = (c + alpha) / denom
            row_h -= p * math.log2(p)
        h += total / grand * row_h
    return h


def unicity_distance(text: str, alpha: float = 0.5, symbols: str = LATIN) -> float:
    """U = log2(G!) / D with D = log2 G - H(next | previous)."""
    g = len(symbols)
    d = math.log2(g) - bigram_conditional_entropy(text, alpha, symbols)
    return log2_factorial(g) / d


def bigram_nll(plaintext: str, corpus: str, alpha: float = 0.5, symbols: str = LATIN) -> float:
    """-log2 P(plaintext) in bits under the bigram model fitted on the
    corpus; the first letter is free context and is not charged."""
    counts = bigram_counts(corpus, symbols)
    index = {s: i for i, s in enumerate(symbols)}
    g = len(symbols)
    nll = 0.0
    for a, b in zip(plaintext, plaintext[1:]):
        row = counts[index[a]]
        nll -= math.log2((row[index[b]] + alpha) / (sum(row) + alpha * g))
    return nll


# ---------------------------------------------------------------- orbits


def decode(code: int, g: int, n: int) -> tuple[int, ...]:
    """Base-g code (most significant digit first) -> letter indices."""
    digits = []
    for _ in range(n):
        code, d = divmod(code, g)
        digits.append(d)
    return tuple(reversed(digits))


def pattern(message) -> tuple[int, ...]:
    """Equality pattern: each letter replaced by the rank of its first
    occurrence, so two messages share an S_G orbit iff patterns match."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(c, len(first)) for c in message)


def spurious_counts(language, g: int) -> list[int]:
    """Spurious-key count of each message under substitution: the wrong
    keys that decrypt its ciphertext to a member of the language,
    |L ∩ orbit(m)| * (G - k)! - 1, whatever the true key."""
    orbit_sizes = Counter(pattern(m) for m in language)
    return [
        orbit_sizes[pattern(m)] * math.factorial(g - len(set(m))) - 1 for m in language
    ]


def mean_spurious(language, g: int) -> float:
    """Exact mean spurious-key count over (true key, message) cells."""
    counts = spurious_counts(language, g)
    return sum(counts) / len(counts)


def pattern_class_entropy(language) -> float:
    """H(pattern class of P) for P uniform on the language. Under a
    uniform substitution key this equals I(P; C): given its orbit, C is
    uniform on the orbit whether or not P is known."""
    m = len(language)
    h = 0.0
    for c in Counter(pattern(msg) for msg in language).values():
        h -= c / m * math.log2(c / m)
    return h


def theoretical_mutual_information(n: int, g: int) -> tuple[float, bool]:
    """Idealized max(0, N log2 G - log2 G!) and whether it was clamped."""
    raw = n * math.log2(g) - log2_factorial(g)
    return (raw, False) if raw > 0 else (0.0, True)


def redundancy(g: int, n: int, size: int) -> float:
    """Per-letter redundancy of a uniform language of `size` messages."""
    return math.log2(g) - math.log2(size) / n


def min_reliable_length(g: int, n: int, size: int) -> float:
    """log2(G!) / (log2 G - R) with R = log2(size) / N."""
    return log2_factorial(g) / redundancy(g, n, size)


def expected_spurious_log2(g: int, n: int, size: int) -> float:
    """Random-cipher estimate log2((G! - 1) * 2**(-N D))."""
    return math.log2(math.factorial(g) - 1) - n * redundancy(g, n, size)
