"""Encryption viewed as a discrete channel with the key as noise.

The idealized mutual information is the straight line N*R0 - H(K)
(`theoretical_mutual_information`). N*R bits of message get through
reliably when N*R <= N*R0 - H(K), that is from the crossover length
H(K)/(R0 - R) on, which is the unicity distance (`reliability_check`).
For toy languages the exact mutual information follows from the key
group's orbits: under a uniform key, the ciphertext of a message is
uniform on the message's orbit, so I(P;C) is the entropy of the orbit
class of P. Both chain-rule decompositions are evaluated separately
from the class counts and orbit sizes (`mutual_information`). The CLI's
`channel` command puts the three side by side, one row per length.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cipher import KeySpace
from .spurious import ToyLanguage, unicity_distance


class TheoreticalMI(NamedTuple):
    bits: float
    clamped: bool


def theoretical_mutual_information(
    length: float, rate_max: float, key_entropy_bits: float
) -> TheoreticalMI:
    """Idealized plaintext/ciphertext mutual information N*R0 - H(K),
    clamped to zero below the break-even length H(K)/R0 where the cipher
    still acts like a one-time pad."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    if rate_max < 0:
        raise ValueError("rate_max must be nonnegative")
    if key_entropy_bits < 0:
        raise ValueError("key entropy must be nonnegative")
    raw = length * rate_max - key_entropy_bits
    if raw <= 0:
        return TheoreticalMI(bits=0.0, clamped=True)
    return TheoreticalMI(bits=raw, clamped=False)


class Reliability(NamedTuple):
    reliable: bool
    min_length: float


def reliability_check(
    length: float, rate: float, rate_max: float, key_entropy_bits: float
) -> Reliability:
    """Is N*R within the idealized capacity N*R0 - H(K)?

    min_length is the crossover H(K)/(R0-R); it coincides with the
    unicity distance for redundancy R0-R.
    """
    if rate > rate_max:
        raise ValueError("rate cannot exceed rate_max")
    reliable = length * rate <= length * rate_max - key_entropy_bits
    if rate < rate_max:
        min_length = unicity_distance(key_entropy_bits, rate_max - rate)
    else:
        min_length = 0.0 if key_entropy_bits == 0 else math.inf
    return Reliability(reliable=reliable, min_length=min_length)


def mutual_information(language: ToyLanguage, space: KeySpace) -> tuple[float, float]:
    """I(P;C) for a uniform member of the language under a uniform key,
    by both chain-rule decompositions: H(P) - H(P|C) and H(C) - H(C|P).

    C given P = m is uniform on m's orbit O, of size K/|Stab(m)|. Given
    C in O, P is uniform over the n_O members in O, so I_A needs only the
    class counts. I_B sums over ciphertexts, each point of O having
    probability n_O/(M*|O|), and takes H(C|P) per message, so it also
    needs the orbit sizes. Both sum over the classes of
    `KeySpace.orbit_summary`; orbit sizes stay in the log domain, taken
    from the exact stabilizer sizes, so they are finite at every G.
    """
    m = language.size
    index, n_o, _, log2_stab = space.orbit_summary(language.messages)
    log2_orbit = space.key_entropy_bits - log2_stab
    class_p = n_o / m
    h_p = math.log2(m)
    i_a = h_p - float(class_p @ np.log2(n_o))
    h_c = float(class_p @ (h_p + log2_orbit - np.log2(n_o)))
    i_b = h_c - float(log2_orbit[index].mean())
    return i_a, i_b
