"""Desk-scale toolkit for unicity-distance experiments: language
redundancy estimation, substitution-cipher key spaces, spurious-key
counting, the encryption-as-channel view, and MCMC key recovery."""

from .lang import (
    Alphabet,
    EmptyTextError,
    NGramModel,
    RedundancyEstimate,
    UsageError,
    absolute_rate,
    fit_ngram,
    normalize_text,
    redundancy,
)
from .cipher import (
    SHIFT,
    SUBSTITUTION,
    KeySpace,
    SubstitutionKey,
    decrypt,
    encrypt,
)
from .spurious import (
    SpuriousExpectation,
    ToyLanguage,
    build_toy_language,
    exhaustive_spurious_counts,
    expected_spurious_keys,
    monte_carlo_spurious,
    unicity_distance,
)
from .channel import (
    mutual_information,
    reliability_check,
    theoretical_mutual_information,
)
from .attack import (
    AttackConfig,
    AttackResult,
    mcmc_crack,
    recovery_curve,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AttackConfig",
    "AttackResult",
    "EmptyTextError",
    "KeySpace",
    "NGramModel",
    "RedundancyEstimate",
    "SHIFT",
    "SUBSTITUTION",
    "SpuriousExpectation",
    "SubstitutionKey",
    "ToyLanguage",
    "UsageError",
    "absolute_rate",
    "build_toy_language",
    "decrypt",
    "encrypt",
    "exhaustive_spurious_counts",
    "expected_spurious_keys",
    "fit_ngram",
    "mcmc_crack",
    "monte_carlo_spurious",
    "mutual_information",
    "normalize_text",
    "recovery_curve",
    "redundancy",
    "unicity_distance",
    "__version__",
]
