import pytest
from hypothesis import settings

from unicity import Alphabet, fit_ngram, normalize_text

from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CORPUS_PATH = DATA_DIR / "english_sample.txt"

# Hypothesis profiles. "tier1", the default, checks the same 300 examples
# on every run; `pytest --hypothesis-profile wide` searches 3,000 fresh
# ones. Neither keeps an example database.
settings.register_profile("tier1", max_examples=300, derandomize=True, database=None)
settings.register_profile("wide", max_examples=3000, derandomize=False, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def latin():
    return Alphabet.latin()


@pytest.fixture(scope="session")
def english_codes(latin):
    text = normalize_text(CORPUS_PATH.read_text(encoding="utf-8"), latin)
    return latin.encode(text)


@pytest.fixture(scope="session")
def english_split(english_codes):
    half = english_codes.size // 2
    return english_codes[:half], english_codes[half:]


@pytest.fixture(scope="session")
def bigram_model(latin, english_split):
    train, _ = english_split
    return fit_ngram(train, order=2, alpha=0.5, alphabet=latin)


@pytest.fixture(scope="session")
def trigram_model(latin, english_codes):
    return fit_ngram(english_codes, order=3, alpha=0.5, alphabet=latin)
