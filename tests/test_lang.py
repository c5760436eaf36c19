import itertools
import math
import random
import string

import numpy as np
import pytest

from unicity import (
    Alphabet,
    EmptyTextError,
    NGramModel,
    absolute_rate,
    fit_ngram,
    normalize_text,
    redundancy,
)
from unicity.lang import decode_codes, encode_rows


class TestAlphabet:
    def test_latin_size(self, latin):
        assert latin.size == 26
        assert latin.symbols[0] == "A" and latin.symbols[-1] == "Z"

    def test_encode_decode_inverse(self, latin):
        codes = latin.encode("HELLO")
        assert latin.decode(codes) == "HELLO"
        assert list(codes) == [7, 4, 11, 11, 14]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("A", "A"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_encode_rejects_unknown(self, latin):
        with pytest.raises(ValueError):
            latin.encode("abc?")


class TestNormalize:
    def test_basic(self, latin):
        assert normalize_text("Cat, dog!", latin) == "CATDOG"

    def test_empty_signals(self, latin):
        with pytest.raises(EmptyTextError):
            normalize_text("", latin)
        with pytest.raises(EmptyTextError):
            normalize_text("123 !?", latin)

    def test_filters_to_alphabet(self):
        ab = Alphabet(("A", "B"))
        assert normalize_text("a1b2c3", ab) == "AB"

    def test_idempotent_random(self, latin):
        rnd = random.Random(42)
        pool = string.printable
        for _ in range(200):
            raw = "".join(rnd.choice(pool) for _ in range(rnd.randint(1, 80)))
            try:
                once = normalize_text(raw, latin)
            except EmptyTextError:
                continue
            assert normalize_text(once, latin) == once


class TestAbsoluteRate:
    def test_g26(self, latin):
        assert abs(absolute_rate(latin) - 4.700439718141092) < 1e-12

    def test_exact_powers(self):
        assert absolute_rate(Alphabet.first_n(2)) == 1.0
        assert absolute_rate(Alphabet.first_n(4)) == 2.0


class TestFit:
    def test_window_counts_abab(self):
        ab = Alphabet(("A", "B"))
        model = fit_ngram(ab.encode("ABAB"), order=2, alpha=1.0, alphabet=ab)
        # contexts are rows: count[A][B] = 2, count[B][A] = 1
        assert model.counts[0, 1] == 2
        assert model.counts[1, 0] == 1
        assert model.counts[0, 0] == 0 and model.counts[1, 1] == 0

    def test_uniform_million(self, latin):
        rng = np.random.default_rng(1234)
        codes = rng.integers(0, 26, size=1_000_000)
        model = fit_ngram(codes, order=1, alpha=1.0, alphabet=latin)
        probs = model.conditional_probs[0]
        assert np.all(np.abs(probs - 1 / 26) < 0.002)

    def test_degenerate_alpha_limit(self):
        ab = Alphabet(("A", "B"))
        codes = ab.encode("AAAA")
        p_half = fit_ngram(codes, 2, alpha=0.5, alphabet=ab).conditional_probs[0, 0]
        p_tiny = fit_ngram(codes, 2, alpha=1e-9, alphabet=ab).conditional_probs[0, 0]
        assert p_tiny > p_half
        assert abs(p_tiny - 1.0) < 1e-8

    @pytest.mark.parametrize("alpha", [5e-324, 1e-320, 1e307])
    def test_alpha_that_rounds_a_probability_to_zero_refused(self, latin, english_codes, alpha):
        """A tiny alpha underflows the smoothed probability of an unseen
        window, and a huge one overflows alpha * G, so every probability
        is 0. Either model is refused before a log is taken."""
        with pytest.raises(ValueError, match="alpha"):
            fit_ngram(english_codes, 2, alpha=alpha, alphabet=latin)

    def test_extreme_alpha_with_positive_probabilities_kept(self, latin, english_codes):
        for alpha in (1e-300, 1e306):
            model = fit_ngram(english_codes, 2, alpha=alpha, alphabet=latin)
            assert np.isfinite(model.nll_flat).all()

    def test_too_short_corpus(self, latin):
        with pytest.raises(ValueError):
            fit_ngram(latin.encode("AB"), order=3, alphabet=latin)

    def test_counts_immutable(self, bigram_model):
        with pytest.raises(ValueError):
            bigram_model.counts[0, 0] = 99


class TestEntropyRate:
    def test_uniform_model_exact(self, latin):
        model = NGramModel(latin, 1, 0.5, np.ones((1, 26), dtype=np.int64), total_symbols=0)
        assert abs(model.entropy_rate() - math.log2(26)) < 1e-9
        est = redundancy(model)
        assert abs(est.redundancy) < 1e-9

    def test_uniform_fit_converges(self, latin):
        rng = np.random.default_rng(99)
        codes = rng.integers(0, 26, size=1_000_000)
        model = fit_ngram(codes, order=1, alpha=1.0, alphabet=latin)
        assert abs(model.entropy_rate() - 4.700439718141092) < 0.01

    def test_deterministic_source_near_zero(self, latin):
        counts = np.zeros((1, 26), dtype=np.int64)
        counts[0, 0] = 10**15
        model = NGramModel(latin, 1, 0.5, counts, total_symbols=10**15)
        assert model.entropy_rate() < 1e-9
        est = redundancy(model)
        assert abs(est.redundancy - 4.700439718141092) < 1e-9

    def test_bounds_random_corpora(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = int(rng.integers(2, 9))
            order = int(rng.integers(1, 4))
            ab = Alphabet.first_n(g)
            n = int(rng.integers(order + 1, 500))
            codes = rng.integers(0, g, size=n)
            model = fit_ngram(codes, order, alpha=float(rng.uniform(0.01, 2)), alphabet=ab)
            h = model.entropy_rate()
            assert 0.0 <= h <= math.log2(g) + 1e-12

    def test_rows_sum_to_one(self, trigram_model):
        sums = trigram_model.conditional_probs.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


class TestRedundancy:
    def test_english_order2(self, bigram_model):
        est = redundancy(bigram_model)
        assert abs(est.absolute_rate - 4.700439718141092) < 1e-12
        # finite-order estimate on a small corpus: positive, below R0
        assert 0.0 < est.redundancy < est.absolute_rate
        assert abs(est.redundancy - (est.absolute_rate - est.entropy_rate)) < 1e-15


class TestSequenceLikelihood:
    def test_uniform_two_symbols(self):
        ab = Alphabet.first_n(2)
        model = NGramModel(ab, 1, 0.5, np.ones((1, 2), dtype=np.int64), total_symbols=0)
        assert abs(model.sequence_nll(ab.encode("AB")) - 2.0) < 1e-12

    def test_rare_symbol_cost_grows_as_alpha_shrinks(self):
        ab = Alphabet.first_n(2)
        codes = ab.encode("AAAAAAAA")
        nlls = []
        for alpha in (0.5, 1e-3, 1e-6):
            model = fit_ngram(codes, 1, alpha=alpha, alphabet=ab)
            nll = model.sequence_nll(ab.encode("B"))
            assert math.isfinite(nll)
            nlls.append(nll)
        assert nlls[0] < nlls[1] < nlls[2]

    def test_matches_brute_force_product(self, latin):
        rng = np.random.default_rng(5)
        corpus = rng.integers(0, 26, size=4000)
        for order in (1, 2, 3):
            model = fit_ngram(corpus, order, alpha=0.7, alphabet=latin)
            probs = model.conditional_probs
            for _ in range(20):
                seq = rng.integers(0, 26, size=5)
                product = 1.0
                for i in range(order - 1, 5):
                    ctx = 0
                    for j in range(i - order + 1, i):
                        ctx = ctx * 26 + int(seq[j])
                    product *= probs[ctx, int(seq[i])]
                expected = -math.log2(product)
                got = model.sequence_nll(seq)
                assert abs(got - expected) < 1e-9

    def test_too_short(self, trigram_model, latin):
        with pytest.raises(ValueError):
            trigram_model.sequence_nll(latin.encode("AB"))

    def test_monotone_in_length(self, bigram_model, latin):
        rng = np.random.default_rng(17)
        seq = rng.integers(0, 26, size=60)
        whole = bigram_model.sequence_nll(seq)
        for cut in (2, 10, 30, 59):
            assert whole >= bigram_model.sequence_nll(seq[:cut]) - 1e-12
            assert whole >= bigram_model.sequence_nll(seq[cut - 2 :]) - 1e-12

class TestBaseCodes:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for g, width in ((2, 1), (4, 3), (26, 5), (26, 13)):
            rows = rng.integers(0, g, size=(50, width))
            codes = encode_rows(rows, g)
            assert np.array_equal(decode_codes(codes, g, width), rows)

    def test_codes_count_in_base_g(self):
        """Codes enumerate every row in lexicographic order."""
        rows = np.array(list(itertools.product(range(3), repeat=4)))
        assert np.array_equal(encode_rows(rows, 3), np.arange(81))
        assert encode_rows(np.array([1, 0, 2]), 10) == 102
