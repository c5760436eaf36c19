import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from brute_force import (
    key_tuples,
    monte_carlo_estimates,
    rejection_sample,
    small_instances,
    spurious_count,
)
from unicity import (
    SHIFT,
    SUBSTITUTION,
    Alphabet,
    KeySpace,
    MonteCarloEstimate,
    ToyLanguage,
    build_toy_language,
    exhaustive_spurious_counts,
    expected_spurious_keys,
    monte_carlo_spurious,
    unicity_distance,
)


class TestUnicityDistance:
    def test_english_substitution(self):
        assert abs(unicity_distance(88.3817, 3.2) - 27.62) < 0.01

    def test_shift(self):
        assert abs(unicity_distance(4.7004, 3.2) - 1.469) < 0.001

    def test_zero_redundancy_unbounded(self):
        assert unicity_distance(88.0, 0.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            unicity_distance(-1.0, 3.2)
        with pytest.raises(ValueError):
            unicity_distance(1.0, -0.5)

    def test_product_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            h = float(rng.uniform(0.01, 200))
            d = float(rng.uniform(1e-6, 4.7))
            u = unicity_distance(h, d)
            assert abs(u * d - h) <= 1e-9 * max(1.0, h)


class TestExpectedSpurious:
    def test_exact_rational_case(self):
        exp = expected_spurious_keys(math.log2(24), 1.0, 3)
        oracle = Fraction(24 - 1, 2**3)
        assert exp.linear is not None
        assert abs(exp.linear - float(oracle)) < 1e-12
        assert abs(exp.log2_exact - math.log2(float(oracle))) < 1e-12

    def test_zero_length(self):
        exp = expected_spurious_keys(math.log2(24), 1.0, 0)
        assert abs(exp.linear - 23.0) < 1e-9

    def test_brackets_unicity_point(self):
        h = sum(math.log2(k) for k in range(2, 27))
        below = expected_spurious_keys(h, 3.2, 27)
        above = expected_spurious_keys(h, 3.2, 28)
        assert below.linear >= 1.0
        assert above.linear < 1.0

    def test_strictly_decreasing_in_length(self):
        vals = [expected_spurious_keys(10.0, 0.8, n).log2_exact for n in range(30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_constant_when_redundancy_zero(self):
        vals = [expected_spurious_keys(10.0, 0.0, n).log2_exact for n in range(10)]
        assert all(v == vals[0] for v in vals)

    def test_approximation_bound_and_gap(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            h = float(rng.uniform(0.1, 40))
            d = float(rng.uniform(0, 3))
            n = int(rng.integers(0, 20))
            exp = expected_spurious_keys(h, d, n)
            assert exp.log2_exact <= exp.log2_approx
            if exp.linear is not None:
                approx_lin = 2.0**exp.log2_approx
                assert exp.linear <= approx_lin + 1e-12
                # dropping the -1 adds exactly 2**(-N*D); 2**x amplifies
                # log-domain rounding by ~value*|x|*eps, and the identity is
                # a difference of two near-equal values
                gap = 2.0 ** (-n * d)
                tol = 1e-9 * max(1.0, gap) + approx_lin * (abs(exp.log2_approx) + 2) * 1e-14
                assert abs((approx_lin - exp.linear) - gap) < tol

    def test_large_entropy_stays_in_log_domain(self):
        exp = expected_spurious_keys(400.0, 3.2, 10)
        assert exp.linear is None
        assert abs(exp.log2_exact - (400.0 - 32.0)) < 1e-9

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            expected_spurious_keys(1.0, 1.0, -1)


class TestToyLanguage:
    def test_g4_n3_r1(self):
        toy = build_toy_language(Alphabet.first_n(4), 3, 1.0, seed=0)
        assert toy.size == 8
        assert toy.rate == 1.0
        assert np.unique(toy.codes).size == 8
        assert toy.messages.shape == (8, 3)

    def test_full_space(self):
        toy = build_toy_language(Alphabet.first_n(2), 2, 1.0, seed=1)
        assert toy.size == 4
        assert sorted(toy.codes.tolist()) == [0, 1, 2, 3]

    def test_boundary_arithmetic(self):
        ab = Alphabet.first_n(4)
        toy = build_toy_language(ab, 3, 1.9, seed=2)
        assert toy.size == round(2 ** (1.9 * 3))  # 52 of 64
        with pytest.raises(ValueError):
            build_toy_language(ab, 3, 2.1, seed=2)  # 79 > 64
        with pytest.raises(ValueError):
            build_toy_language(ab, 3, 400.0, seed=2)  # 2**1200 overflows a float

    def test_rate_matches_size(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            r_max = math.log2(g)
            r = float(rng.uniform(0, r_max))
            toy = build_toy_language(Alphabet.first_n(g), n, r, seed=int(rng.integers(1 << 30)))
            assert abs(toy.rate - math.log2(toy.size) / n) < 1e-12
            assert toy.size <= g**n

    def test_full_language_rate_is_absolute_rate(self):
        """A language of all G**N codes has rate exactly log2(G), though
        log2(G**N) / N rounds above it at G=3, N=5 and below it at G=11,
        N=3."""
        for g in range(2, 27):
            ab = Alphabet.first_n(g)
            n = 1
            while g**n <= 1 << 20:
                toy = ToyLanguage(alphabet=ab, length=n, codes=np.arange(g**n))
                assert toy.rate == math.log2(g), (g, n)
                n += 1

    def test_deterministic_by_seed(self):
        ab = Alphabet.first_n(5)
        a = build_toy_language(ab, 3, 1.2, seed=9)
        b = build_toy_language(ab, 3, 1.2, seed=9)
        c = build_toy_language(ab, 3, 1.2, seed=10)
        assert np.array_equal(a.codes, b.codes)
        assert not np.array_equal(a.codes, c.codes)

    def test_membership(self):
        toy = build_toy_language(Alphabet.first_n(4), 3, 1.0, seed=4)
        assert toy.contains_codes(toy.codes).all()
        outside = np.setdiff1d(np.arange(64), toy.codes)
        assert not toy.contains_codes(outside).any()

    @pytest.mark.parametrize(
        "g, n, want", [(3, 14, 1), (3, 14, 20_000), (2, 23, 5_000), (26, 5, 30_000)]
    )
    def test_rejection_sampler_matches_per_draw_reference(self, g, n, want):
        """Past 2**22 sequences the language is the first `want` distinct
        codes in draw order; at these sizes some draws repeat, within a
        batch and across batches."""
        assert g**n > 1 << 22
        toy = build_toy_language(Alphabet.first_n(g), n, math.log2(want) / n, seed=6)
        assert toy.size == want
        reference = rejection_sample(g**n, want, np.random.default_rng((6, n)))
        assert np.array_equal(toy.codes, np.sort(reference))


class TestCountSpurious:
    def test_full_space_language_always_23(self):
        ab = Alphabet.first_n(4)
        space = KeySpace(SUBSTITUTION, ab)
        toy = build_toy_language(ab, 3, 2.0, seed=1)  # all 64 messages
        assert (exhaustive_spurious_counts(space, toy) == 23).all()

    def test_matrix_matches_pure_python_oracle(self):
        """The orbit counts against a from-scratch count for every true
        key, G <= 4, N <= 3, both ciphers: each entry equals the brute
        count whichever key encrypted the message."""
        for space, toy in small_instances(seed=7):
            got = exhaustive_spurious_counts(space, toy)
            assert got.shape == (toy.size,)
            assert all(type(c) is int for c in got)  # exact, never int64
            keys = key_tuples(space.kind, space.alphabet.size)
            members = {tuple(m.tolist()) for m in toy.messages}
            for key in keys:
                for mi, msg in enumerate(toy.messages.tolist()):
                    assert got[mi] == spurious_count(keys, members, key, msg)

    def test_grand_mean_matches_combinatorial_expectation(self):
        """Independent oracle for the exhaustive counter: under uniform
        random distinct-set toys, E[count] = sum over non-identity
        permutations p of Pr[p fixes the plaintext] * 1 +
        Pr[not fixed] * (m-1)/(T-1), with Pr[fixed] = f(p)**N / T.
        """
        ab = Alphabet.first_n(4)
        space = KeySpace(SUBSTITUTION, ab)
        g, n, m = 4, 3, 8
        t = g**n
        expected = 0.0
        for perm in itertools.permutations(range(g)):
            if perm == tuple(range(g)):
                continue
            fixed = sum(1 for i in range(g) if perm[i] == i)
            p_fix = fixed**n / t
            expected += p_fix + (1 - p_fix) * (m - 1) / (t - 1)

        seeds = 300
        means = np.empty(seeds)
        for s in range(seeds):
            toy = build_toy_language(ab, n, 1.0, seed=s)
            means[s] = exhaustive_spurious_counts(space, toy).mean()
        grand = means.mean()
        se = means.std(ddof=1) / math.sqrt(seeds)
        assert abs(grand - expected) <= 3 * se
        # and the combinatorial value is what it is: 10/3 at these sizes
        assert abs(expected - 10 / 3) < 1e-12


class TestMonteCarlo:
    def test_matches_exhaustive(self):
        ab = Alphabet.first_n(4)
        space = KeySpace(SUBSTITUTION, ab)
        toy = build_toy_language(ab, 3, 1.0, seed=21)
        exact = exhaustive_spurious_counts(space, toy).mean()
        (est,) = monte_carlo_spurious(space, [toy], 3, 400, [5])
        assert est.se > 0
        assert abs(est.mean - exact) <= 3 * est.se

    @pytest.mark.parametrize("kind", [SUBSTITUTION, SHIFT])
    @pytest.mark.parametrize("g, n, rate", [(2, 3, 1.0), (3, 3, 1.0), (4, 3, 1.5), (6, 4, 2.0)])
    @pytest.mark.parametrize("keys_per_trial", [1, 2, 50])
    def test_matches_per_candidate_reference(self, kind, g, n, rate, keys_per_trial):
        ab = Alphabet.first_n(g)
        space = KeySpace(kind, ab)
        toy = build_toy_language(ab, n, rate, seed=g)
        (est,) = monte_carlo_spurious(space, [toy], n, 6, [3], keys_per_trial=keys_per_trial)
        reference = np.array(monte_carlo_estimates(space, toy, 6, 3, keys_per_trial))
        assert est.mean == reference.mean()
        assert est.se == reference.std(ddof=1) / math.sqrt(6)

    @pytest.mark.parametrize("kind", [SUBSTITUTION, SHIFT])
    @pytest.mark.parametrize("trials", [1, 2, 9, 37])
    def test_block_gives_each_construction_its_own_estimate(self, kind, trials):
        """A block of constructions, some sharing a language or a seed,
        gives each the estimate it gets alone, whatever its place."""
        ab = Alphabet.first_n(3)
        space = KeySpace(kind, ab)
        toys = [build_toy_language(ab, 3, 1.2, seed=s) for s in (0, 1, 1, 2)]
        seeds = [7, 7, 8, 9]
        block = monte_carlo_spurious(space, toys, 3, trials, seeds, keys_per_trial=5)
        alone = [monte_carlo_spurious(space, [toy], 3, trials, [seed], keys_per_trial=5)[0]
                 for toy, seed in zip(toys, seeds)]
        assert len(block) == 4
        for got, want in zip(block, alone):
            assert got.mean == want.mean
            assert got.se == want.se or math.isnan(got.se) and math.isnan(want.se)
        reverse = monte_carlo_spurious(space, toys[::-1], 3, trials, seeds[::-1], keys_per_trial=5)
        assert [e.mean for e in reverse] == [e.mean for e in block[::-1]]

    def test_one_key_space_has_no_spurious_keys(self, monkeypatch):
        """With a single key there is no wrong key to draw: the estimate
        is 0, no generator is made and no key is sampled."""
        one = Alphabet.first_n(1)
        toy = build_toy_language(one, 3, 0.0, seed=0)  # the one message AAA

        def no_draw(*args, **kwargs):
            raise AssertionError("no key should be drawn")

        monkeypatch.setattr(KeySpace, "sample", no_draw)
        monkeypatch.setattr(KeySpace, "sample_mappings", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        space = KeySpace(SUBSTITUTION, one)
        assert monte_carlo_spurious(space, [toy, toy], 3, 4, [0, 1]) == [
            MonteCarloEstimate(mean=0.0, se=0.0)] * 2
        (single,) = monte_carlo_spurious(space, [toy], 3, 1, [0])
        assert single.mean == 0.0 and math.isnan(single.se)

    def test_single_trial_se_undefined(self):
        ab = Alphabet.first_n(4)
        space = KeySpace(SUBSTITUTION, ab)
        toy = build_toy_language(ab, 3, 1.0, seed=22)
        (est,) = monte_carlo_spurious(space, [toy], 3, 1, [0])
        assert math.isnan(est.se)

    def test_deterministic(self):
        ab = Alphabet.first_n(4)
        space = KeySpace(SUBSTITUTION, ab)
        toy = build_toy_language(ab, 3, 1.0, seed=23)
        a = monte_carlo_spurious(space, [toy], 3, 37, [77])
        b = monte_carlo_spurious(space, [toy], 3, 37, [77])
        assert a == b

    def test_trials_validation(self):
        ab = Alphabet.first_n(4)
        space = KeySpace(SUBSTITUTION, ab)
        toy = build_toy_language(ab, 3, 1.0, seed=1)
        longer = build_toy_language(ab, 4, 1.0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_spurious(space, [toy], 3, 0, [0])
        with pytest.raises(ValueError):
            monte_carlo_spurious(space, [toy], 3, 2, [0], keys_per_trial=0)
        with pytest.raises(ValueError):
            monte_carlo_spurious(space, [toy], 4, 2, [0])  # not its length
        with pytest.raises(ValueError):
            monte_carlo_spurious(space, [toy, longer], 3, 2, [0, 1])  # one of two lengths
        with pytest.raises(ValueError):
            monte_carlo_spurious(space, [toy, toy], 3, 2, [0])  # a seed short


class TestUnicityReport:
    """The table and crossing the `unicity` command reports, computed from
    expected_spurious_keys and unicity_distance."""

    def test_table_and_crossing(self):
        h = sum(math.log2(k) for k in range(2, 27))
        table = [expected_spurious_keys(h, 3.2, n) for n in range(0, 51)]
        assert abs(unicity_distance(h, 3.2) - 27.6193) < 1e-3
        below = [n for n, row in enumerate(table) if row.log2_exact < 0]
        assert below[0] == 28
        assert len(table) == 51
        logs = [row.log2_exact for row in table]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_unbounded(self):
        assert unicity_distance(10.0, 0.0) == math.inf
        table = [expected_spurious_keys(10.0, 0.0, n) for n in (1, 2, 3)]
        assert all(row.log2_exact >= 0 for row in table)
