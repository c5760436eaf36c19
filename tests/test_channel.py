import itertools
import math

import numpy as np
import pytest

from brute_force import dense_joint_oracle, key_tuples, mi_from_dense, small_instances
from unicity import (
    SHIFT,
    SUBSTITUTION,
    Alphabet,
    KeySpace,
    absolute_rate,
    build_toy_language,
    mutual_information,
    reliability_check,
    theoretical_mutual_information,
    unicity_distance,
)


class TestTheoreticalMI:
    def test_direct_arithmetic(self):
        got = theoretical_mutual_information(3, 2.0, math.log2(24))
        assert not got.clamped
        assert abs(got.bits - (6 - math.log2(24))) < 1e-12
        assert abs(got.bits - 1.4150374992788437) < 1e-12

    def test_zero_length_clamps(self):
        got = theoretical_mutual_information(0, 2.0, 5.0)
        assert got.bits == 0.0 and got.clamped

    def test_boundary_clamps(self):
        h = 6.0
        got = theoretical_mutual_information(h / 2.0, 2.0, h)
        assert got.bits == 0.0 and got.clamped

    def test_piecewise_linear_single_kink(self):
        h, r0 = math.log2(24), 2.0
        ns = np.linspace(0, 3 * h / r0, 301)
        vals = [theoretical_mutual_information(float(n), r0, h).bits for n in ns]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))  # nondecreasing
        flags = [theoretical_mutual_information(float(n), r0, h).clamped for n in ns]
        # clamp region is a prefix: once unclamped, never clamps again
        first_unclamped = flags.index(False)
        assert all(not f for f in flags[first_unclamped:])

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_mutual_information(-1, 2.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_mutual_information(1, -0.5, 1.0)
        with pytest.raises(ValueError):
            theoretical_mutual_information(1, 2.0, -1.0)


class TestReliability:
    def test_unreliable_short(self):
        got = reliability_check(3, 1.0, 2.0, math.log2(24))
        assert not got.reliable
        assert abs(got.min_length - math.log2(24)) < 1e-12

    def test_reliable_long(self):
        got = reliability_check(5, 1.0, 2.0, math.log2(24))
        assert got.reliable

    def test_no_key_uncertainty(self):
        for n in (0, 1, 10):
            got = reliability_check(n, 2.0, 2.0, 0.0)
            assert got.reliable
            assert got.min_length == 0.0

    def test_full_rate_with_key_entropy_never_reliable(self):
        got = reliability_check(100, 2.0, 2.0, 1.0)
        assert not got.reliable
        assert got.min_length == math.inf

    def test_rate_above_max_rejected(self):
        with pytest.raises(ValueError):
            reliability_check(1, 3.0, 2.0, 1.0)

    def test_flips_once_at_min_length(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            h = float(rng.uniform(0.5, 60))
            r0 = float(rng.uniform(1, 6))
            r = r0 * float(rng.uniform(0.05, 0.95))
            n_min = reliability_check(1, r, r0, h).min_length
            assert reliability_check(n_min * 0.999, r, r0, h).reliable is False
            assert reliability_check(n_min * 1.001, r, r0, h).reliable is True
            assert n_min == unicity_distance(h, r0 - r)


class TestJointDistribution:
    def test_one_time_pad_structure(self):
        """Both one-letter messages over two letters form one orbit, so
        the ciphertext says nothing about the plaintext."""
        ab = Alphabet.first_n(2)
        toy = build_toy_language(ab, 1, 1.0, seed=0)  # both messages
        for kind in (SUBSTITUTION, SHIFT):
            space = KeySpace(kind, ab)
            _, n_o, _, _ = space.orbit_summary(toy.messages)
            assert n_o.tolist() == [2]
            i_a, i_b = mutual_information(toy, space)
            assert abs(i_a) <= 1e-9 and abs(i_b) <= 1e-9

    def test_every_ciphertext_is_a_key_image_of_a_message(self):
        """Orbit classes and stabilizer sizes against the key images of
        every message, G <= 4, N <= 3, both ciphers: two messages share a
        class iff some key maps one onto the other, n_o counts its
        members, and the stabilizer size is the number of keys that fix
        each of them."""
        for g in (2, 3, 4):
            for n in (1, 2, 3):
                msgs = list(itertools.product(range(g), repeat=n))
                for kind in (SUBSTITUTION, SHIFT):
                    space = KeySpace(kind, Alphabet.first_n(g))
                    index, n_o, stab, log2_stab = space.orbit_summary(np.array(msgs))
                    keys = key_tuples(kind, g)
                    for mi, msg in enumerate(msgs):
                        images = [tuple(key[s] for s in msg) for key in keys]
                        same_class = {msgs[j] for j in np.flatnonzero(index == index[mi])}
                        assert same_class == set(images)
                        assert n_o[index[mi]] == len(same_class)
                        assert stab[index[mi]] == images.count(msg)
                    assert log2_stab.tolist() == [math.log2(s) for s in stab]


class TestEmpiricalMI:
    def test_decompositions_agree_and_match_oracle(self):
        for space, toy in small_instances(seed=9):
            i_a, i_b = mutual_information(toy, space)
            oracle = mi_from_dense(dense_joint_oracle(toy, key_tuples(space.kind, space.alphabet.size)))
            assert abs(i_a - oracle) <= 1e-9
            assert abs(i_b - oracle) <= 1e-9

    def test_mi_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            ab = Alphabet.first_n(g)
            rate = float(rng.uniform(0.1, math.log2(g)))
            toy = build_toy_language(ab, n, rate, seed=int(rng.integers(1 << 20)))
            for kind in (SUBSTITUTION, SHIFT):
                for i in mutual_information(toy, KeySpace(kind, ab)):
                    assert -1e-9 <= i <= math.log2(toy.size) + 1e-9

    def test_large_alphabet_stays_in_log_domain(self):
        """At G = 26 a message's stabilizer has at least 22! elements,
        past int64; both decompositions still agree."""
        ab = Alphabet.first_n(26)
        toy = build_toy_language(ab, 4, 2.0, seed=2)
        i_a, i_b = mutual_information(toy, KeySpace(SUBSTITUTION, ab))
        assert abs(i_a - i_b) <= 1e-9
        assert 0.0 <= i_a <= math.log2(toy.size)


class TestChannelReport:
    """The quantities the `channel` command reports for one toy language,
    computed from the channel functions it composes."""

    def test_fields_roundtrip(self):
        ab = Alphabet.first_n(4)
        toy = build_toy_language(ab, 3, 1.0, seed=5)
        space = KeySpace(SUBSTITUTION, ab)
        r0 = absolute_rate(ab)
        h_k = space.key_entropy_bits
        theo = theoretical_mutual_information(toy.length, r0, h_k)
        i_a, i_b = mutual_information(toy, space)
        rel = reliability_check(toy.length, toy.rate, r0, h_k)
        assert toy.length == 3
        assert abs(r0 - 2.0) < 1e-12
        assert abs(toy.rate - 1.0) < 1e-12
        assert abs(h_k - math.log2(24)) < 1e-12
        assert abs(theo.bits - (6 - math.log2(24))) < 1e-12
        assert not theo.clamped
        assert abs(i_a - i_b) <= 1e-9
        assert not rel.reliable  # N=3 < N_min = log2(24)/(2-1) = 4.585
        assert abs(rel.min_length - math.log2(24)) < 1e-12

    def test_min_length_equals_unicity_distance(self):
        ab = Alphabet.first_n(4)
        toy = build_toy_language(ab, 3, 1.0, seed=6)
        h_k = KeySpace(SUBSTITUTION, ab).key_entropy_bits
        r0 = absolute_rate(ab)
        rel = reliability_check(toy.length, toy.rate, r0, h_k)
        assert rel.min_length == unicity_distance(h_k, r0 - toy.rate)
