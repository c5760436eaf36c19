import itertools
import math

import numpy as np
import pytest

from unicity import (
    SHIFT,
    SUBSTITUTION,
    Alphabet,
    KeySpace,
    SubstitutionKey,
    UsageError,
    decrypt,
    encrypt,
)

from brute_force import key_tuples


class TestKeys:
    def test_identity(self, latin):
        key = SubstitutionKey(np.arange(26))
        codes = latin.encode("CAT")
        assert latin.decode(encrypt(key, codes)) == "CAT"

    def test_caesar(self, latin):
        key = SubstitutionKey((np.arange(26) + 1) % 26)
        assert latin.decode(encrypt(key, latin.encode("CAT"))) == "DBU"
        assert latin.decode(decrypt(key, latin.encode("DBU"))) == "CAT"

    def test_inverse_involution(self):
        rng = np.random.default_rng(0)
        key = SubstitutionKey(rng.permutation(12))
        assert key.inverse().inverse() == key

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            SubstitutionKey(np.array([0, 0, 1]))

    def test_out_of_alphabet_symbol(self):
        key = SubstitutionKey(np.arange(4))
        with pytest.raises(ValueError):
            encrypt(key, np.array([0, 5]))
        with pytest.raises(ValueError):
            decrypt(key, np.array([-1]))

    def test_string_round_trip(self, latin):
        rng = np.random.default_rng(3)
        key = SubstitutionKey(rng.permutation(26))
        image = key.as_string(latin)
        assert len(image) == 26 and set(image) == set(latin.symbols)
        assert SubstitutionKey.from_string(image, latin) == key

    def test_not_equal_to_a_non_key(self):
        assert (SubstitutionKey(np.arange(3)) == "ABC") is False


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SubstitutionKey(np.arange(4).reshape(2, 2)), "permutation"),
        (lambda: SubstitutionKey(np.arange(4)).as_string(Alphabet.first_n(5)), "size"),
    ],
    ids=["key-2d", "key-string-other-alphabet"],
)
def test_validation(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("image", ["ABCDEFGHIJKLMNOPQRSTUVWXY", "ABC",
                                   "ABCDEFGHIJKLMNOPQRSTUVWXYZA"])
def test_key_string_of_another_length_is_a_usage_error(latin, image):
    """from_string refuses an image that is not one letter per alphabet
    symbol, as as_string refuses an alphabet of another size."""
    with pytest.raises(UsageError, match=f"key has {len(image)} letters but the alphabet has 26"):
        SubstitutionKey.from_string(image, latin)


class TestRoundTrip:
    def test_exhaustive_g4(self):
        rng = np.random.default_rng(8)
        key = SubstitutionKey(rng.permutation(4))
        for triple in itertools.product(range(4), repeat=3):
            plain = np.array(triple)
            assert np.array_equal(decrypt(key, encrypt(key, plain)), plain)

    def test_many_seeded_trials(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            g = int(rng.integers(2, 27))
            key = SubstitutionKey(rng.permutation(g))
            plain = rng.integers(0, g, size=int(rng.integers(0, 12)))
            assert np.array_equal(decrypt(key, encrypt(key, plain)), plain)

    def test_wrong_key_never_round_trips_everywhere(self):
        """For enumerable spaces, decrypting with k' recovers every
        plaintext iff k' == k."""
        keys = [SubstitutionKey(np.array(k)) for k in key_tuples(SUBSTITUTION, 3)]
        plains = [np.array(t) for t in itertools.product(range(3), repeat=3)]
        for k in keys:
            for kp in keys:
                all_match = all(
                    np.array_equal(decrypt(kp, encrypt(k, p)), p) for p in plains
                )
                assert all_match == (k == kp)


class TestKeySpace:
    def test_substitution_counts(self, latin):
        space = KeySpace(SUBSTITUTION, latin)
        assert space.key_count == math.factorial(26)
        # independent oracle: log2 of the exact factorial integer
        assert abs(space.key_entropy_bits - math.log2(math.factorial(26))) < 1e-9
        assert abs(space.key_entropy_bits - 88.3817) < 1e-3

    def test_shift_counts(self, latin):
        space = KeySpace(SHIFT, latin)
        assert space.key_count == 26
        assert abs(space.key_entropy_bits - math.log2(26)) < 1e-12

    def test_single_symbol_space(self):
        ab = Alphabet.first_n(1)
        assert KeySpace(SUBSTITUTION, ab).key_entropy_bits == 0.0
        assert KeySpace(SUBSTITUTION, ab).key_count == 1

    def test_entropy_gap_identity(self):
        for g in (2, 5, 11, 26):
            ab = Alphabet.first_n(g)
            sub = KeySpace(SUBSTITUTION, ab).key_entropy_bits
            shift = KeySpace(SHIFT, ab).key_entropy_bits
            gap = sum(math.log2(k) for k in range(2, g))
            assert abs((sub - shift) - gap) < 1e-9

    def test_unknown_kind(self, latin):
        with pytest.raises(ValueError):
            KeySpace("vigenere", latin)


class TestSampling:
    def test_deterministic(self, latin):
        space = KeySpace(SUBSTITUTION, latin)
        draw = lambda seed: space.sample(np.random.default_rng(seed))
        assert draw(42) == draw(42)
        assert draw(42) != draw(43)

    def test_uniform_over_small_space(self):
        space = KeySpace(SUBSTITUTION, Alphabet.first_n(3))
        rng = np.random.default_rng(1)
        counts = {}
        n = 60_000
        for _ in range(n):
            key = tuple(space.sample(rng).mapping.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / n - 1 / 6) < 0.01

    @pytest.mark.parametrize("kind", [SUBSTITUTION, SHIFT])
    def test_samples_equal_checked_keys_of_the_same_draws(self, kind):
        """Sampled keys skip the permutation check but are the keys the
        checked constructor builds from the same draws: int64, read-only,
        and equal; the generator ends in the same state."""
        g = 7
        space = KeySpace(kind, Alphabet.first_n(g))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            key = space.sample(rng)
            if kind == SUBSTITUTION:
                expected = SubstitutionKey(ref.permutation(g))
            else:
                expected = SubstitutionKey((np.arange(g) + int(ref.integers(g))) % g)
            assert key == expected
            assert key.mapping.dtype == np.int64 and not key.mapping.flags.writeable
            assert key.inverse() == SubstitutionKey(np.argsort(expected.mapping))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("kind", [SUBSTITUTION, SHIFT])
    @pytest.mark.parametrize("g", [2, 7, 26])
    @pytest.mark.parametrize("n", [1, 5, 100])
    def test_block_equals_sequential_draws(self, kind, g, n):
        """A block of n mappings holds the keys of n single draws, in
        order, and leaves the generator in the same state."""
        space = KeySpace(kind, Alphabet.first_n(g))
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            block = space.sample_mappings(rng, n)
            assert block.shape == (n, g) and block.dtype == np.int64
            for row in block:
                assert np.array_equal(row, space.sample(ref).mapping)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_shift_samples_are_rotations(self, latin):
        space = KeySpace(SHIFT, latin)
        rng = np.random.default_rng(5)
        base = np.arange(26)
        for _ in range(50):
            key = space.sample(rng)
            off = key.mapping[0]
            assert np.array_equal(key.mapping, (base + off) % 26)


class TestEnumeration:
    def test_exact_counts_under_cap(self):
        """Key counts against the oracle's list of every key, G <= 6."""
        for g in range(1, 7):
            for kind in (SUBSTITUTION, SHIFT):
                keys = key_tuples(kind, g)
                assert len(set(keys)) == len(keys) == KeySpace(kind, Alphabet.first_n(g)).key_count
