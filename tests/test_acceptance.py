"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s or check captured output). Tolerances and
runtime bounds are pinned in the asserts."""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from unicity import (
    SHIFT,
    SUBSTITUTION,
    Alphabet,
    AttackConfig,
    KeySpace,
    SubstitutionKey,
    build_toy_language,
    decrypt,
    encrypt,
    exhaustive_spurious_counts,
    expected_spurious_keys,
    fit_ngram,
    mutual_information,
    recovery_curve,
    redundancy,
    reliability_check,
    theoretical_mutual_information,
    unicity_distance,
)
from unicity.cli import main as cli_main
from unicity.spurious import mean_and_se

from brute_force import dense_joint_oracle, key_tuples, mi_from_dense
from conftest import CORPUS_PATH


def check(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_english_substitution_unicity(tmp_path):
    """U = H(K)/D for the English substitution cipher, via the CLI."""
    out = tmp_path / "u.json"
    argv = [
        "unicity", "--redundancy", "3.2", "--format", "json", "--out", str(out),
    ]
    assert cli_main(argv) == 0  # warm-up (imports, JIT caches are shared anyway)
    elapsed = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        rc = cli_main(argv)
        elapsed = min(elapsed, time.perf_counter() - t0)
        assert rc == 0
    doc = json.loads(out.read_text())
    h_k = doc["results"]["key_entropy_bits"]
    u = doc["results"]["unicity_distance_letters"]
    expected_h = sum(math.log2(k) for k in range(2, 27))
    ok = (
        abs(h_k - expected_h) < 1e-9
        and abs(h_k - 88.3817) < 1e-3
        and abs(u - 27.62) <= 0.01
        and elapsed < 0.010
    )
    check(1, ok, f"U={u:.4f} letters, H(K)={h_k:.4f} bits, runtime={elapsed*1e3:.2f} ms")


def _exact_spurious_mean(g: int, n: int, m: int) -> Fraction:
    """Exact expected spurious-key count for a substitution cipher over a
    uniform random m-message toy language of length-n words on g letters,
    by enumeration of the non-identity permutations p (no unicity code).

    A wrong key acts on the plaintext as some p != id. If p fixes every
    letter of the message (probability f(p)**n / T, with f(p) fixed
    points and T = g**n) the decryption is the message itself and is
    always meaningful; otherwise it is another word, meaningful with
    probability (m-1)/(T-1).
    """
    t = g**n
    total = Fraction(0)
    for perm in itertools.permutations(range(g)):
        if perm == tuple(range(g)):
            continue
        fixed = sum(1 for i in range(g) if perm[i] == i)
        p_fix = Fraction(fixed**n, t)
        total += p_fix + (1 - p_fix) * Fraction(m - 1, t - 1)
    return total


def test_criterion_2_spurious_key_point_estimate():
    """Grand mean of exhaustive spurious-key counts over 100 toy-language
    constructions (G=4, N=3, R=1, substitution) vs the exact expected
    count, 10/3, computed here by enumerating permutations. The classical
    random-cipher estimate (K-1)*2**(-N*D) = 23/8 is reported alongside:
    it ignores that keys differing only on letters absent from a message
    decrypt it identically, so it undercounts here."""
    t0 = time.perf_counter()
    ab = Alphabet.first_n(4)
    space = KeySpace(SUBSTITUTION, ab)
    exact = _exact_spurious_mean(4, 3, 8)
    assert exact == Fraction(10, 3)
    target = float(exact)
    classical = expected_spurious_keys(math.log2(space.key_count), 1.0, 3).linear
    assert abs(classical - 23 / 8) < 1e-12
    seeds = 100
    means = np.empty(seeds)
    for s in range(seeds):
        toy = build_toy_language(ab, 3, 1.0, seed=s)
        means[s] = exhaustive_spurious_counts(space, toy).mean()
    grand = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(seeds))
    elapsed = time.perf_counter() - t0
    ok = abs(grand - target) <= 3 * se and elapsed < 10.0
    check(
        2,
        ok,
        f"grand mean={grand:.4f} vs exact target {exact} = {target:.4f}, "
        f"|diff|={abs(grand-target):.4f}, 3*SE={3*se:.4f}, seeds={seeds}, "
        f"runtime={elapsed:.2f} s; classical estimate (K-1)*2**(-N*D)="
        f"{classical:.4f} is off by {abs(grand-classical):.4f} from the grand "
        f"mean and {target-classical:.4f} from the exact value",
    )


def test_criterion_3_mi_decomposition_equality():
    """Both chain-rule decompositions agree with each other and with a
    dense enumeration of every (message, key) pair on every instance
    with G <= 4, N <= 3; one-time-pad instances have zero mutual
    information."""
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_oracle_gap = 0.0
    worst_otp = 0.0
    instances = 0
    for g in (2, 3, 4):
        ab = Alphabet.first_n(g)
        for n in (1, 2, 3):
            total = g**n
            sizes = sorted({1, 2, total // 2, total} - {0})
            for m, kind, seed in itertools.product(
                sizes, (SUBSTITUTION, SHIFT), (0, 1)
            ):
                rate = math.log2(m) / n
                toy = build_toy_language(ab, n, rate, seed=seed)
                assert toy.size == m
                space = KeySpace(kind, ab)
                i_a, i_b = mutual_information(toy, space)
                oracle = mi_from_dense(dense_joint_oracle(toy, key_tuples(kind, g)))
                worst_gap = max(worst_gap, abs(i_a - i_b))
                worst_oracle_gap = max(worst_oracle_gap, abs(i_a - oracle), abs(i_b - oracle))
                instances += 1
                if n == 1 and m == total:
                    worst_otp = max(worst_otp, abs(i_a), abs(i_b))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_gap <= 1e-9
        and worst_oracle_gap <= 1e-9
        and worst_otp <= 1e-9
        and elapsed < 5.0
    )
    check(
        3,
        ok,
        f"{instances} instances, max |I_A - I_B|={worst_gap:.2e}, "
        f"max |I - dense oracle|={worst_oracle_gap:.2e}, "
        f"max one-time-pad I={worst_otp:.2e}, runtime={elapsed:.2f} s",
    )


def test_criterion_4_reliability_threshold_coincidence():
    """The reliable-communication crossover equals H(K)/D for 1000
    random (H_K, R, R0) triples with 0 < R < R0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        h = float(rng.uniform(0.01, 120.0))
        r0 = float(rng.uniform(0.2, 8.0))
        r = r0 * float(rng.uniform(0.001, 0.999))
        n_min = reliability_check(1.0, r, r0, h).min_length
        worst = max(worst, abs(n_min - unicity_distance(h, r0 - r)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    check(4, ok, f"max |N_min - H/D|={worst:.2e} over 1000 triples, runtime={elapsed:.2f} s")


def test_criterion_5_clamping_behavior():
    """Idealized mutual information is 0 (flagged) up to H(K)/R0 and
    exactly N*R0 - H(K) beyond, over a 10000-point grid."""
    t0 = time.perf_counter()
    cases = [
        (math.log2(24), 2.0),
        (88.3817, 4.700439718141092),
        (5.0, 1.0),
        (0.3, 3.3),
    ]
    points = 0
    ok = True
    for h, r0 in cases:
        for n in np.linspace(0.0, 4.0 * h / r0, 2500):
            raw = n * r0 - h
            got = theoretical_mutual_information(float(n), r0, h)
            if raw <= 0:
                ok = ok and got.bits == 0.0 and got.clamped
            else:
                ok = ok and got.bits == raw and not got.clamped
            points += 1
    elapsed = time.perf_counter() - t0
    ok = ok and points == 10_000 and elapsed < 1.0
    check(5, ok, f"{points} grid points, runtime={elapsed:.2f} s")


def test_criterion_6_entropy_estimator_convergence(latin):
    """Order-1 model on 1e6 seeded uniform symbols recovers R0 and zero
    redundancy to within 0.01."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(60_006)
    codes = rng.integers(0, 26, size=1_000_000)
    model = fit_ngram(codes, order=1, alpha=1.0, alphabet=latin)
    est = redundancy(model)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(est.entropy_rate - 4.7004) <= 0.01
        and abs(est.redundancy) <= 0.01
        and elapsed < 5.0
    )
    check(
        6,
        ok,
        f"R={est.entropy_rate:.5f} (target 4.7004 +/- 0.01), "
        f"D={est.redundancy:.5f} (target 0 +/- 0.01), runtime={elapsed:.2f} s",
    )


def test_criterion_7_attack_monotonicity(latin, english_split, bigram_model):
    """Mean plaintext accuracy is nondecreasing in ciphertext length (up
    to one combined standard error) over >= 20 trials per length, and the
    median at N=1600 reaches 0.9."""
    t0 = time.perf_counter()
    _, heldout = english_split
    space = KeySpace(SUBSTITUTION, latin)
    config = AttackConfig(
        model=bigram_model, iterations=20_000, restarts=5, seed=777
    )
    curve = recovery_curve([25, 100, 400, 1600], 20, config, heldout, space)
    accs = np.array([[r.plaintext_accuracy for r in cracks] for cracks in curve])
    means, ses = mean_and_se(accs)
    monotone = all(
        means[i + 1] >= means[i] - math.hypot(ses[i], ses[i + 1])
        for i in range(len(means) - 1)
    )
    median_1600 = np.median(accs[-1])
    elapsed = time.perf_counter() - t0
    ok = monotone and median_1600 >= 0.9 and elapsed < 600.0
    check(
        7,
        ok,
        f"means={['%.3f' % m for m in means]} at N=[25,100,400,1600], "
        f"median(1600)={median_1600:.3f}, runtime={elapsed:.1f} s",
    )


def test_criterion_8_round_trip_and_determinism(tmp_path):
    """Exhaustive cipher round-trip at G=4 for N <= 3, and byte-identical
    reruns of every randomized command under a fixed seed."""
    t0 = time.perf_counter()
    keys = [SubstitutionKey(np.array(k)) for k in key_tuples(SUBSTITUTION, 4)]
    round_trips = 0
    for key in keys:
        for n in (0, 1, 2, 3):
            for tup in itertools.product(range(4), repeat=n):
                plain = np.array(tup, dtype=np.int64)
                assert np.array_equal(decrypt(key, encrypt(key, plain)), plain)
                round_trips += 1

    randomized = {
        "spurious": ["spurious", "--constructions", "3", "--seed", "21"],
        "channel": ["channel", "--lengths", "1,2,3", "--seed", "21"],
        "attack": [
            "attack", "--corpus", str(CORPUS_PATH), "--lengths", "30,60",
            "--trials", "1", "--iterations", "400", "--restarts", "1",
            "--seed", "21",
        ],
    }
    reproducible = True
    for name, argv in randomized.items():
        paths = [tmp_path / f"{name}_{i}.csv" for i in (0, 1)]
        for p in paths:
            assert cli_main(argv + ["--out", str(p)]) == 0
        reproducible = reproducible and paths[0].read_bytes() == paths[1].read_bytes()

    elapsed = time.perf_counter() - t0
    ok = round_trips == 24 * (1 + 4 + 16 + 64) and reproducible and elapsed < 5.0
    check(
        8,
        ok,
        f"{round_trips} exhaustive round trips, byte-identical reruns for "
        f"{list(randomized)}, runtime={elapsed:.2f} s",
    )
