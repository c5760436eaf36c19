"""The oracle's closed forms against brute-force enumeration at G <= 4.

    python3 -m pytest perfbench/test_oracle.py -q

These use only the standard library: permutations are enumerated with
itertools and probabilities are kept exact with Fraction wherever the
result is rational.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import oracle


def languages(g, n, count, seed):
    """Random toy languages: subsets of all g**n messages of length n."""
    rng = random.Random(seed)
    space = list(itertools.product(range(g), repeat=n))
    for _ in range(count):
        yield sorted(rng.sample(space, rng.randint(1, len(space))))


def brute_spurious(language, g):
    """Per-message spurious counts, averaged over every true key: wrong
    keys j whose decryption of encrypt(k, m) lies in the language."""
    members = set(language)
    keys = list(itertools.permutations(range(g)))
    counts = []
    for m in language:
        per_key = []
        for k in keys:
            c = tuple(k[x] for x in m)
            hits = 0
            for j in keys:
                if j == k:
                    continue
                inv = {v: i for i, v in enumerate(j)}
                hits += tuple(inv[x] for x in c) in members
            per_key.append(hits)
        assert len(set(per_key)) == 1  # the count does not depend on the true key
        counts.append(per_key[0])
    return counts


@pytest.mark.parametrize("g,n", [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_spurious_closed_form_matches_enumeration(g, n):
    for language in languages(g, n, 4, seed=g * 10 + n):
        counts = brute_spurious(language, g)
        assert oracle.spurious_counts(language, g) == counts
        exact = Fraction(sum(counts), len(language))
        assert oracle.mean_spurious(language, g) == pytest.approx(float(exact), abs=1e-12)


def entropy(counter, total):
    return -sum(c / total * math.log2(c / total) for c in counter.values())


@pytest.mark.parametrize("g,n", [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_pattern_entropy_is_mutual_information(g, n):
    keys = list(itertools.permutations(range(g)))
    for language in languages(g, n, 4, seed=g * 100 + n):
        pairs = Counter()
        for m in language:
            for k in keys:
                pairs[m, tuple(k[x] for x in m)] += 1
        total = len(language) * len(keys)
        p = Counter()
        c = Counter()
        for (m, ct), w in pairs.items():
            p[m] += w
            c[ct] += w
        mi = entropy(p, total) + entropy(c, total) - entropy(pairs, total)
        assert oracle.pattern_class_entropy(language) == pytest.approx(mi, abs=1e-12)


def test_pattern_marks_orbits():
    g, n = 4, 3
    keys = list(itertools.permutations(range(g)))
    for m in itertools.product(range(g), repeat=n):
        orbit = {tuple(k[x] for x in m) for k in keys}
        same = {x for x in itertools.product(range(g), repeat=n)
                if oracle.pattern(x) == oracle.pattern(m)}
        assert orbit == same


def random_text(symbols, length, seed):
    rng = random.Random(seed)
    return "".join(rng.choice(symbols) for _ in range(length))


@pytest.mark.parametrize("symbols", ["AB", "ABC", "ABCD"])
def test_bigram_entropy_is_joint_minus_marginal(symbols):
    """H(next | previous) = H(previous, next) - H(previous) on the smoothed
    joint w(a) p(b | a), with the probabilities kept as fractions."""
    alpha = Fraction(1, 2)
    g = len(symbols)
    for seed in range(3):
        text = random_text(symbols[:-1] if seed == 2 else symbols, 200, seed)
        windows = Counter(zip(text, text[1:]))
        contexts = Counter(a for a, _ in zip(text, text[1:]))
        grand = sum(contexts.values())
        h_joint = 0.0
        h_context = 0.0
        for a in symbols:
            w = Fraction(contexts[a], grand)
            if w == 0:
                continue
            h_context -= float(w) * math.log2(w)
            for b in symbols:
                q = w * (windows[a, b] + alpha) / (contexts[a] + alpha * g)
                h_joint -= float(q) * math.log2(q)
        got = oracle.bigram_conditional_entropy(text, 0.5, symbols)
        assert got == pytest.approx(h_joint - h_context, abs=1e-12)
        d = math.log2(g) - got
        assert oracle.unicity_distance(text, 0.5, symbols) == pytest.approx(
            math.log2(math.factorial(g)) / d, rel=1e-12
        )


@pytest.mark.parametrize("symbols", ["AB", "ABC", "ABCD"])
def test_bigram_nll_is_exact_product(symbols):
    alpha = Fraction(1, 2)
    g = len(symbols)
    corpus = random_text(symbols, 300, 7)
    plain = random_text(symbols, 40, 8)
    prob = Fraction(1)
    for a, b in zip(plain, plain[1:]):
        pairs = sum(1 for x, y in zip(corpus, corpus[1:]) if (x, y) == (a, b))
        ctx = sum(1 for x in corpus[:-1] if x == a)
        prob *= (pairs + alpha) / (ctx + alpha * g)
    exact = math.log2(prob.denominator) - math.log2(prob.numerator)
    assert oracle.bigram_nll(plain, corpus, 0.5, symbols) == pytest.approx(exact, rel=1e-12)


def test_normalize_keeps_letters_only():
    assert oracle.normalize("On a Dark-night, 1949!") == "ONADARKNIGHT"


@pytest.mark.parametrize("g", [2, 3, 4])
def test_closed_forms_for_rates(g):
    key_bits = math.log2(math.factorial(g))
    for n in range(1, 5):
        for size in range(1, g**n + 1):
            estimate = Fraction((math.factorial(g) - 1) * size, g**n)
            assert 2 ** oracle.expected_spurious_log2(g, n, size) == pytest.approx(
                float(estimate), rel=1e-12
            )
            if size < g**n:
                # N_min is where N*R meets the capacity N*R0 - H(K)
                n_min = oracle.min_reliable_length(g, n, size)
                rate = math.log2(size) / n
                assert n_min * rate == pytest.approx(n_min * math.log2(g) - key_bits, abs=1e-9)
        raw = n * math.log2(g) - key_bits
        assert oracle.theoretical_mutual_information(n, g) == (
            (raw, False) if raw > 0 else (0.0, True)
        )
