"""Brute-force oracles that enumerate every key, for checking the orbit
closed forms of `spurious` and `channel` on small instances."""

import itertools
import math

import numpy as np

from unicity import SHIFT, SUBSTITUTION, Alphabet, KeySpace, build_toy_language


def small_instances(seed=0):
    """(space, toy language) for G <= 4, N <= 3, both ciphers, and
    languages of 1, 2, half of and all the G**N messages."""
    for g in (2, 3, 4):
        ab = Alphabet.first_n(g)
        for n in (1, 2, 3):
            total = g**n
            for m in sorted({1, 2, total // 2, total}):
                toy = build_toy_language(ab, n, math.log2(m) / n, seed=seed)
                assert toy.size == m
                for kind in (SUBSTITUTION, SHIFT):
                    yield KeySpace(kind, ab), toy


def key_tuples(kind, g):
    """Every key of the family as a plaintext -> ciphertext tuple."""
    if kind == SUBSTITUTION:
        return list(itertools.permutations(range(g)))
    return [tuple((i + off) % g for i in range(g)) for off in range(g)]


def spurious_count(keys, members, true_key, message):
    """Wrong keys that decrypt the true key's ciphertext to a member."""
    cipher = [true_key[s] for s in message]
    count = 0
    for cand in keys:
        if cand == true_key:
            continue
        inverse = {c: p for p, c in enumerate(cand)}
        if tuple(inverse[c] for c in cipher) in members:
            count += 1
    return count


def dense_joint_oracle(language, keys):
    """From-scratch joint distribution over every (message, key tuple)
    pair, with no cipher code: a (set size, G**N) matrix of
    probabilities."""
    g = language.alphabet.size
    joint = np.zeros((language.size, g**language.length))
    w = 1.0 / (language.size * len(keys))
    for mi, msg in enumerate(language.messages.tolist()):
        for key in keys:
            code = 0
            for s in msg:
                code = code * g + key[s]
            joint[mi, code] += w
    return joint


def mi_from_dense(joint):
    p_m = joint.sum(axis=1, keepdims=True)
    p_c = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float((joint[mask] * np.log2(joint[mask] / (p_m @ p_c)[mask])).sum())


def rejection_sample(total, want, rng):
    """The first `want` distinct codes that rng.integers(0, total) draws
    in batches of max(1024, want), taken one draw at a time through a set:
    a per-draw reference for build_toy_language's sampler past 2**22
    sequences."""
    seen = set()
    picked = []
    while len(picked) < want:
        for c in rng.integers(0, total, size=max(1024, want), dtype=np.int64):
            if int(c) not in seen:
                seen.add(int(c))
                picked.append(int(c))
                if len(picked) == want:
                    break
    return picked


def monte_carlo_estimates(space, language, trials, seed, keys_per_trial):
    """Per-trial estimates of monte_carlo_spurious with one candidate at a
    time: the same draws from default_rng((seed, trial)) (message, true
    key, then candidates, redrawing the true key), each key drawn here as
    rng.permutation(G) or a rotation by rng.integers(G), each wrong key
    inverted and its decryption looked up among the member messages."""
    g = space.alphabet.size
    members = set(map(tuple, language.messages.tolist()))

    def draw(rng):
        if space.kind == SUBSTITUTION:
            return tuple(rng.permutation(g).tolist())
        return tuple(((np.arange(g) + rng.integers(g)) % g).tolist())

    estimates = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        plain = language.messages[int(rng.integers(language.size))]
        true_key = draw(rng)
        cipher = [true_key[s] for s in plain]
        accepted = wrong = 0
        while wrong < keys_per_trial:
            cand = draw(rng)
            if cand == true_key:
                continue
            wrong += 1
            inverse = {c: p for p, c in enumerate(cand)}
            accepted += tuple(inverse[c] for c in cipher) in members
        estimates.append((space.key_count - 1) * (accepted / keys_per_trial))
    return estimates
