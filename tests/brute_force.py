"""Brute-force oracles that enumerate every key, for checking the orbit
closed forms of `spurious` and `channel` on small instances."""

import itertools
import math

import numpy as np

from unicity import SHIFT, SUBSTITUTION, Alphabet, KeySpace, build_toy_language, encrypt


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
    """From-scratch joint distribution using only the public cipher API:
    a (set size, G**N) matrix of probabilities."""
    g = language.alphabet.size
    total_codes = g**language.length
    joint = np.zeros((language.size, total_codes))
    w = 1.0 / (language.size * len(keys))
    pows = g ** np.arange(language.length - 1, -1, -1)
    for mi, msg in enumerate(language.messages):
        for key in keys:
            code = int(encrypt(key, msg) @ pows)
            joint[mi, code] += w
    return joint


def mi_from_dense(joint):
    p_m = joint.sum(axis=1, keepdims=True)
    p_c = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float((joint[mask] * np.log2(joint[mask] / (p_m @ p_c)[mask])).sum())
