"""The Metropolis sweep kernel, JIT-compiled with numba when available.

The kernel has two implementations: a numba ``@njit`` version and a
pure-numpy fallback. The fallback is selected when numba cannot be
imported or when the environment variable ``UNICITY_NO_NUMBA`` is set to
a truthy value (``1``/``true``/``yes``). Scores agree to rounding
across the two paths (summation order differs), so cross-path
comparisons should be approximate. numba is an optional dependency
(the ``jit`` extra).
"""

from __future__ import annotations

import os

import numpy as np

_ENV_DISABLED = os.environ.get("UNICITY_NO_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

try:
    if _ENV_DISABLED:
        raise ImportError("numba disabled via UNICITY_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def _mcmc_sweep_np(
    wins: np.ndarray,
    wcounts: np.ndarray,
    nll_flat: np.ndarray,
    g: int,
    inv0: np.ndarray,
    pair_a: np.ndarray,
    pair_b: np.ndarray,
    log2_u: np.ndarray,
    temperature: float,
    trace_every: int,
):
    """Metropolis walk over ciphertext->plaintext mappings.

    wins: (U, n) unique ciphertext windows, wcounts their multiplicities,
    nll_flat the per-window cost table indexed by base-g window code.
    Proposals transpose entries (pair_a[i], pair_b[i]) of the current
    mapping; log2_u[i] is log2 of the acceptance uniform. Returns
    (best mapping, best score, best-so-far trace).
    """
    n = wins.shape[1]
    pows = g ** np.arange(n - 1, -1, -1, dtype=np.int64)
    inv = inv0.copy()

    idx = (inv[wins] * pows).sum(axis=1)
    score = float(wcounts @ nll_flat[idx])
    best = inv.copy()
    best_score = score

    iters = pair_a.shape[0]
    trace = np.empty(1 + iters // trace_every, dtype=np.float64)
    trace[0] = score

    for i in range(iters):
        a = pair_a[i]
        b = pair_b[i]
        inv[a], inv[b] = inv[b], inv[a]
        idx = (inv[wins] * pows).sum(axis=1)
        new_score = float(wcounts @ nll_flat[idx])
        if new_score < score or log2_u[i] < (score - new_score) / temperature:
            score = new_score
            if score < best_score:
                best_score = score
                best[:] = inv
        else:
            inv[a], inv[b] = inv[b], inv[a]
        if (i + 1) % trace_every == 0:
            trace[1 + i // trace_every] = best_score
    return best, best_score, trace


def _mcmc_sweep_jit_impl(
    wins, wcounts, nll_flat, g, inv0, pair_a, pair_b, log2_u, temperature, trace_every
):
    u_count, n = wins.shape
    inv = inv0.copy()

    score = 0.0
    for u in range(u_count):
        code = 0
        for j in range(n):
            code = code * g + inv[wins[u, j]]
        score += wcounts[u] * nll_flat[code]

    best = inv.copy()
    best_score = score

    iters = pair_a.shape[0]
    trace = np.empty(1 + iters // trace_every, dtype=np.float64)
    trace[0] = score

    for i in range(iters):
        a = pair_a[i]
        b = pair_b[i]
        tmp = inv[a]
        inv[a] = inv[b]
        inv[b] = tmp

        new_score = 0.0
        for u in range(u_count):
            code = 0
            for j in range(n):
                code = code * g + inv[wins[u, j]]
            new_score += wcounts[u] * nll_flat[code]

        if new_score < score or log2_u[i] < (score - new_score) / temperature:
            score = new_score
            if score < best_score:
                best_score = score
                for k in range(best.shape[0]):
                    best[k] = inv[k]
        else:
            tmp = inv[a]
            inv[a] = inv[b]
            inv[b] = tmp

        if (i + 1) % trace_every == 0:
            trace[1 + i // trace_every] = best_score
    return best, best_score, trace


if HAVE_NUMBA:
    _mcmc_sweep_jit = njit(cache=True, nogil=True)(_mcmc_sweep_jit_impl)
    mcmc_sweep = _mcmc_sweep_jit
else:
    mcmc_sweep = _mcmc_sweep_np
