"""Reference for the local BIC score in ``atebench.kernels``.

This is the score as it was written for numba: per-element indexing into
``np.empty`` index and matrix buffers, and a multi-right-hand-side Gaussian
elimination that the score calls with one column.  Tests require the list
version in ``atebench.kernels`` to return the same bits.

``local`` scores a node given a parent list through ``BicScore.local_mask``,
and ``graph_score`` sums those local scores over a whole adjacency matrix,
for tests that rank complete graphs.
"""

from __future__ import annotations

import math

import numpy as np

from atebench.errors import ParameterError

RIDGE = 1e-8


def _solve_multi(a, b):
    """Gaussian elimination with partial pivoting, multi-RHS.

    Inputs are copied, never mutated.  Returns (x, ok); ok is False when a
    pivot underflows the relative threshold (caller retries with a ridge).
    """
    k = a.shape[0]
    r = b.shape[1]
    u = a.copy()
    x = b.copy()
    scale = 0.0
    for i in range(k):
        for j in range(k):
            m = abs(u[i, j])
            if m > scale:
                scale = m
    if scale == 0.0:
        return x, k == 0
    tiny = scale * 1e-13
    for col in range(k):
        piv = col
        best = abs(u[col, col])
        for row in range(col + 1, k):
            m = abs(u[row, col])
            if m > best:
                best = m
                piv = row
        if best <= tiny:
            return x, False
        if piv != col:
            for c in range(k):
                tmp = u[col, c]
                u[col, c] = u[piv, c]
                u[piv, c] = tmp
            for c in range(r):
                tmp = x[col, c]
                x[col, c] = x[piv, c]
                x[piv, c] = tmp
        inv_p = 1.0 / u[col, col]
        for row in range(col + 1, k):
            factor = u[row, col] * inv_p
            if factor != 0.0:
                u[row, col] = 0.0
                for c in range(col + 1, k):
                    u[row, c] -= factor * u[col, c]
                for c in range(r):
                    x[row, c] -= factor * x[col, c]
    for col in range(k - 1, -1, -1):
        inv_p = 1.0 / u[col, col]
        for c in range(r):
            acc = x[col, c]
            for row in range(col + 1, k):
                acc -= u[col, row] * x[row, c]
            x[col, c] = acc * inv_p
    return x, True


def _local_bic(gram, n_rows, node, mask, cache):
    key = (node << 52) | mask
    if key in cache:
        return cache[key]
    d = gram.shape[0]
    npa = 0
    for i in range(d):
        if (mask >> i) & 1:
            npa += 1
    syy = gram[node, node]
    rss = syy
    if npa > 0:
        idx = np.empty(npa, np.int64)
        p = 0
        for i in range(d):
            if (mask >> i) & 1:
                idx[p] = i
                p += 1
        a = np.empty((npa, npa))
        b = np.empty((npa, 1))
        for r in range(npa):
            for c in range(npa):
                a[r, c] = gram[idx[r], idx[c]]
            b[r, 0] = gram[idx[r], node]
        x, ok = _solve_multi(a, b)
        if not ok:
            lam = 0.0
            for r in range(npa):
                lam += abs(a[r, r])
            lam = RIDGE * (1.0 + lam / npa)
            for r in range(npa):
                a[r, r] += lam
            x, ok = _solve_multi(a, b)
        for r in range(npa):
            rss -= b[r, 0] * x[r, 0]
    floor = 1e-12 * (syy if syy > 1.0 else 1.0)
    if rss < floor:
        rss = floor
    score = -0.5 * n_rows * math.log(rss / n_rows) - 0.5 * (npa + 1) * math.log(n_rows)
    cache[key] = score
    return score


def local(score, node: int, parents) -> float:
    """A ``BicScore``'s local score of `node` given a list of parent indices."""
    mask = 0
    for p in parents:
        p = int(p)
        if not 0 <= p < score.d:
            raise ParameterError(f"parent {p} outside 0..{score.d - 1}")
        mask |= 1 << p
    return score.local_mask(node, mask)


def graph_score(score, adjacency) -> float:
    """Decomposable BIC of a whole graph: the sum of ``local`` over its nodes."""
    a = np.asarray(adjacency, dtype=bool)
    return sum(local(score, k, np.flatnonzero(a[:, k]).tolist()) for k in range(a.shape[0]))
