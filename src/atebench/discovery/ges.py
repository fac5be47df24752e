"""Greedy equivalence search over CPDAG states with a decomposable BIC score."""

from __future__ import annotations

import logging
from itertools import combinations

import numpy as np

from ..errors import ExtensionError, ParameterError, SampleSizeError
from ..graphs import Cpdag, Dag, _extend_pdag
from ..mec import cpdag_of
from ..scm import Dataset
from .score import BicScore

logger = logging.getLogger(__name__)

# strict improvement threshold; ties and float noise do not count as progress
_EPS = 1e-10


def _clique(adj: np.ndarray, nodes) -> bool:
    nodes = list(nodes)
    return all(adj[a, b] for a, b in combinations(nodes, 2))


def _blocked_path(D: np.ndarray, U: np.ndarray, src: int, dst: int, blocked) -> bool:
    """True when every semi-directed path src ~> dst passes through `blocked`."""
    d = D.shape[0]
    seen = np.zeros(d, dtype=bool)
    for b in blocked:
        seen[b] = True
    if seen[src]:
        return True
    stack = [src]
    seen[src] = True
    while stack:
        u = stack.pop()
        if u == dst:
            return False
        for v in np.flatnonzero(D[u] | U[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return True


def _recomplete(labels, D: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    adjacency = _extend_pdag(D, U, list(range(D.shape[0])))
    p = cpdag_of(Dag(labels, adjacency))
    return p.directed, p.undirected


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _forward_target(y, u, pa, adj, score: BicScore):
    """Insert candidates (delta, x, y, T, NA) for target y, unsorted.

    `u` is y's undirected-neighbour mask, `pa` its parent mask and `adj` the
    per-node adjacency masks; the result reads `adj` only at y and through
    `u`, which is what `_candidates` keys its memo on.  Sources x with the
    same NA share T's pool and the score of y without x, so they are scored
    together.
    """
    by_na = {}
    for x in range(len(adj)):
        if x != y and not (adj[y] >> x) & 1:
            by_na.setdefault(u & adj[x], []).append(x)
    out = []
    for na, xs in by_na.items():
        na_set = frozenset(_bits(na))
        pool = _bits(u & ~na)
        for size in range(len(pool) + 1):
            for t in combinations(pool, size):
                base = pa | na
                for v in t:
                    base |= 1 << v
                without = score.local_mask(y, base)
                for x in xs:
                    delta = score.local_mask(y, base | 1 << x) - without
                    if delta > _EPS:
                        out.append((delta, x, y, t, na_set))
    return out


def _backward_target(y, u, pa, adj, score: BicScore):
    """Delete candidates (delta, x, y, H, NA) for target y, unsorted."""
    out = []
    for x in _bits(u | pa):
        na = u & adj[x]
        x_bit = 1 << x
        known = pa & ~x_bit
        na_set = frozenset(_bits(na))
        pool = _bits(na)
        for size in range(len(pool) + 1):
            for h in combinations(pool, size):
                base = na | known
                for v in h:
                    base &= ~(1 << v)
                delta = score.local_mask(y, base) - score.local_mask(y, base | x_bit)
                if delta > _EPS:
                    out.append((delta, x, y, h, na_set))
    return out


def _candidates(target, memo: dict, D, U, score: BicScore):
    """All of `target`'s candidates over every y, in (-delta, x, y, T) order.

    A target's list depends only on U[y], D[:, y], adj[:, y] and
    adj[:, U[y]] (by symmetry the rows adj[v], v in U[y]), so `memo` keys it
    on exactly those; after a move only the targets whose neighbourhood
    changed are rescored.  Row masks fit int64 because BicScore caps d at 50.
    """
    d = D.shape[0]
    weights = np.left_shift(1, np.arange(d, dtype=np.int64))
    adj = ((D | D.T | U) @ weights).tolist()
    und = (U @ weights).tolist()
    par = (D.T @ weights).tolist()
    out = []
    for y in range(d):
        u = und[y]
        key = (y, u, par[y], adj[y], tuple(adj[v] for v in _bits(u)))
        found = memo.get(key)
        if found is None:
            found = memo[key] = target(y, u, par[y], adj, score)
        out.extend(found)
    out.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    return out


def _apply_insert(labels, D, U, x, y, t):
    D2, U2 = D.copy(), U.copy()
    D2[x, y] = True
    for v in t:
        U2[v, y] = U2[y, v] = False
        D2[v, y] = True
    return _recomplete(labels, D2, U2)


def _apply_delete(labels, D, U, x, y, h):
    D2, U2 = D.copy(), U.copy()
    D2[x, y] = False
    U2[x, y] = U2[y, x] = False
    for v in h:
        U2[y, v] = U2[v, y] = False
        D2[y, v] = True
        if U2[x, v]:
            U2[x, v] = U2[v, x] = False
            D2[x, v] = True
    return _recomplete(labels, D2, U2)


def ges(data: Dataset) -> Cpdag:
    """Two-phase greedy equivalence search (forward insertions, then deletions).

    Requires n >= d + 2 rows so every local regression in the score stays
    overdetermined; raises SampleSizeError otherwise.
    """
    d = data.d
    if d < 2:
        raise ParameterError("GES needs at least 2 variables")
    if data.n < d + 2:
        raise SampleSizeError(f"GES needs n >= d + 2 rows, got n={data.n}, d={d}")
    score = BicScore(data)
    labels = data.column_labels
    D = np.zeros((d, d), dtype=bool)
    U = np.zeros((d, d), dtype=bool)
    moves = 0
    memo = {}
    while True:
        applied = False
        for delta, x, y, t, na in _candidates(_forward_target, memo, D, U, score):
            adj = D | D.T | U
            if not _clique(adj, na | set(t)):
                continue
            if not _blocked_path(D, U, y, x, na | set(t)):
                continue
            try:
                D, U = _apply_insert(labels, D, U, x, y, t)
            except ExtensionError:
                continue
            applied = True
            moves += 1
            break
        if not applied:
            break
    memo = {}
    while True:
        applied = False
        for delta, x, y, h, na in _candidates(_backward_target, memo, D, U, score):
            if not _clique(D | D.T | U, na - set(h)):
                continue
            try:
                D, U = _apply_delete(labels, D, U, x, y, h)
            except ExtensionError:
                continue
            applied = True
            moves += 1
            break
        if not applied:
            break
    logger.info("ges: d=%d n=%d moves=%d edges=%d", d, data.n, moves, int(D.sum() + U.sum() // 2))
    return Cpdag(labels, D, U)
