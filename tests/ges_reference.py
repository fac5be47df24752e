"""Reference for greedy equivalence search in ``atebench.discovery.ges``.

These are the candidate generators and the search loop the per-target,
memoised search replaced: every (x, y, T) insert and every (x, y, H) delete
is re-enumerated and rescored from the dense matrices after every move, and
moves are checked and applied on those matrices with the dense extension and
DAG -> CPDAG of ``graphs_reference``.  Tests require the memoised search to
choose the same moves and reach the same CPDAG, and its merged candidate
lists to equal these at every state.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from atebench.discovery.ges import _EPS
from atebench.discovery.score import BicScore
from atebench.errors import ExtensionError
from atebench.graphs import Cpdag, Dag

from graphs_reference import _extend_pdag, cpdag_of
from score_reference import local


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


def _forward_candidates(D, U, score: BicScore):
    d = D.shape[0]
    adj = D | D.T | U
    out = []
    for x in range(d):
        for y in range(d):
            if x == y or adj[x, y]:
                continue
            na = frozenset(np.flatnonzero(U[y] & adj[x]).tolist())
            t_pool = np.flatnonzero(U[y] & ~adj[x] & (np.arange(d) != x)).tolist()
            pa = frozenset(np.flatnonzero(D[:, y]).tolist())
            for size in range(len(t_pool) + 1):
                for t in combinations(t_pool, size):
                    base = na | set(t) | pa
                    delta = local(score, y, base | {x}) - local(score, y, base)
                    if delta > _EPS:
                        out.append((delta, x, y, t, na))
    out.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    return out


def _backward_candidates(D, U, score: BicScore):
    d = D.shape[0]
    adj = D | D.T | U
    out = []
    for x in range(d):
        for y in range(d):
            if x == y or not (U[x, y] or D[x, y]):
                continue
            na = frozenset(np.flatnonzero(U[y] & adj[x]).tolist())
            pa = frozenset(np.flatnonzero(D[:, y]).tolist()) - {x}
            for size in range(len(na) + 1):
                for h in combinations(sorted(na), size):
                    base = (na - set(h)) | pa
                    delta = local(score, y, base) - local(score, y, base | {x})
                    if delta > _EPS:
                        out.append((delta, x, y, h, na))
    out.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    return out


def reference_ges(data, visit=None):
    """The search loop of ``ges``; returns ``(cpdag, moves)``.

    ``visit(phase, D, U, score, candidates)`` is called with each state's
    sorted candidate list before the loop scans it (phase "forward" or
    "backward").
    """
    d = data.d
    score = BicScore(data)
    labels = data.column_labels
    D = np.zeros((d, d), dtype=bool)
    U = np.zeros((d, d), dtype=bool)
    moves = 0
    while True:
        applied = False
        candidates = _forward_candidates(D, U, score)
        if visit is not None:
            visit("forward", D, U, score, candidates)
        for delta, x, y, t, na in candidates:
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
    while True:
        applied = False
        candidates = _backward_candidates(D, U, score)
        if visit is not None:
            visit("backward", D, U, score, candidates)
        for delta, x, y, h, na in candidates:
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
    return Cpdag(labels, D, U), moves
