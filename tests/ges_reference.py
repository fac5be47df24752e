"""Reference for greedy equivalence search in ``atebench.discovery.ges``.

These are the candidate generators and the search loop the per-target,
memoised search replaced: every (x, y, T) insert and every (x, y, H) delete
is re-enumerated and rescored from the dense matrices after every move.
Tests require the memoised search to choose the same moves and reach the
same CPDAG, and its merged candidate lists to equal these at every state.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from atebench.discovery.ges import (
    _EPS,
    _apply_delete,
    _apply_insert,
    _blocked_path,
    _clique,
)
from atebench.discovery.score import BicScore
from atebench.errors import ExtensionError
from atebench.graphs import Cpdag


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
                    delta = score.local(y, base | {x}) - score.local(y, base)
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
                    delta = score.local(y, base) - score.local(y, base | {x})
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
