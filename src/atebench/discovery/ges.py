"""Greedy equivalence search over CPDAG states with a decomposable BIC score."""

from __future__ import annotations

import logging
from itertools import combinations

from ..errors import ExtensionError, ParameterError, SampleSizeError
from ..graphs import Cpdag, _adjacency, _bits, _complete, _dense, _direct, _extend
from ..scm import Dataset
from .score import BicScore

logger = logging.getLogger(__name__)

# strict improvement threshold; ties and float noise do not count as progress
_EPS = 1e-10


def _clique(adj: list[int], nodes) -> bool:
    mask = sum(1 << v for v in nodes)
    return all(mask & ~adj[v] == 1 << v for v in nodes)


def _blocked_path(ch: list[int], un: list[int], src: int, dst: int, blocked) -> bool:
    """True when every semi-directed path src ~> dst passes through `blocked`."""
    wall = sum(1 << b for b in blocked)
    if wall >> src & 1:
        return True
    reached = frontier = 1 << src
    while frontier:
        step = 0
        for u in _bits(frontier):
            step |= ch[u] | un[u]
        frontier = step & ~(reached | wall)
        reached |= frontier
    return not reached >> dst & 1


def _recomplete(ch, pa, un):
    """The CPDAG of the PDAG's first-index-order extension, as (ch, pa, un)."""
    return _complete(_extend(ch, pa, un, range(len(ch))))


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


def _candidates(target, memo: dict, un, pa, adj, score: BicScore):
    """All of `target`'s candidates over every y, in (-delta, x, y, T) order.

    A target's list depends only on un[y], pa[y], adj[y] and adj[v] for v
    in un[y], so `memo` keys it on exactly those; after a move only the
    targets whose neighbourhood changed are rescored.
    """
    out = []
    for y, u in enumerate(un):
        key = (y, u, pa[y], adj[y], tuple(adj[v] for v in _bits(u)))
        found = memo.get(key)
        if found is None:
            found = memo[key] = target(y, u, pa[y], adj, score)
        out.extend(found)
    out.sort(key=lambda c: (-c[0], c[1], c[2], c[3]))
    return out


def _apply_insert(ch, pa, un, x, y, t):
    ch, pa, un = ch[:], pa[:], un[:]
    _direct(ch, pa, un, x, y)
    for v in t:
        _direct(ch, pa, un, v, y)
    return _recomplete(ch, pa, un)


def _apply_delete(ch, pa, un, x, y, h):
    ch, pa, un = ch[:], pa[:], un[:]
    ch[x] &= ~(1 << y)
    pa[y] &= ~(1 << x)
    un[x] &= ~(1 << y)
    un[y] &= ~(1 << x)
    for v in h:
        _direct(ch, pa, un, y, v)
        if un[x] >> v & 1:
            _direct(ch, pa, un, x, v)
    return _recomplete(ch, pa, un)


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
    # a valid insert or delete always leaves an extendable PDAG (Chickering
    # 2002), so a failed extension is a bug, never a bad resample to redraw
    state = [0] * d, [0] * d, [0] * d
    moves = 0
    memo = {}
    while True:
        ch, pa, un = state
        adj = _adjacency(ch, pa, un)
        for delta, x, y, t, na in _candidates(_forward_target, memo, un, pa, adj, score):
            nodes = na | set(t)
            if not _clique(adj, nodes) or not _blocked_path(ch, un, y, x, nodes):
                continue
            try:
                state = _apply_insert(ch, pa, un, x, y, t)
            except ExtensionError as exc:
                raise AssertionError(f"insert x={x} y={y} T={t} left no consistent extension") from exc
            moves += 1
            break
        else:
            break
    memo = {}
    while True:
        ch, pa, un = state
        adj = _adjacency(ch, pa, un)
        for delta, x, y, h, na in _candidates(_backward_target, memo, un, pa, adj, score):
            if not _clique(adj, na - set(h)):
                continue
            try:
                state = _apply_delete(ch, pa, un, x, y, h)
            except ExtensionError as exc:
                raise AssertionError(f"delete x={x} y={y} H={h} left no consistent extension") from exc
            moves += 1
            break
        else:
            break
    ch, _, un = state
    edges = sum(c.bit_count() for c in ch) + sum(u.bit_count() for u in un) // 2
    logger.info("ges: d=%d n=%d moves=%d edges=%d", d, data.n, moves, edges)
    return Cpdag(data.column_labels, _dense(ch), _dense(un))
