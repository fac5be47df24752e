"""Order-independent (stable) PC: skeleton, colliders, orientation propagation.

A level's snapshot fixes every Fisher-z test before any runs, so a level is
one array pass: its tests are listed in visiting order a bounded chunk at a
time, inverted as stacks and decided at once, and each pair keeps its first
independent test; a chunk skips the rest of a pair that stopped earlier.
Edges, sepsets and `tests_run` are those of testing one at a time.  A
side-(j, i) set that is also a side-(i, j) set is counted when reached but
computed once.
"""

from __future__ import annotations

import logging
from math import comb

import numpy as np

from ..errors import ParameterError
from ..graphs import Cpdag, _dense, _meek, _rows, _transpose, _unshielded
from ..scm import Dataset
from .citest import CiTestConfig, FisherZTester

logger = logging.getLogger(__name__)


# float64 entries of one stacked gather: bounds a chunk's memory, never its results
_STACK_ENTRIES = 1 << 18


def _skeleton(tester: FisherZTester, d: int, cfg: CiTestConfig):
    """Level-wise edge removal against a per-level snapshot, so the result
    does not depend on the order pairs are visited within a level."""
    adj = ~np.eye(d, dtype=bool)
    sepsets: dict[tuple[int, int], frozenset[int]] = {}
    level = 0
    while cfg.max_condition_size is None or level <= cfg.max_condition_size:
        if not _test_level(tester, adj, level, sepsets):
            break
        level += 1
    return adj, sepsets


def _test_level(tester: FisherZTester, adj, level: int, sepsets) -> bool:
    """Run one level's tests; False if no pair has `level` other neighbours.
    Rows go pair-major, side (i, j) then (j, i), sets in `combinations` order,
    and are listed one chunk of rows at a time: a row's set is unranked from
    its rank among its side's sets, so no array grows with the level."""
    snapshot = adj.copy()
    pairs = np.argwhere(np.triu(snapshot))
    sides = np.stack((pairs, pairs[:, ::-1]), axis=1).reshape(-1, 2)
    others = snapshot[sides[:, 0]]
    others[np.arange(len(sides)), sides[:, 1]] = False
    m = others.sum(axis=1)
    width = int(m.max(initial=-1))
    if width < level:
        return False
    tester.check_sample_size(level)
    # each side's other neighbours in ascending order, side after side
    rest, starts = np.nonzero(others)[1], np.cumsum(m) - m
    binom = np.array([[comb(a, k) for a in range(width + 1)] for k in range(level + 1)],
                     dtype=np.int64)
    ends = np.cumsum(binom[level, m])
    size, lo = max(1, _STACK_ENTRIES // (level + 2) ** 2), 0
    while lo < ends[-1]:
        hi = min(lo + size, int(ends[-1]))
        rows = np.arange(lo, hi)
        side = np.searchsorted(ends, rows, side="right")
        pair = side // 2
        # the set of lexicographic rank r among comb(m, level) is the one whose
        # colexicographic complement has rank comb(m, level) - 1 - r
        code, cols = ends[side] - 1 - rows, np.empty((len(rows), level), dtype=np.intp)
        for t in range(level):
            a = np.searchsorted(binom[level - t], code, side="right") - 1
            code -= binom[level - t, a]
            cols[:, t] = m[side] - 1 - a
        conds = rest[starts[side][:, None] + cols]
        # a repeated side-(j, i) set follows its dependent side-(i, j) twin
        new = (side % 2 == 0) | ~snapshot[sides[side, 1][:, None], conds].all(axis=1)
        independent = np.zeros(len(rows), dtype=bool)
        try:
            rs = tester.partial_correlations(pairs[pair[new]], conds[new])
            independent[new] = tester.decide_many(rs, level)
            stacked = True
        except ValueError:
            # a singular matrix (LinAlgError is a ValueError) or a non-positive
            # precision product may sit where the scan never reaches; test one
            # by one so that only a reached test raises, as it always did
            stacked, hit = False, -1
            for b, (p, cond) in enumerate(zip(pair.tolist(), conds.tolist())):
                if p != hit and tester.independent(*pairs[p].tolist(), cond):
                    independent[b], hit = True, p
        hits = np.flatnonzero(independent)
        hits = hits[np.diff(pair[hits], prepend=-1) != 0]
        if stacked:
            # a pair's rows after its first hit are never reached
            stops = np.minimum(ends[2 * pair[hits] + 1], hi)
            tester.tests_run += len(rows) - int((stops - lo - hits - 1).sum())
        i, j = pairs[pair[hits]].T
        adj[i, j] = adj[j, i] = False
        for a, b, cond in zip(i.tolist(), j.tolist(), conds[hits].tolist()):
            sepsets[(a, b)] = sepsets[(b, a)] = frozenset(cond)
        # a pair that stopped in this chunk skips its rows in the next
        lo = max(hi, int(ends[2 * pair[hits[-1]] + 1])) if len(hits) else hi
    return True


def _orient_colliders(adj: np.ndarray, sepsets) -> tuple[np.ndarray, int]:
    """Orientation votes from unshielded triples; an edge pulled both ways is
    left undirected (conflict counted)."""
    want = np.zeros_like(adj)
    rows = _rows(adj)
    for i, k, j in _unshielded(rows, rows):
        if k not in sepsets[(i, j)]:
            want[i, k] = want[j, k] = True
    conflicted = want & want.T
    directed = want & ~want.T
    return directed, int(conflicted.sum() // 2)


def pc(data: Dataset, cfg: CiTestConfig | None = None) -> Cpdag:
    """Stable-PC estimate of the CPDAG underlying the dataset.

    Orientation conflicts (collider votes pulling an edge both ways, or a
    Meek rule firing against an existing orientation) leave the edge as it
    is and are counted in the run log rather than raised.
    """
    cfg = cfg or CiTestConfig()
    d = data.d
    if d < 2:
        raise ParameterError("PC needs at least 2 variables")
    tester = FisherZTester(data, cfg.alpha)
    adj, sepsets = _skeleton(tester, d, cfg)
    directed, collider_conflicts = _orient_colliders(adj, sepsets)
    ch, un = _rows(directed), _rows(adj & ~(directed | directed.T))
    meek_conflicts = _meek(ch, _transpose(ch), un, "skip")
    D, U = _dense(ch), _dense(un)
    logger.info(
        "pc: d=%d n=%d ci_tests=%d edges=%d collider_conflicts=%d meek_conflicts=%d",
        d,
        data.n,
        tester.tests_run,
        int((D | U).sum() - U.sum() // 2),
        collider_conflicts,
        meek_conflicts,
    )
    return Cpdag(data.column_labels, D, U)
