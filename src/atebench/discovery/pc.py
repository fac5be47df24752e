"""Order-independent (stable) PC: skeleton, colliders, orientation propagation."""

from __future__ import annotations

import logging
from itertools import chain, combinations, islice

import numpy as np

from ..errors import ParameterError
from ..graphs import Cpdag, _dense, _meek, _rows, _transpose, _unshielded
from ..scm import Dataset
from .citest import CiTestConfig, FisherZTester

logger = logging.getLogger(__name__)


# float64 entries of one stacked gather: bounds a block's memory, never its results
_STACK_ENTRIES = 1 << 18


def _skeleton(tester: FisherZTester, d: int, cfg: CiTestConfig):
    """Level-wise edge removal against a per-level snapshot, so the result
    does not depend on the order pairs are visited within a level."""
    adj = ~np.eye(d, dtype=bool)
    sepsets: dict[tuple[int, int], frozenset[int]] = {}
    level = 0
    while True:
        if cfg.max_condition_size is not None and level > cfg.max_condition_size:
            break
        snapshot = adj.copy()
        degrees = snapshot.sum(axis=1)
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d) if snapshot[i, j]]
        if not any(degrees[i] - 1 >= level or degrees[j] - 1 >= level for i, j in pairs):
            break
        _test_level(tester, snapshot, pairs, level, adj, sepsets)
        level += 1
    return adj, sepsets


def _runs(snapshot: np.ndarray, pairs, level: int, done: list[bool], size: int):
    """(pair index, conditioning sets) runs holding every test of a level in
    visiting order: side (i, j) then (j, i), sets in `combinations` order,
    at most `size` sets a run.  A pair yields no more runs once it is done."""
    nbrs = [np.flatnonzero(row).tolist() for row in snapshot]
    for p, (i, j) in enumerate(pairs):
        for a, b in ((i, j), (j, i)):
            if done[p]:
                break
            rest = nbrs[a].copy()
            rest.remove(b)
            sets = combinations(rest, level)
            while run := list(islice(sets, size)):
                yield p, run
                if done[p]:
                    break


def _test_level(tester: FisherZTester, snapshot, pairs, level: int, adj, sepsets) -> None:
    """Run one level's tests.  The snapshot fixes every candidate test before
    any runs, so a block of them is computed as one stack and then scanned
    in visiting order: a pair stops at its first independent test, and
    `tests_run` counts only the tests that scan reaches."""
    size = max(1, _STACK_ENTRIES // (level + 2) ** 2)
    done = [False] * len(pairs)
    block, filled = [], 0
    for run in _runs(snapshot, pairs, level, done, size):
        block.append(run)
        filled += len(run[1])
        if filled >= size:
            _test_block(tester, pairs, level, block, done, adj, sepsets)
            block, filled = [], 0
    if block:
        _test_block(tester, pairs, level, block, done, adj, sepsets)


def _test_block(tester: FisherZTester, pairs, level: int, block, done, adj, sepsets) -> None:
    """One stacked computation over a block's runs, then the scan."""
    tester.check_sample_size(level)
    ij = np.repeat(np.array([pairs[p] for p, _ in block], dtype=np.intp),
                   [len(run) for _, run in block], axis=0)
    conds = np.fromiter(chain.from_iterable(cond for _, run in block for cond in run),
                        dtype=np.intp, count=len(ij) * level).reshape(len(ij), level)
    try:
        rs = tester.partial_correlations(ij, conds).tolist()
    except ValueError:
        # a singular matrix (LinAlgError is a ValueError) or a negative
        # precision product may sit where the scan never reaches; test one by
        # one so that only a reached test raises, as it always did
        rs = None
    at = 0
    for p, run in block:
        if not done[p]:
            i, j = pairs[p]
            for b, cond in enumerate(run, at):
                if rs is None:
                    independent = tester.independent(i, j, cond)
                else:
                    tester.tests_run += 1
                    independent = tester.decide(rs[b], level)
                if independent:
                    adj[i, j] = adj[j, i] = False
                    sepsets[(i, j)] = sepsets[(j, i)] = frozenset(cond)
                    done[p] = True
                    break
        at += len(run)


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
