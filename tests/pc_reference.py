"""Reference for the stable-PC skeleton in ``atebench.discovery.pc``.

This is the level loop the array skeleton replaced: every test runs on its
own, one `np.ix_` gather and one `np.linalg.inv` per call, in visiting order,
and a pair stops at its first independent test.  Tests require the array
skeleton to remove the same edges with the same sepsets after the same
number of tests, and to raise the same errors.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from atebench.discovery.citest import FisherZTester
from atebench.errors import DegenerateDataError, ParameterError, SampleSizeError


def reference_partial_correlation(corr: np.ndarray, i: int, j: int, cond: list[int]):
    """Partial correlation of i and j given the sorted `cond`, one test at a time."""
    if not cond:
        return corr[i, j]
    idx = [i, j] + cond
    prec = np.linalg.inv(corr[np.ix_(idx, idx)])
    den = prec[0, 0] * prec[1, 1]
    if not den > 0:
        # math.sqrt refuses a negative product; a zero (-0.0 included) or NaN
        # one would give an infinite r, and the stacked kernel refuses it too
        raise ValueError("math domain error")
    return -prec[0, 1] / math.sqrt(den)


class ReferenceFisherZ(FisherZTester):
    """The per-call Fisher-z test as it was before the stacked kernel."""

    def independent(self, i: int, j: int, cond) -> bool:
        cond = sorted(cond)
        if i == j or i in cond or j in cond:
            raise ParameterError("i, j, and the conditioning set must be disjoint")
        k = len(cond)
        if self.n <= k + 3:
            raise SampleSizeError(f"need n > {k + 3} for |cond|={k}, got n={self.n}")
        self.tests_run += 1
        try:
            r = reference_partial_correlation(self.corr, i, j, cond)
        except np.linalg.LinAlgError:
            raise DegenerateDataError(
                f"singular correlation submatrix for ({i}, {j} | {cond})"
            ) from None
        # |r| can graze 1 numerically; that is maximal dependence
        if abs(r) >= 1.0:
            return False
        stat = math.sqrt(self.n - k - 3) * math.atanh(r)
        return abs(stat) <= self.threshold


def reference_skeleton(tester, d: int, cfg):
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
        for i, j in pairs:
            removed = False
            for a, b in ((i, j), (j, i)):
                nbrs = [int(v) for v in np.flatnonzero(snapshot[a]) if v != b]
                if len(nbrs) < level:
                    continue
                for cond in combinations(nbrs, level):
                    if tester.independent(i, j, cond):
                        adj[i, j] = adj[j, i] = False
                        sepsets[(i, j)] = sepsets[(j, i)] = frozenset(cond)
                        removed = True
                        break
                if removed:
                    break
        level += 1
    return adj, sepsets
