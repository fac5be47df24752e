"""Reference for the backdoor ATE code in ``atebench``.

``ate_sweep_kernel`` is the sweep kernel as it was before it solved once per
distinct (treatment, parent set): one normal-equations solve per (DAG,
treatment) pair.  Tests require ``atebench.kernels.ate_sweep_kernel`` to
return the same bytes.  ``estimate_ate`` is the textbook single-query
estimate, a regression on centred data, kept as an independent oracle for
the sweep and for the estimator-consistency acceptance test, whose own
oracle is ``analytic_total_effect``.  ``descendants_matrix`` is the
reachability of one DAG, which ``estimate_ate`` reads.
"""

from __future__ import annotations

import logging

import numpy as np

from atebench.errors import ParameterError, SampleSizeError, SchemaError

from graph_helpers import closure_one, parents

RIDGE = 1e-8

logger = logging.getLogger(__name__)


def ate_sweep_kernel(gram, stack, closure) -> np.ndarray:
    """Unit-contrast effects for every (graph, treatment, outcome) triple.

    gram is the centered Gram matrix of the dataset.  For each graph g and
    treatment t the regressors are t plus its parents in g; out[g, t, y] is
    the coefficient on t when y is regressed on them, forced to exactly 0.0
    when y is not a descendant of t, and NaN only if even the ridge-adjusted
    solve fails.
    """
    gram = np.ascontiguousarray(gram, dtype=float)
    stack = np.ascontiguousarray(stack, dtype=bool)
    closure = np.ascontiguousarray(closure, dtype=bool)
    m, d, _ = stack.shape
    out = np.empty((m, d, d))
    for g in range(m):
        adj = stack[g]
        for t in range(d):
            pa = np.flatnonzero(adj[:, t])
            idx = np.concatenate(([t], pa))
            a = gram[np.ix_(idx, idx)]
            b = gram[idx, :]
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                lam = RIDGE * (1.0 + np.abs(np.diag(a)).mean())
                try:
                    x = np.linalg.solve(a + lam * np.eye(len(idx)), b)
                except np.linalg.LinAlgError:
                    x = np.full_like(b, np.nan)
            row = np.where(closure[g, t], x[0], 0.0)
            row[t] = 0.0
            out[g, t] = row
    return out


def descendants_matrix(g) -> np.ndarray:
    """Boolean matrix with entry (i, j) true iff a directed path i ~> j exists in g."""
    return closure_one(g.adjacency)


def analytic_total_effect(scm, treatment: int, outcome: int) -> float:
    """Total causal effect of a unit treatment shift: entry (treatment, outcome)
    of (I - W)^-1, equal to the sum over directed paths of edge-weight products."""
    d = scm.graph.num_nodes
    if treatment == outcome:
        raise ParameterError("treatment and outcome must differ")
    if not (0 <= treatment < d and 0 <= outcome < d):
        raise ParameterError("treatment/outcome index out of range")
    eye = np.eye(d)
    inv = np.linalg.solve(eye - scm.weights, eye)
    return float(inv[treatment, outcome])


def backdoor_adjustment_set(g, q) -> set[int]:
    """Parents of the treatment: a valid backdoor set in any latent-free DAG."""
    return parents(g, q.treatment)


def contrast(q) -> float:
    """The intervention contrast b - a of an AteQuery."""
    return q.treatment_value_b - q.reference_value_a


def estimate_ate(g, data, q) -> float:
    """Linear-regression backdoor estimate of the query's ATE under graph g.

    Regresses the outcome on [1, treatment, adjustment set] and scales the
    treatment coefficient by the contrast b - a.  When the outcome is not a
    descendant of the treatment the effect is exactly 0.0, no regression run.
    """
    if g.labels != data.column_labels:
        raise SchemaError("graph and dataset labels differ")
    t, y = q.treatment, q.outcome
    if not 0 <= y < g.num_nodes:
        raise ParameterError(f"outcome index {y} out of range")
    if not descendants_matrix(g)[t, y]:
        return 0.0
    z = sorted(backdoor_adjustment_set(g, q))
    if data.n < len(z) + 2:
        raise SampleSizeError(f"need n >= {len(z) + 2} rows for |adjustment|={len(z)}, got {data.n}")
    x = data.values
    xc = x - x.mean(axis=0)
    idx = [t] + z
    a = xc[:, idx].T @ xc[:, idx]
    b = xc[:, idx].T @ xc[:, y]
    try:
        coef = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        lam = RIDGE * (1.0 + np.abs(np.diag(a)).mean())
        logger.warning(
            "rank-deficient design for treatment=%d adjustment=%s; ridge fallback", t, z
        )
        coef = np.linalg.solve(a + lam * np.eye(len(idx)), b)
    return float(coef[0]) * contrast(q)


def solve_failing_on(idx):
    """A stand-in for np.linalg.solve that raises LinAlgError for the design
    on columns idx (t first, then its parents), with or without the ridge:
    the sweep solves gram[idx][:, idx] against gram[idx, :]."""
    solve = np.linalg.solve
    idx = list(idx)

    def fake(a, b):
        if b.ndim == 2 and b.shape[0] == len(idx) and np.allclose(a, b[:, idx]):
            raise np.linalg.LinAlgError("forced failure")
        return solve(a, b)

    return fake
