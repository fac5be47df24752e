"""Numerical kernels in numpy: closure, the backdoor ATE table, the
weighted Wasserstein distance and the structure-MCMC chain.  Deterministic.
The local BIC score runs on Python floats and matches numpy bit for bit."""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import ParameterError

RIDGE = 1e-8

logger = logging.getLogger(__name__)


def centered_gram(values: np.ndarray) -> np.ndarray:
    """X_c^T X_c of the column-centered data: the BIC score's, the MCMC
    chain's and the ATE sweep's only view of the data."""
    x = np.asarray(values, dtype=np.float64)
    xc = x - x.mean(axis=0)
    return xc.T @ xc


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# small dense linear solves (for the local BIC score)
# ---------------------------------------------------------------------------


def _solve(a, b):
    """Gaussian elimination with partial pivoting on lists of floats.

    Inputs are copied, never mutated.  Returns (x, ok); ok is False when a
    pivot underflows the relative threshold (caller retries with a ridge),
    and x is then the right-hand side as far as elimination got.
    """
    k = len(a)
    u = [row[:] for row in a]
    x = b[:]
    scale = max(abs(v) for row in u for v in row)
    tiny = scale * 1e-13
    for col in range(k):
        piv, best = col, abs(u[col][col])
        for row in range(col + 1, k):
            m = abs(u[row][col])
            if m > best:
                piv, best = row, m
        if best <= tiny:
            return x, False
        if piv != col:
            u[col], u[piv] = u[piv], u[col]
            x[col], x[piv] = x[piv], x[col]
        top = u[col]
        inv_p = 1.0 / top[col]
        for row in range(col + 1, k):
            cur = u[row]
            factor = cur[col] * inv_p
            if factor != 0.0:
                cur[col + 1:] = [v - factor * w for v, w in zip(cur[col + 1:], top[col + 1:])]
                x[row] -= factor * x[col]
    for col in range(k - 1, -1, -1):
        inv_p = 1.0 / u[col][col]
        acc = x[col]
        for row in range(col + 1, k):
            acc -= u[col][row] * x[row]
        x[col] = acc * inv_p
    return x, True


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def transitive_closure_batch(stack) -> np.ndarray:
    """Reachability by paths of length >= 1: a (m, d, d) bool adjacency
    stack, or one (d, d) adjacency, to a new bool array of the same shape.
    The whole input is squared at once: each product is a float32 matmul
    whose entries count two-step paths, at most d, so they are exact."""
    out = np.array(stack, dtype=bool)
    edges = np.count_nonzero(out)
    while True:
        f = out.astype(np.float32)
        out |= np.matmul(f, f) > 0
        # the update only adds edges, so an equal count means an equal stack
        nxt_edges = np.count_nonzero(out)
        if nxt_edges == edges:
            return out
        edges = nxt_edges


# ---------------------------------------------------------------------------
# the adjustment sweep
# ---------------------------------------------------------------------------


def unique_rows(rows):
    """(first, inverse) of ``np.unique(rows, axis=0)`` on a 2-D uint8 array:
    the index of each distinct row's first copy, in sorted row order, and
    each row's distinct-row index.  Each row is viewed as one opaque item,
    which sorts like its bytes and far faster than ``axis=0``."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    items = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, inv = np.unique(items, return_index=True, return_inverse=True)
    return first, inv


def ate_table(gram, stack):
    """Unit-contrast effects of every distinct (treatment, parent set) in a
    (m, d, d) bool DAG stack, as (table, keys).

    gram is the centered Gram matrix of the dataset.  keys[g, t] is the row
    of the (K, d) table that holds graph g's regression for treatment t: its
    entry y is the coefficient on t when y is regressed on t and its parents
    in g, NaN only if even the ridge-adjusted solve fails.  Effects depend on
    g only through pa(t), so each distinct (t, pa(t)) is one row, solved once
    in order of first appearance in (g, t) C-order; a ridge retry is logged
    once per row.  Whether y descends from t is left to the caller.
    """
    gram = np.ascontiguousarray(gram, dtype=float)
    stack = np.ascontiguousarray(stack, dtype=bool)
    m, d, _ = stack.shape
    # key of (g, t): t as four bytes, then the parent column stack[g, :, t] as bits
    ts = np.arange(d, dtype=np.uint32).view(np.uint8).reshape(d, 4)
    cols = np.packbits(stack, axis=1).transpose(0, 2, 1)
    keys = np.concatenate([np.broadcast_to(ts, (m, d, 4)), cols], axis=2)
    first, inv = unique_rows(keys.reshape(m * d, keys.shape[2]))
    table = np.empty((first.size, d))
    for at in sorted(first.tolist()):
        g, t = divmod(at, d)
        pa = np.flatnonzero(stack[g, :, t])
        idx = np.concatenate(([t], pa))
        a = gram[np.ix_(idx, idx)]
        b = gram[idx, :]
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            logger.warning(
                "rank-deficient design for treatment=%d adjustment=%s; ridge fallback",
                t, pa.tolist(),
            )
            lam = RIDGE * (1.0 + np.abs(np.diag(a)).mean())
            try:
                x = np.linalg.solve(a + lam * np.eye(len(idx)), b)
            except np.linalg.LinAlgError:
                x = np.full_like(b, np.nan)
        table[inv[at]] = x[0]
    return table, inv.reshape(m, d)


def ate_sweep_kernel(gram, stack, closure) -> np.ndarray:
    """Unit-contrast effects for every (graph, treatment, outcome) triple:
    ``ate_table`` expanded to a (m, d, d) stack, forced to exactly 0.0 where
    closure says y does not descend from t and on the diagonal.  The package
    sweeps through ``ate_table``; this form is kept for the benchmark's
    kernel cases."""
    closure = np.ascontiguousarray(closure, dtype=bool)
    table, keys = ate_table(gram, stack)
    d = table.shape[1]
    out = table[keys]
    # zero the non-descendants in place: np.where would build a second stack
    np.copyto(out, 0.0, where=~closure)
    out[:, range(d), range(d)] = 0.0
    return out


# ---------------------------------------------------------------------------
# weighted 1-D Wasserstein distance
# ---------------------------------------------------------------------------


def weighted_wasserstein(xs, wx, ys, wy) -> float:
    """First Wasserstein distance between two weighted atom sets.

    Supports must already be sorted ascending and each weight vector must
    sum to one; validation belongs to the caller.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    wx = np.ascontiguousarray(wx, dtype=float)
    ys = np.ascontiguousarray(ys, dtype=float)
    wy = np.ascontiguousarray(wy, dtype=float)
    grid = np.concatenate([xs, ys])
    grid.sort(kind="mergesort")
    deltas = np.diff(grid)
    cx = np.concatenate([[0.0], np.cumsum(wx)])
    cy = np.concatenate([[0.0], np.cumsum(wy)])
    ix = np.searchsorted(xs, grid[:-1], side="right")
    iy = np.searchsorted(ys, grid[:-1], side="right")
    return float(np.sum(np.abs(cx[ix] - cy[iy]) * deltas))


# ---------------------------------------------------------------------------
# structure sampler chain
# ---------------------------------------------------------------------------


def _local_bic(gram, n_rows, node, mask, cache):
    """Cached BIC of node given the parents set in mask; gram is float rows."""
    key = (node << 52) | mask
    if key in cache:
        return cache[key]
    pa = [i for i in range(len(gram)) if (mask >> i) & 1]
    syy = gram[node][node]
    rss = syy
    if pa:
        rows = [gram[r] for r in pa]
        a = [[row[c] for c in pa] for row in rows]
        b = [row[node] for row in rows]
        x, ok = _solve(a, b)
        if not ok:
            lam = 0.0
            for r, row in enumerate(a):
                lam += abs(row[r])
            lam = RIDGE * (1.0 + lam / len(pa))
            for r, row in enumerate(a):
                row[r] += lam
            x, _ = _solve(a, b)
        for br, xr in zip(b, x):
            rss -= br * xr
    floor = 1e-12 * (syy if syy > 1.0 else 1.0)
    if rss < floor:
        rss = floor
    score = -0.5 * n_rows * math.log(rss / n_rows) - 0.5 * (len(pa) + 1) * math.log(n_rows)
    cache[key] = score
    return score


def _move_cum(adj, reach, offdiag):
    """Row-major cumulative count of the single-edge moves legal in a DAG.

    Cell (i, j) holds, in this order, a delete of i -> j when the edge is
    present and a reverse of it when no other directed path i ~> j exists;
    otherwise an add of i -> j when no path j ~> i exists.  reach is the
    closure of adj and offdiag the off-diagonal mask; the last entry is the
    move count.
    """
    rev = adj & ~(adj @ reach)
    add = offdiag & ~(adj | reach.T)
    return (adj.view(np.int8) + rev.view(np.int8) + add.view(np.int8)).ravel().cumsum()


def _pick_move(adj, cum, pick):
    """(kind, i, j) of move number pick in _move_cum's order.

    Kinds: 0 add i->j, 1 delete i->j, 2 reverse i->j.  The first cell is a
    diagonal one and holds no move, so cum[cell - 1] always exists.
    """
    cell = int(cum.searchsorted(pick, side="right"))
    i, j = divmod(cell, adj.shape[0])
    if not adj[i, j]:
        return 0, i, j
    return (1 if pick == cum[cell - 1] else 2), i, j


def mcmc_chain(gram, n_rows: int, steps: int, burn_in: int, thin: int, uniforms):
    """Metropolis-Hastings chain over DAGs targeting exp(BIC).

    uniforms must be a (steps, 2) array of pre-drawn U(0,1) draws: column 0
    selects the move, column 1 decides acceptance.  Returns (samples,
    accepted) where samples is the (n_kept, d, d) bool stack recorded after
    burn-in at the thinning stride.
    """
    gram = np.asarray(gram, dtype=float).tolist()
    d = len(gram)
    uniforms = np.ascontiguousarray(uniforms, dtype=float)
    if uniforms.shape != (steps, 2):
        raise ParameterError(f"uniforms must have shape ({steps}, 2), got {uniforms.shape}")
    if not 1 <= d <= 50:
        raise ParameterError(f"sampler needs 1 to 50 nodes (parent-set masks), got {d}")
    samples = np.zeros((max((steps - burn_in) // thin, 0), d, d), np.bool_)
    cache = {}
    # The move count of the current state is carried from step to step: a
    # proposal's count becomes the state's on accept, and a rejection leaves
    # the state unchanged.  So each step closes and counts one graph.
    adj = np.zeros((d, d), np.bool_)
    offdiag = ~np.eye(d, dtype=np.bool_)
    masks = [0] * d
    local = [_local_bic(gram, n_rows, k, 0, cache) for k in range(d)]
    cum = _move_cum(adj, transitive_closure_batch(adj), offdiag)
    n_moves = int(cum[-1])
    accepted = 0
    rec = 0
    for s, (u_move, u_accept) in enumerate(uniforms.tolist(), 1):
        if n_moves > 0:
            pick = min(int(u_move * n_moves), n_moves - 1)
            kind, mi, mj = _pick_move(adj, cum, pick)
            if kind == 0:
                mask_j = masks[mj] | (1 << mi)
            else:
                mask_j = masks[mj] & ~(1 << mi)
            new_j = _local_bic(gram, n_rows, mj, mask_j, cache)
            delta = new_j - local[mj]
            if kind == 2:
                mask_i = masks[mi] | (1 << mj)
                new_i = _local_bic(gram, n_rows, mi, mask_i, cache)
                delta = delta + (new_i - local[mi])
            adj[mi, mj] = kind == 0
            if kind == 2:
                adj[mj, mi] = True
            cum2 = _move_cum(adj, transitive_closure_batch(adj), offdiag)
            n_moves2 = int(cum2[-1])
            log_alpha = delta + math.log(n_moves) - math.log(n_moves2)
            if math.log(max(u_accept, 1e-300)) < log_alpha:
                accepted += 1
                cum, n_moves = cum2, n_moves2
                masks[mj], local[mj] = mask_j, new_j
                if kind == 2:
                    masks[mi], local[mi] = mask_i, new_i
            else:
                adj[mi, mj] = kind != 0
                if kind == 2:
                    adj[mj, mi] = False
        if s > burn_in and (s - burn_in) % thin == 0:
            samples[rec] = adj
            rec += 1
    return samples, accepted
