"""Numerical kernels: closure, the backdoor ATE table and the weighted
Wasserstein distance in numpy; the local BIC score and the structure-MCMC
chain on Python floats and int bitmasks.  Deterministic.  The local BIC
score matches numpy bit for bit, and the chain keeps each node's
descendants, ancestors and reversible edges as masks, updated per move."""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from itertools import accumulate

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
    """Cached BIC of node given the parents set in mask; gram is float rows.

    One and two parents are eliminated inline, with the operations ``_solve``
    performs in its order; a pivot under the threshold, and any other parent
    count, takes the general path."""
    key = (node << 52) | mask
    if key in cache:
        return cache[key]
    k = mask.bit_count()
    syy = gram[node][node]
    rss = None
    if k == 1:
        p = mask.bit_length() - 1
        row = gram[p]
        a = row[p]
        if abs(a) > abs(a) * 1e-13:
            b = row[node]
            rss = syy - b * (b * (1.0 / a))
    elif k == 2:
        q = mask.bit_length() - 1
        p = (mask ^ (1 << q)).bit_length() - 1
        rp, rq = gram[p], gram[q]
        a00, a01, a10, a11 = rp[p], rp[q], rq[p], rq[q]
        b0, b1 = rp[node], rq[node]
        tiny = max(abs(a00), abs(a01), abs(a10), abs(a11)) * 1e-13
        x0, x1 = b0, b1
        if abs(a10) > abs(a00):
            a00, a01, a10, a11 = a10, a11, a00, a01
            x0, x1 = b1, b0
        if abs(a00) > tiny:
            factor = a10 * (1.0 / a00)
            if factor != 0.0:
                a11 = a11 - factor * a01
                x1 = x1 - factor * x0
            if abs(a11) > tiny:
                x1 = x1 * (1.0 / a11)
                x0 = (x0 - a01 * x1) * (1.0 / a00)
                rss = syy - b0 * x0 - b1 * x1
    if rss is None:
        rss = syy
        if k:
            pa = [i for i in range(len(gram)) if (mask >> i) & 1]
            rows = [gram[r] for r in pa]
            a = [[row[c] for c in pa] for row in rows]
            b = [row[node] for row in rows]
            x, ok = _solve(a, b)
            if not ok:
                lam = 0.0
                for r, row in enumerate(a):
                    lam += abs(row[r])
                lam = RIDGE * (1.0 + lam / k)
                for r, row in enumerate(a):
                    row[r] += lam
                x, _ = _solve(a, b)
            for br, xr in zip(b, x):
                rss -= br * xr
    floor = 1e-12 * (syy if syy > 1.0 else 1.0)
    if rss < floor:
        rss = floor
    score = -0.5 * n_rows * math.log(rss / n_rows) - 0.5 * (k + 1) * math.log(n_rows)
    cache[key] = score
    return score


def _reachability(ch, pa):
    """(desc, anc, rev) masks of the DAG with child masks ch and parent masks
    pa: each node's strict descendants, its strict ancestors, and its
    reversible edges, those to a child that no other directed path reaches.
    Kahn order, then descendants in reverse order and ancestors in order."""
    d = len(ch)
    waiting = [m.bit_count() for m in pa]
    order = [v for v in range(d) if not pa[v]]
    for v in order:
        m = ch[v]
        while m:
            low = m & -m
            c = low.bit_length() - 1
            waiting[c] -= 1
            if not waiting[c]:
                order.append(c)
            m ^= low
    desc, anc, rev = [0] * d, [0] * d, [0] * d
    for v in reversed(order):
        below = 0
        m = ch[v]
        while m:
            low = m & -m
            below |= desc[low.bit_length() - 1]
            m ^= low
        desc[v] = ch[v] | below
        rev[v] = ch[v] & ~below
    for v in order:
        above = m = pa[v]
        while m:
            low = m & -m
            above |= anc[low.bit_length() - 1]
            m ^= low
        anc[v] = above
    return desc, anc, rev


def _row_cum(anc, rev):
    """Cumulative move counts by row: row i holds d - 1 - |anc_i| adds and
    deletes and |rev_i| reversals, so the last entry is the move count."""
    d = len(anc)
    return list(accumulate(d - 1 - a.bit_count() + r.bit_count() for a, r in zip(anc, rev)))


def _pick(ch, anc, rev, row_cum, pick):
    """(kind, i, j) of move number pick.  Kinds: 0 add i->j, 1 delete i->j,
    2 reverse i->j.

    Moves run row by row and, in row i, column by column.  A child j holds a
    delete, then a reverse when the edge is reversible; any other j that is
    neither i nor an ancestor of i holds an add.
    """
    i = bisect_right(row_cum, pick)
    r = pick - row_cum[i - 1] if i else pick
    two = rev[i]
    m = ~(anc[i] | 1 << i) & ((1 << len(ch)) - 1)
    while True:
        low = m & -m
        width = 2 if two & low else 1
        if r < width:
            break
        r -= width
        m ^= low
    j = low.bit_length() - 1
    if ch[i] & low:
        return (1 if r == 0 else 2), i, j
    return 0, i, j


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
    cache = {}
    # The state is per-node masks: children ch, parents pa, strict
    # descendants and ancestors, and reversible edges rev.  With
    # R = sum |rev_i| and P = sum |desc_i| the move count is d(d-1) + R - P.
    # An add updates the masks in place; deleting an edge that another path
    # doubles changes no reachability; any other delete or reversal recomputes
    # the masks of the proposal.
    ch, pa = [0] * d, [0] * d
    desc, anc, rev = [0] * d, [0] * d, [0] * d
    local = [_local_bic(gram, n_rows, k, 0, cache) for k in range(d)]
    row_cum = _row_cum(anc, rev)
    n_moves = row_cum[-1]
    accepted = 0
    kept = []
    for s, (u_move, u_accept) in enumerate(uniforms.tolist(), 1):
        if n_moves > 0:
            kind, mi, mj = _pick(ch, anc, rev, row_cum, min(int(u_move * n_moves), n_moves - 1))
            bi, bj = 1 << mi, 1 << mj
            mask_j = pa[mj] | bi if kind == 0 else pa[mj] & ~bi
            new_j = _local_bic(gram, n_rows, mj, mask_j, cache)
            delta = new_j - local[mj]
            if kind == 2:
                mask_i = pa[mi] | bj
                new_i = _local_bic(gram, n_rows, mi, mask_i, cache)
                delta = delta + (new_i - local[mi])
            masks2 = None
            if kind == 0:
                # i -> j joins A = anc_i + i to B = desc_j + j: each a in A
                # gains B's new descendants and loses its reversible edges
                # into B, and the edge itself is reversible unless j already
                # descends from i
                up, down = anc[mi] | bi, desc[mj] | bj
                fresh = not desc[mi] & bj
                n_moves2 = n_moves + fresh
                m = up
                while m:
                    low = m & -m
                    a = low.bit_length() - 1
                    n_moves2 -= (down & ~desc[a]).bit_count() + (rev[a] & down).bit_count()
                    m ^= low
            elif kind == 1 and not rev[mi] & bj:
                n_moves2 = n_moves
            else:
                ch2, pa2 = ch[:], pa[:]
                ch2[mi] ^= bj
                pa2[mj] = mask_j
                if kind == 2:
                    ch2[mj] |= bi
                    pa2[mi] = mask_i
                masks2 = _reachability(ch2, pa2)
                row_cum2 = _row_cum(masks2[1], masks2[2])
                n_moves2 = row_cum2[-1]
            log_alpha = delta + math.log(n_moves) - math.log(n_moves2)
            if math.log(max(u_accept, 1e-300)) < log_alpha:
                accepted += 1
                local[mj] = new_j
                if kind == 2:
                    local[mi] = new_i
                if masks2 is not None:
                    ch, pa = ch2, pa2
                    desc, anc, rev = masks2
                    row_cum = row_cum2
                else:
                    ch[mi] ^= bj
                    pa[mj] = mask_j
                if kind == 0:
                    keep = ~down
                    m = up
                    while m:
                        low = m & -m
                        a = low.bit_length() - 1
                        desc[a] |= down
                        rev[a] &= keep
                        m ^= low
                    m = down
                    while m:
                        low = m & -m
                        anc[low.bit_length() - 1] |= up
                        m ^= low
                    if fresh:
                        rev[mi] |= bj
                    row_cum = _row_cum(anc, rev)
                n_moves = n_moves2
        if s > burn_in and (s - burn_in) % thin == 0:
            kept.append(tuple(ch))
    # each kept state is d child masks; bit j of row i is the edge i -> j
    packed = np.array(kept, dtype="<u8").reshape(len(kept), d, 1).view(np.uint8)
    samples = np.unpackbits(packed, axis=2, count=d, bitorder="little").view(np.bool_)
    return samples, accepted
