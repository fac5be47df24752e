"""Loop and numpy references for the structure-MCMC chain in ``atebench.kernels``.

The loop reference is plain Python: a Floyd-Warshall closure, a depth-first
reversal check, a move enumerator that walks the cells in row-major order,
and a chain that recomputes the closure and the move count of the current
state at the top of every step.  The numpy reference is the chain the
bitmask one replaced: it closes every proposal with
``transitive_closure_batch`` and counts its moves with one cumulative sum
over the cells (``_move_cum``, ``_pick_move``).  Tests require the kernel to
reproduce both exactly.  Both score with the numpy local BIC of
``score_reference``, so that equality also checks the list score in
``atebench.kernels``.
"""

from __future__ import annotations

import math

import numpy as np

from atebench.kernels import transitive_closure_batch
from score_reference import _local_bic


def _reach(adj):
    """Floyd-Warshall closure: paths of length >= 1."""
    d = adj.shape[0]
    out = adj.copy()
    for k in range(d):
        for i in range(d):
            if out[i, k]:
                for j in range(d):
                    if out[k, j]:
                        out[i, j] = True
    return out


def _reverse_ok(adj, i, j):
    """True when reversing i -> j keeps the graph acyclic: no alternative
    directed path i ~> j survives once the edge itself is ignored."""
    d = adj.shape[0]
    stack = np.empty(d, np.int64)
    visited = np.zeros(d, np.bool_)
    top = 0
    stack[top] = i
    top += 1
    visited[i] = True
    while top > 0:
        top -= 1
        u = stack[top]
        for v in range(d):
            if adj[u, v] and not (u == i and v == j):
                if v == j:
                    return False
                if not visited[v]:
                    visited[v] = True
                    stack[top] = v
                    top += 1
    return True


def _nth_move(adj, reach, pick):
    """Enumerate valid single-edge moves in a fixed order.

    pick < 0 counts them; pick >= 0 returns (count_so_far, kind, i, j) for
    the pick-th move.  Kinds: 0 add i->j, 1 delete i->j, 2 reverse i->j.
    """
    d = adj.shape[0]
    count = 0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            if adj[i, j]:
                if count == pick:
                    return count, 1, i, j
                count += 1
                if _reverse_ok(adj, i, j):
                    if count == pick:
                        return count, 2, i, j
                    count += 1
            elif not adj[j, i] and not reach[j, i]:
                if count == pick:
                    return count, 0, i, j
                count += 1
    return count, -1, -1, -1


def _mcmc_loop(gram, n_rows, steps, burn_in, thin, uniforms, samples_out, cache):
    d = gram.shape[0]
    adj = np.zeros((d, d), np.bool_)
    masks = np.zeros(d, np.int64)
    local = np.empty(d)
    for k in range(d):
        local[k] = _local_bic(gram, n_rows, k, 0, cache)
    accepted = 0
    rec = 0
    for s in range(1, steps + 1):
        reach = _reach(adj)
        n_moves, _, _, _ = _nth_move(adj, reach, -1)
        if n_moves > 0:
            pick = int(uniforms[s - 1, 0] * n_moves)
            if pick >= n_moves:
                pick = n_moves - 1
            _, kind, mi, mj = _nth_move(adj, reach, pick)
            new_i = 0.0
            new_j = 0.0
            if kind == 0:
                new_j = _local_bic(gram, n_rows, mj, masks[mj] | (1 << mi), cache)
                delta = new_j - local[mj]
                adj[mi, mj] = True
            elif kind == 1:
                new_j = _local_bic(gram, n_rows, mj, masks[mj] & ~(1 << mi), cache)
                delta = new_j - local[mj]
                adj[mi, mj] = False
            else:
                new_j = _local_bic(gram, n_rows, mj, masks[mj] & ~(1 << mi), cache)
                new_i = _local_bic(gram, n_rows, mi, masks[mi] | (1 << mj), cache)
                delta = (new_j - local[mj]) + (new_i - local[mi])
                adj[mi, mj] = False
                adj[mj, mi] = True
            reach2 = _reach(adj)
            n_moves2, _, _, _ = _nth_move(adj, reach2, -1)
            log_alpha = delta + math.log(n_moves) - math.log(n_moves2)
            u = uniforms[s - 1, 1]
            if u < 1e-300:
                u = 1e-300
            if math.log(u) < log_alpha:
                accepted += 1
                if kind == 0:
                    masks[mj] |= 1 << mi
                    local[mj] = new_j
                elif kind == 1:
                    masks[mj] &= ~(1 << mi)
                    local[mj] = new_j
                else:
                    masks[mj] &= ~(1 << mi)
                    masks[mi] |= 1 << mj
                    local[mj] = new_j
                    local[mi] = new_i
            else:
                if kind == 0:
                    adj[mi, mj] = False
                elif kind == 1:
                    adj[mi, mj] = True
                else:
                    adj[mj, mi] = False
                    adj[mi, mj] = True
        if s > burn_in and (s - burn_in) % thin == 0:
            samples_out[rec] = adj
            rec += 1
    return accepted


def reference_chain(gram, n_rows, steps, burn_in, thin, uniforms):
    """(samples, accepted) of the loop chain, shaped as ``mcmc_chain``'s."""
    gram = np.ascontiguousarray(gram, dtype=float)
    d = gram.shape[0]
    samples = np.zeros((max((steps - burn_in) // thin, 0), d, d), np.bool_)
    accepted = _mcmc_loop(gram, n_rows, steps, burn_in, thin, uniforms, samples, {})
    return samples, int(accepted)


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


def numpy_chain(gram, n_rows, steps, burn_in, thin, uniforms):
    """(samples, accepted) of the numpy chain, shaped as ``mcmc_chain``'s:
    each proposal is closed and its moves counted from scratch."""
    gram = np.ascontiguousarray(gram, dtype=float)
    d = gram.shape[0]
    samples = np.zeros((max((steps - burn_in) // thin, 0), d, d), np.bool_)
    cache = {}
    adj = np.zeros((d, d), np.bool_)
    offdiag = ~np.eye(d, dtype=np.bool_)
    masks = [0] * d
    local = [_local_bic(gram, n_rows, k, 0, cache) for k in range(d)]
    cum = _move_cum(adj, transitive_closure_batch(adj), offdiag)
    n_moves = int(cum[-1])
    accepted = 0
    rec = 0
    for s, (u_move, u_accept) in enumerate(np.asarray(uniforms, dtype=float).tolist(), 1):
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
