"""Reference for the PDAG core in ``atebench.graphs`` and ``atebench.mec``.

These are the dense boolean-matrix implementations the int-bitmask core
replaced: Kahn ordering, collider listing, the Meek rules R1-R4, Dor-Tarsi
extension, DAG -> CPDAG and equivalence-class enumeration, each re-reading
whole rows with numpy after every change.  Tests require the mask core to
return the same graphs, the same conflict counts, the same members in the
same order and to raise on the same inputs.
"""

from __future__ import annotations

import numpy as np

from atebench.errors import (
    CyclicGraphError,
    ExtensionError,
    MecCapacityError,
    OrientationConflictError,
    ParameterError,
)
from atebench.graphs import Cpdag, Dag, _check_square
from atebench.mec import DEFAULT_MEC_CAP

from graph_helpers import skeleton


class MecEnumeration:
    """The enumeration result as it was: the source DAG, its CPDAG, the
    members and the cap."""

    def __init__(self, source: Dag, cpdag: Cpdag, members: list[Dag], cap: int):
        self.source = source
        self.cpdag = cpdag
        self.members = members
        self.cap = cap


def topological_order(adjacency: np.ndarray) -> list[int]:
    """A topological order of the DAG, lowest index first among the ready nodes."""
    a = _check_square(adjacency)
    indeg = a.sum(axis=0).astype(int)
    active = np.ones(a.shape[0], dtype=bool)
    order: list[int] = []
    for _ in range(a.shape[0]):
        ready = np.flatnonzero(active & (indeg == 0))
        if ready.size == 0:
            raise CyclicGraphError("graph has a directed cycle")
        k = int(ready[0])
        order.append(k)
        active[k] = False
        indeg -= a[k].astype(int)
    return order


def _pdag_v_structures(directed: np.ndarray, undirected: np.ndarray) -> set[tuple[int, int, int]]:
    """Collider triples among the *directed* edges of a PDAG: i -> k <- j with
    i, j nonadjacent (by any edge), i < j."""
    sym = directed | directed.T | undirected
    out: set[tuple[int, int, int]] = set()
    d = directed.shape[0]
    for k in range(d):
        pa = np.flatnonzero(directed[:, k])
        for a_idx in range(len(pa)):
            for b_idx in range(a_idx + 1, len(pa)):
                i, j = int(pa[a_idx]), int(pa[b_idx])
                if not sym[i, j]:
                    out.add((i, k, j))
    return out


def _meek_close(
    directed: np.ndarray,
    undirected: np.ndarray,
    on_conflict: str = "raise",
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run Meek rules R1-R4 to a fixed point on mutable copies.

    Returns (directed, undirected, conflicts).  With ``on_conflict="skip"`` a
    rule firing against an existing opposite orientation is counted and
    ignored instead of raising.
    """
    if on_conflict not in ("raise", "skip"):
        raise ParameterError(f"unknown conflict policy {on_conflict!r}")
    D = directed.copy()
    U = undirected.copy()
    conflicts = 0

    def orient(i: int, j: int) -> bool:
        nonlocal conflicts
        if D[i, j]:
            return False
        if D[j, i]:
            if on_conflict == "raise":
                raise OrientationConflictError(f"rule wants {i}->{j} but {j}->{i} is set")
            conflicts += 1
            return False
        D[i, j] = True
        U[i, j] = U[j, i] = False
        return True

    d = D.shape[0]
    changed = True
    while changed:
        changed = False
        adj = D | D.T | U
        # R1: a -> b - c, a and c nonadjacent  =>  b -> c
        has_nonadj_parent = (D.astype(np.int64).T @ (~adj).astype(np.int64)) > 0
        np.fill_diagonal(has_nonadj_parent, False)
        for b, c in zip(*np.nonzero(has_nonadj_parent & U)):
            changed |= orient(int(b), int(c))
        if changed:
            continue
        # R2: a -> b -> c with a - c  =>  a -> c
        two_chain = (D.astype(np.int64) @ D.astype(np.int64)) > 0
        for a, c in zip(*np.nonzero(two_chain & U)):
            changed |= orient(int(a), int(c))
        if changed:
            continue
        # R3: a - b with a - c, a - d, c -> b, d -> b, c and d nonadjacent  =>  a -> b
        for a in range(d):
            for b in np.flatnonzero(U[a]):
                cands = np.flatnonzero(U[a] & D[:, b])
                stop = False
                for x_idx in range(len(cands)):
                    for y_idx in range(x_idx + 1, len(cands)):
                        if not adj[cands[x_idx], cands[y_idx]]:
                            changed |= orient(a, int(b))
                            stop = True
                            break
                    if stop:
                        break
        if changed:
            continue
        # R4: a - b with a - c, c -> e, e -> b, b and c nonadjacent  =>  a -> b
        for a in range(d):
            for b in np.flatnonzero(U[a]):
                heads = np.flatnonzero(U[a] & ~adj[b])
                done = False
                for c in heads:
                    if np.any(D[c] & D[:, b]):
                        changed |= orient(a, int(b))
                        done = True
                        break
                if done:
                    break
    return D, U, conflicts



def _extend_pdag(
    directed: np.ndarray, undirected: np.ndarray, scan_order: list[int]
) -> np.ndarray:
    """Dor-Tarsi sink elimination; returns a full adjacency matrix or raises.

    ``scan_order`` fixes which eligible sink is removed first, making the
    extension deterministic for a given order.
    """
    D = directed.copy()
    U = undirected.copy()
    out = directed.copy()
    d = D.shape[0]
    active = np.ones(d, dtype=bool)
    for _ in range(d):
        adj = D | D.T | U
        found = -1
        for x in scan_order:
            if not active[x]:
                continue
            if np.any(D[x] & active):  # x has an outgoing directed edge
                continue
            nbrs = np.flatnonzero(adj[x] & active)
            und = np.flatnonzero(U[x] & active)
            ok = True
            for y in und:
                for z in nbrs:
                    if z != y and not adj[y, z]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = x
                break
        if found < 0:
            raise ExtensionError("no consistent extension exists")
        for y in np.flatnonzero(U[found] & active):
            out[y, found] = True
        active[found] = False
        D[found, :] = D[:, found] = False
        U[found, :] = U[:, found] = False
    return out



def v_structures(g: Dag) -> set[tuple[int, int, int]]:
    """All collider triples (i, k, j): i -> k <- j with i, j nonadjacent, i < j."""
    return _pdag_v_structures(g.adjacency, np.zeros_like(g.adjacency))


def cpdag_of(g: Dag) -> Cpdag:
    """The completed PDAG of g: v-structure edges kept directed, the rest
    oriented only where the Meek rules compel them."""
    d = g.num_nodes
    directed = np.zeros((d, d), dtype=bool)
    for i, k, j in v_structures(g):
        directed[i, k] = True
        directed[j, k] = True
    undirected = skeleton(g) & ~(directed | directed.T)
    D, U, _ = _meek_close(directed, undirected, on_conflict="raise")
    return Cpdag(g.labels, D, U)


def _first_undirected(U: np.ndarray) -> tuple[int, int] | None:
    rows, cols = np.nonzero(np.triu(U))
    if rows.size == 0:
        return None
    return int(rows[0]), int(cols[0])


def enumerate_mec(g: Dag, cap: int = DEFAULT_MEC_CAP) -> MecEnumeration:
    """All DAGs in g's Markov equivalence class, in a canonical order.

    Branches on the first undirected CPDAG edge, re-closes with the Meek
    rules, prunes inconsistent branches, and validates each leaf against the
    class skeleton and v-structure set.  Raises MecCapacityError once more
    than ``cap`` members have been found.
    """
    if cap < 1:
        raise ParameterError("cap must be >= 1")
    base = cpdag_of(g)
    target_vs = v_structures(g)
    found: list[Dag] = []
    stack: list[tuple[np.ndarray, np.ndarray]] = [(base.directed, base.undirected)]
    while stack:
        D, U = stack.pop()
        edge = _first_undirected(U)
        if edge is None:
            try:
                member = Dag(g.labels, D)
            except CyclicGraphError:
                continue
            if v_structures(member) == target_vs:
                found.append(member)
                if len(found) > cap:
                    raise MecCapacityError(f"equivalence class exceeds cap={cap} "
                                           f"(found {len(found)} members before stopping)")
            continue
        i, j = edge
        for a, b in ((i, j), (j, i)):
            D2 = D.copy()
            U2 = U.copy()
            D2[a, b] = True
            U2[a, b] = U2[b, a] = False
            D3, U3, conflicts = _meek_close(D2, U2, on_conflict="skip")
            if conflicts:
                continue
            if _pdag_v_structures(D3, U3) != target_vs:
                continue
            stack.append((D3, U3))
    found.sort(key=lambda dag: dag.adjacency.tobytes())
    members = found
    if not any(m == g for m in members):
        raise AssertionError("source DAG missing from its own equivalence class")
    return MecEnumeration(source=g, cpdag=base, members=members, cap=cap)


