"""Directed-graph substrate: DAGs, CPDAGs, Meek orientation, consistent extension.

Graphs are dense boolean matrices over an ordered list of node labels;
entry (i, j) of an adjacency matrix means an edge i -> j.  All graph values
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .errors import (
    CyclicGraphError,
    ExtensionError,
    OrientationConflictError,
    ParameterError,
    SchemaError,
    StructuralError,
    ValidationError,
)
from .kernels import closure_one

logger = logging.getLogger(__name__)


def _check_square(adjacency: np.ndarray) -> np.ndarray:
    a = np.asarray(adjacency, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"adjacency must be a square matrix, got shape {a.shape}")
    return a


def is_acyclic(adjacency: np.ndarray) -> bool:
    """True iff the directed graph admits a topological order (Kahn's algorithm)."""
    a = _check_square(adjacency)
    if np.any(np.diag(a)):
        raise StructuralError("self-loops are not allowed")
    indeg = a.sum(axis=0)
    active = np.ones(a.shape[0], dtype=bool)
    while active.any():
        ready = np.flatnonzero(active & (indeg == 0))
        if ready.size == 0:
            return False
        active[ready] = False
        indeg = indeg - a[ready].sum(axis=0)
    return True


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


def _check_labels(labels) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) < 1:
        raise StructuralError("at least one node required")
    if len(set(labels)) != len(labels):
        raise StructuralError("node labels must be unique")
    return labels


class Dag:
    """A directed acyclic graph over labelled nodes.

    The adjacency matrix is validated (square, no self-loops, acyclic) and
    frozen at construction.
    """

    __slots__ = ("labels", "adjacency")

    def __init__(self, labels, adjacency: np.ndarray):
        self.labels = _check_labels(labels)
        a = _check_square(adjacency).copy()
        if a.shape[0] != len(self.labels):
            raise StructuralError("adjacency size does not match label count")
        if np.any(np.diag(a)):
            raise StructuralError("self-loops are not allowed")
        if not is_acyclic(a):
            raise CyclicGraphError("adjacency matrix contains a directed cycle")
        a.setflags(write=False)
        self.adjacency = a

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum())

    def parents(self, node: int) -> set[int]:
        """Indices i with an edge i -> node."""
        if not 0 <= node < self.num_nodes:
            raise ParameterError(f"node index {node} out of range for d={self.num_nodes}")
        return set(np.flatnonzero(self.adjacency[:, node]).tolist())

    def edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.adjacency)
        return list(zip(rows.tolist(), cols.tolist()))

    def skeleton(self) -> np.ndarray:
        """Symmetric boolean adjacency with orientation dropped."""
        return self.adjacency | self.adjacency.T

    def descendants_matrix(self) -> np.ndarray:
        """Boolean matrix with entry (i, j) true iff a directed path i ~> j exists."""
        return transitive_closure(self.adjacency)

    def topological_order(self) -> list[int]:
        return topological_order(self.adjacency)

    def relabel(self, labels) -> "Dag":
        return Dag(labels, self.adjacency)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.labels, self.adjacency.tobytes()))

    def __repr__(self) -> str:
        return f"Dag(d={self.num_nodes}, edges={self.num_edges})"


class Cpdag:
    """A partially directed graph: directed plus undirected (symmetric) edges.

    Used both for completed PDAGs (CPDAGs proper) and for the intermediate
    partially oriented graphs that arise during orientation propagation.
    """

    __slots__ = ("labels", "directed", "undirected")

    def __init__(self, labels, directed: np.ndarray, undirected: np.ndarray):
        self.labels = _check_labels(labels)
        d = _check_square(directed).copy()
        u = _check_square(undirected).copy()
        if d.shape != u.shape or d.shape[0] != len(self.labels):
            raise StructuralError("directed/undirected size mismatch")
        if np.any(np.diag(d)) or np.any(np.diag(u)):
            raise StructuralError("self-loops are not allowed")
        if not np.array_equal(u, u.T):
            raise StructuralError("undirected matrix must be symmetric")
        if np.any(d & d.T):
            raise OrientationConflictError("edge directed both ways")
        if np.any((d | d.T) & u):
            raise StructuralError("an edge cannot be both directed and undirected")
        d.setflags(write=False)
        u.setflags(write=False)
        self.directed = d
        self.undirected = u

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def adjacent(self) -> np.ndarray:
        """Symmetric boolean matrix: true iff any edge joins the pair."""
        return self.directed | self.directed.T | self.undirected

    def undirected_edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(np.triu(self.undirected))
        return list(zip(rows.tolist(), cols.tolist()))

    def directed_edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.directed)
        return list(zip(rows.tolist(), cols.tolist()))

    def to_dag(self) -> Dag:
        """Interpret a fully directed CPDAG as a Dag."""
        if np.any(self.undirected):
            raise ExtensionError("graph still has undirected edges")
        return Dag(self.labels, self.directed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cpdag):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.directed, other.directed)
            and np.array_equal(self.undirected, other.undirected)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.directed.tobytes(), self.undirected.tobytes()))

    def __repr__(self) -> str:
        nd = int(self.directed.sum())
        nu = len(self.undirected_edges())
        return f"Cpdag(d={self.num_nodes}, directed={nd}, undirected={nu})"


def transitive_closure(adjacency: np.ndarray) -> np.ndarray:
    """Reachability by paths of length >= 1, via boolean-matrix squaring."""
    return closure_one(_check_square(adjacency))


def parents(g: Dag, node: int) -> set[int]:
    """Parent set of ``node`` in ``g``."""
    return g.parents(node)


def v_structures(g: Dag) -> set[tuple[int, int, int]]:
    """All collider triples (i, k, j): i -> k <- j with i, j nonadjacent, i < j."""
    return _pdag_v_structures(g.adjacency, np.zeros_like(g.adjacency))


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


def apply_meek_rules(p: Cpdag) -> Cpdag:
    """Fixed point of Meek rules R1-R4; raises on an orientation conflict."""
    D, U, _ = _meek_close(p.directed, p.undirected, on_conflict="raise")
    return Cpdag(p.labels, D, U)


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


def consistent_extension(p: Cpdag, seed: int = 0) -> Dag:
    """One DAG with p's skeleton, directed edges, and exactly p's v-structures.

    Deterministic per seed: eligible sinks are scanned in a seeded shuffle of
    the node indices, so one CPDAG maps to one DAG for a given seed.
    """
    order = np.random.default_rng(seed).permutation(p.num_nodes).tolist()
    adjacency = _extend_pdag(p.directed, p.undirected, order)
    dag = Dag(p.labels, adjacency)
    if v_structures(dag) != _pdag_v_structures(p.directed, p.undirected):
        raise ExtensionError("extension changed the v-structure set of the input")
    return dag


# ---------------------------------------------------------------------------
# plain-text edge-list format
#
#   nodes: a,b,c
#   a -> b
#   b -- c        (undirected; CPDAG only)
# ---------------------------------------------------------------------------


def format_edgelist(g: Dag | Cpdag) -> str:
    lines = ["nodes: " + ",".join(g.labels)]
    if isinstance(g, Dag):
        directed = g.adjacency
        undirected = None
    else:
        directed = g.directed
        undirected = g.undirected
    for i, j in zip(*np.nonzero(directed)):
        lines.append(f"{g.labels[i]} -> {g.labels[j]}")
    if undirected is not None:
        for i, j in zip(*np.nonzero(np.triu(undirected))):
            lines.append(f"{g.labels[i]} -- {g.labels[j]}")
    return "\n".join(lines) + "\n"


def _parse_edgelist_text(text: str, source: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("nodes:"):
        raise SchemaError(f"{source}: first line must be 'nodes: <labels>'")
    labels = [x.strip() for x in lines[0][len("nodes:"):].split(",") if x.strip()]
    try:
        labels = _check_labels(labels)
    except StructuralError as exc:
        raise SchemaError(f"{source}: {exc}") from exc
    index = {lab: k for k, lab in enumerate(labels)}
    d = len(labels)
    directed = np.zeros((d, d), dtype=bool)
    undirected = np.zeros((d, d), dtype=bool)
    for ln in lines[1:]:
        if "->" in ln:
            a, b = (x.strip() for x in ln.split("->", 1))
            mat = directed
        elif "--" in ln:
            a, b = (x.strip() for x in ln.split("--", 1))
            mat = undirected
        else:
            raise SchemaError(f"{source}: unparseable edge line {ln!r}")
        if a not in index or b not in index:
            raise SchemaError(f"{source}: unknown node in edge line {ln!r}")
        if a == b:
            raise SchemaError(f"{source}: self-loop in edge line {ln!r}")
        i, j = index[a], index[b]
        mat[i, j] = True
        if mat is undirected:
            mat[j, i] = True
    return labels, directed, undirected


def parse_dag_edgelist(text: str, source: str = "<string>") -> Dag:
    labels, directed, undirected = _parse_edgelist_text(text, source)
    if np.any(undirected):
        raise SchemaError(f"{source}: undirected edges not allowed in a DAG file")
    if np.any(directed & directed.T):
        raise SchemaError(f"{source}: edge listed in both directions")
    try:
        return Dag(labels, directed)
    except CyclicGraphError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def parse_cpdag_edgelist(text: str, source: str = "<string>") -> Cpdag:
    labels, directed, undirected = _parse_edgelist_text(text, source)
    if np.any(directed & directed.T):
        raise SchemaError(f"{source}: edge listed in both directions")
    if np.any((directed | directed.T) & undirected):
        raise SchemaError(f"{source}: edge both directed and undirected")
    return Cpdag(labels, directed, undirected)


def load_dag(path) -> Dag:
    if not os.path.isfile(path):
        raise ValidationError(f"{path}: no such graph file")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dag_edgelist(fh.read(), source=str(path))


def save_graph(g: Dag | Cpdag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edgelist(g))
