"""Directed-graph substrate: DAGs, CPDAGs, Meek orientation, consistent extension.

The public API takes dense boolean matrices over an ordered list of node
labels; entry (i, j) means an edge i -> j.  Graph values are immutable and
safe to share across workers.  The core works on per-node int row masks: bit
j of ``ch[i]`` (and bit i of ``pa[j]``) is i -> j, of ``un[i]`` is i - j and
of ``adj[i]`` any edge; Python ints are unbounded, so masks fit any d.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import os

import numpy as np

from .errors import (
    CyclicGraphError,
    ExtensionError,
    OrientationConflictError,
    SchemaError,
    StructuralError,
    ValidationError,
)
from .kernels import transitive_closure_batch

logger = logging.getLogger(__name__)


def _check_square(adjacency: np.ndarray) -> np.ndarray:
    a = np.asarray(adjacency, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"adjacency must be a square matrix, got shape {a.shape}")
    return a


def _rows(a: np.ndarray) -> list[int]:
    """Row masks of a boolean matrix: bit j of entry i is a[i, j]."""
    packed = np.packbits(a, axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[k * width:(k + 1) * width], "little") for k in range(len(packed))]


def _packed(rows: list[int], d: int) -> bytes:
    """Row masks of d bits as bytes, ceil(d / 8) little-endian bytes a row."""
    width = (d + 7) // 8
    return b"".join(r.to_bytes(width, "little") for r in rows)


def _dense(rows: list[int]) -> np.ndarray:
    """The boolean matrix whose row masks are ``rows``."""
    d = len(rows)
    packed = np.frombuffer(_packed(rows, d), dtype=np.uint8).reshape(d, -1)
    return np.unpackbits(packed, axis=1, count=d, bitorder="little").view(bool)


def _bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transpose(rows: list[int]) -> list[int]:
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return out


def _adjacency(ch: list[int], pa: list[int], un: list[int]) -> list[int]:
    return [c | p | u for c, p, u in zip(ch, pa, un)]


def _kahn(ch: list[int]) -> list[int] | None:
    """Topological order taking the lowest-index ready node first, or None
    when the graph has a directed cycle (a self-loop included)."""
    indeg = [0] * len(ch)
    for row in ch:
        for j in _bits(row):
            indeg[j] += 1
    ready = [k for k, n in enumerate(indeg) if n == 0]
    order = []
    while ready:
        k = heapq.heappop(ready)
        order.append(k)
        for j in _bits(ch[k]):
            indeg[j] -= 1
            if not indeg[j]:
                heapq.heappush(ready, j)
    return order if len(order) == len(ch) else None


def _unshielded(rows: list[int], adj: list[int]) -> set[tuple[int, int, int]]:
    """Triples (i, k, j), i < j, with i and j both in ``rows[k]`` and nonadjacent.

    With parent masks these are the v-structures i -> k <- j; with the
    adjacency itself, every unshielded triple i - k - j.
    """
    out = set()
    for k, row in enumerate(rows):
        for i in _bits(row):
            for j in _bits(row & ~adj[i] & -(2 << i)):  # -(2 << i): the bits above i
                out.add((i, k, j))
    return out


def _direct(ch: list[int], pa: list[int], un: list[int], i: int, j: int) -> None:
    """Make i -> j directed, dropping any undirected i - j."""
    ch[i] |= 1 << j
    pa[j] |= 1 << i
    un[i] &= ~(1 << j)
    un[j] &= ~(1 << i)


def _meek(ch: list[int], pa: list[int], un: list[int], on_conflict: str) -> int:
    """Meek rules R1-R4 to a fixed point, in place; returns the conflict count.

    A rule runs only in a sweep where no earlier rule changed anything.  R1
    and R2 fire in row-major order on the pairs that qualified at the sweep's
    start; R3 and R4 read live orientations (the adjacency never changes),
    and R4 moves to the next ``a`` after a firing.  The order fixes the
    conflicts, which ``on_conflict="skip"`` counts and ignores.  Reading the
    sweep-start ``un[a]`` in R3, or ``pa[b]`` in R4, gives the same result
    and conflict count on every PDAG of at most 5 nodes (all 4**10 on 5
    nodes were checked, under both policies).
    """
    adj = _adjacency(ch, pa, un)
    conflicts = 0

    def orient(i: int, j: int) -> bool:
        nonlocal conflicts
        if ch[i] >> j & 1:
            return False
        if ch[j] >> i & 1:
            if on_conflict == "raise":
                raise OrientationConflictError(f"rule wants {i}->{j} but {j}->{i} is set")
            conflicts += 1
            return False
        _direct(ch, pa, un, i, j)
        return True

    nodes = range(len(adj))
    changed = True
    while changed:
        changed = False
        ch0, pa0, un0 = ch[:], pa[:], un[:]
        # R1: a -> b - c, a and c nonadjacent  =>  b -> c
        for b in nodes:
            shared = -1  # the nodes adjacent to every parent of b
            for a in _bits(pa0[b]):
                shared &= adj[a]
            for c in _bits(un0[b] & ~shared):
                changed |= orient(b, c)
        if changed:
            continue
        # R2: a -> b -> c with a - c  =>  a -> c
        for a in nodes:
            reach = 0
            for b in _bits(ch0[a]):
                reach |= ch0[b]
            for c in _bits(un0[a] & reach):
                changed |= orient(a, c)
        if changed:
            continue
        # R3: a - b with a - c, a - d, c -> b, d -> b, c and d nonadjacent  =>  a -> b
        for a in nodes:
            for b in _bits(un[a]):
                cands = un[a] & pa[b]
                if any(cands & ~adj[c] & ~(1 << c) for c in _bits(cands)):
                    changed |= orient(a, b)
        if changed:
            continue
        # R4: a - b with a - c, c -> e, e -> b, b and c nonadjacent  =>  a -> b
        for a in nodes:
            for b in _bits(un[a]):
                if any(ch[c] & pa[b] for c in _bits(un[a] & ~adj[b])):
                    changed |= orient(a, b)
                    break
    return conflicts


def _extend(ch: list[int], pa: list[int], un: list[int], scan_order) -> list[int]:
    """Dor-Tarsi sink elimination; returns the extension's child masks or raises.

    ``scan_order`` fixes which eligible sink is removed first, making the
    extension deterministic for a given order.
    """
    adj = _adjacency(ch, pa, un)
    out = ch[:]
    active = (1 << len(ch)) - 1
    for _ in range(len(ch)):
        for x in scan_order:
            # a sink with no outgoing directed edge whose undirected
            # neighbours are each adjacent to all its other neighbours
            if active >> x & 1 and not ch[x] & active and all(
                adj[x] & active & ~adj[y] == 1 << y for y in _bits(un[x] & active)
            ):
                break
        else:
            raise ExtensionError("no consistent extension exists")
        for y in _bits(un[x] & active):
            out[y] |= 1 << x
        active ^= 1 << x
    return out


def _complete(ch: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The CPDAG of the DAG with child masks ``ch``, as (ch, pa, un) masks:
    v-structure edges directed, the rest oriented only where the Meek rules
    compel them."""
    pa = _transpose(ch)
    adj = [c | p for c, p in zip(ch, pa)]
    out = [0] * len(ch), [0] * len(ch), adj[:]
    for i, k, j in _unshielded(pa, adj):
        _direct(*out, i, k)
        _direct(*out, j, k)
    _meek(*out, "raise")
    return out


def is_acyclic(adjacency: np.ndarray) -> bool:
    """True iff the directed graph admits a topological order (Kahn's algorithm)."""
    a = _check_square(adjacency)
    if np.any(np.diag(a)):
        raise StructuralError("self-loops are not allowed")
    return _kahn(_rows(a)) is not None


def topological_order(adjacency: np.ndarray) -> list[int]:
    """A topological order of the DAG, lowest index first among the ready nodes."""
    order = _kahn(_rows(_check_square(adjacency)))
    if order is None:
        raise CyclicGraphError("graph has a directed cycle")
    return order


def _check_labels(labels) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) < 1:
        raise StructuralError("at least one node required")
    if len(set(labels)) != len(labels):
        raise StructuralError("node labels must be unique")
    # the edge-list format strips every field, reads a line that starts with
    # "#" as a comment and splits on ",", "->" and "--"; identifiers have none
    for lab in itertools.filterfalse(str.isidentifier, labels):
        if (
            len(lab.splitlines()) != 1
            or lab != lab.strip()
            or lab.startswith("#")
            or any(sep in lab for sep in (",", "->", "--"))
        ):
            raise StructuralError(
                f"node label {lab!r} cannot be written in the edge-list format: a label "
                "is one line with no surrounding whitespace, no leading '#' and no "
                "',', '->' or '--'"
            )
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
        if not is_acyclic(a):
            raise CyclicGraphError("adjacency matrix contains a directed cycle")
        a.setflags(write=False)
        self.adjacency = a

    @classmethod
    def _of_checked(cls, labels: tuple[str, ...], adjacency: np.ndarray) -> "Dag":
        """A Dag over labels and a read-only adjacency that were already
        checked together, as the rows of a posterior's stack are."""
        g = object.__new__(cls)
        g.labels = labels
        g.adjacency = adjacency
        return g

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum())

    def edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.adjacency)
        return list(zip(rows.tolist(), cols.tolist()))

    def topological_order(self) -> list[int]:
        return topological_order(self.adjacency)

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

    def undirected_edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(np.triu(self.undirected))
        return list(zip(rows.tolist(), cols.tolist()))

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


def v_structures(g: Dag) -> set[tuple[int, int, int]]:
    """All collider triples (i, k, j): i -> k <- j with i, j nonadjacent, i < j."""
    ch = _rows(g.adjacency)
    pa = _transpose(ch)
    return _unshielded(pa, [c | p for c, p in zip(ch, pa)])


def consistent_extension(p: Cpdag, seed: int = 0) -> Dag:
    """One DAG with p's skeleton, directed edges, and exactly p's v-structures.

    Deterministic per seed: eligible sinks are scanned in a seeded shuffle of
    the node indices, so one CPDAG maps to one DAG for a given seed.
    """
    order = np.random.default_rng(seed).permutation(p.num_nodes).tolist()
    ch, un = _rows(p.directed), _rows(p.undirected)
    pa = _transpose(ch)
    out = _extend(ch, pa, un, order)
    dag = Dag(p.labels, _dense(out))
    adj = _adjacency(ch, pa, un)
    if _unshielded(_transpose(out), adj) != _unshielded(pa, adj):
        raise ExtensionError("extension changed the v-structure set of the input")
    return dag


# ---------------------------------------------------------------------------
# plain-text edge-list format: a graph file is one block, and a posterior
# file (``discovery.posterior``) frames many
#
#   nodes: a,b,c
#   a -> b
# ---------------------------------------------------------------------------


def _edge_blocks(labels: tuple[str, ...], stack: np.ndarray) -> list[str]:
    """One edge-list block per graph of an ``(m, d, d)`` bool stack over
    ``labels``: the nodes line, then an ``a -> b`` line per edge in row-major
    order."""
    nodes = "nodes: " + ",".join(labels) + "\n"
    k, i, j = np.nonzero(stack)
    edges = [f"{labels[a]} -> {labels[b]}\n" for a, b in zip(i.tolist(), j.tolist())]
    bounds = np.searchsorted(k, np.arange(len(stack) + 1)).tolist()
    return [nodes + "".join(edges[bounds[g]:bounds[g + 1]]) for g in range(len(stack))]


def format_edgelist(g: Dag) -> str:
    return _edge_blocks(g.labels, g.adjacency[None])[0]


_UNDIRECTED = "undirected edges not allowed in a DAG file"


def _nodes(line: str):
    """(labels, label -> index, edge line -> cell) of a nodes line, or its error."""
    if not line.startswith("nodes:"):
        return "first line must be 'nodes: <labels>'"
    try:
        labels = _check_labels(x.strip() for x in line[len("nodes:"):].split(",") if x.strip())
    except StructuralError as exc:
        return str(exc)
    return labels, {lab: k for k, lab in enumerate(labels)}, {}


def _cell(line: str, index: dict[str, int], width: int) -> int | str:
    """The cell i * width + j of an edge line i -> j, or why it is no DAG edge."""
    a, arrow, b = line.partition("->")
    if not arrow:
        a, arrow, b = line.partition("--")
        if not arrow:
            return f"unparseable edge line {line!r}"
    i, j = index.get(a.strip()), index.get(b.strip())
    if i is None or j is None:
        return f"unknown node in edge line {line!r}"
    if i == j:
        return f"self-loop in edge line {line!r}"
    return i * width + j if arrow == "->" else _UNDIRECTED


def _parse_blocks(blocks: list[list[str]], source) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """(labels of each block, one ``(m, w, w)`` bool stack) of edge-list
    blocks, each a list of stripped lines with no blank line or comment;
    ``w`` is the most labels of any block, and entry ``[k, i, j]`` is block
    k's edge i -> j.  Raises the error of the first bad block k, named by
    ``source(k)``; within a block the nodes line comes first, then each
    edge line in order, then an undirected edge, an edge listed both ways
    and a directed cycle."""
    known = {}  # each distinct nodes line: its _nodes
    heads = []  # the _nodes of each block before the first bad nodes line
    for block in blocks:
        line = block[0] if block else ""
        head = known.get(line)
        if head is None:
            head = known[line] = _nodes(line)
        if isinstance(head, str):
            break
        heads.append(head)
    width = max((len(head[0]) for head in heads), default=0)
    labels, flat = [], []
    bad = (len(heads), head) if len(heads) < len(blocks) else None
    for k, (block, (names, index, cells)) in enumerate(zip(blocks, heads)):
        base = k * width * width
        odd = []
        for line in block[1:]:
            c = cells.get(line)
            if c is None:
                c = cells[line] = _cell(line, index, width)
            try:
                flat.append(base + c)
            except TypeError:  # c is the reason the line is no DAG edge
                odd.append(c)
        if odd:
            bad = k, next((c for c in odd if c != _UNDIRECTED), _UNDIRECTED)
            break
        labels.append(names)
    stack = np.zeros((len(blocks), width, width), dtype=bool)
    stack.reshape(-1)[flat] = True
    # a cycle, an edge listed both ways included, reaches its own start; the
    # blocks before the first bad one are checked at once
    closure = transitive_closure_batch(stack[:len(labels)])
    cyclic = np.flatnonzero(closure.diagonal(axis1=1, axis2=2).any(axis=1))
    if cyclic.size:
        k = int(cyclic[0])
        if np.any(stack[k] & stack[k].T):
            raise SchemaError(f"{source(k)}: edge listed in both directions")
        raise ValidationError(f"{source(k)}: adjacency matrix contains a directed cycle")
    if bad is not None:
        raise SchemaError(f"{source(bad[0])}: {bad[1]}")
    return labels, stack


def parse_dag_edgelist(text: str, source: str = "<string>") -> Dag:
    block = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    (labels,), stack = _parse_blocks([block], lambda k: source)
    stack.setflags(write=False)
    return Dag._of_checked(labels, stack[0])


def load_dag(path) -> Dag:
    if not os.path.isfile(path):
        raise ValidationError(f"{path}: no such graph file")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dag_edgelist(fh.read(), source=str(path))


def save_graph(g: Dag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edgelist(g))
