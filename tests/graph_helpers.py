"""Dense-matrix views of the graph core in ``atebench.graphs`` that only tests use.

The package runs the Meek rules on int row masks (``graphs._meek``),
computes a CPDAG only inside MEC enumeration and GES, and reads and writes
only DAG edge lists, refusing an ``a -- b`` line; these helpers give tests
the matrix and ``Cpdag`` forms.  ``cpdag_of`` is the tests' CPDAG oracle,
``closure_one`` the bool-matrix closure the MCMC chain used before it
called ``kernels.transitive_closure_batch`` on its adjacency, and the CPDAG
edge-list reader and writer are the package's former ones, kept in
``edgelist_reference``.
"""

from __future__ import annotations

import numpy as np

from atebench.errors import ParameterError, SchemaError
from atebench.graphs import Cpdag, Dag, _complete, _dense, _meek, _rows, _transpose

from edgelist_reference import format_edgelist as format_cpdag_edgelist, parse_edgelist_text


def parents(g: Dag, node: int) -> set[int]:
    """Indices i with an edge i -> node."""
    if not 0 <= node < g.num_nodes:
        raise ParameterError(f"node index {node} out of range for d={g.num_nodes}")
    return set(np.flatnonzero(g.adjacency[:, node]).tolist())


def skeleton(g: Dag) -> np.ndarray:
    """Symmetric boolean adjacency of a DAG with orientation dropped."""
    return g.adjacency | g.adjacency.T


def adjacent(p: Cpdag) -> np.ndarray:
    """Symmetric boolean matrix of a CPDAG: true iff any edge joins the pair."""
    return p.directed | p.directed.T | p.undirected


def closure_one(adj):
    """Reachability by paths of length >= 1 of one (d, d) bool adjacency,
    via boolean-matrix squaring; always a new array."""
    out, edges = adj, np.count_nonzero(adj)
    while True:
        nxt = out | (out @ out)
        # nxt contains out, so an equal count means an equal matrix
        nxt_edges = np.count_nonzero(nxt)
        if nxt_edges == edges:
            return nxt
        out, edges = nxt, nxt_edges


def cpdag_of(g: Dag) -> Cpdag:
    """The completed PDAG of g: v-structure edges kept directed, the rest
    oriented only where the Meek rules compel them."""
    ch, _, un = _complete(_rows(g.adjacency))
    return Cpdag(g.labels, _dense(ch), _dense(un))


def meek_close(directed: np.ndarray, undirected: np.ndarray, on_conflict: str = "raise"):
    """Meek rules R1-R4 to a fixed point on copies; returns (directed,
    undirected, conflicts)."""
    ch, un = _rows(directed), _rows(undirected)
    conflicts = _meek(ch, _transpose(ch), un, on_conflict)
    return _dense(ch), _dense(un), conflicts


def apply_meek_rules(p: Cpdag) -> Cpdag:
    """Fixed point of Meek rules R1-R4; raises on an orientation conflict."""
    D, U, _ = meek_close(p.directed, p.undirected, on_conflict="raise")
    return Cpdag(p.labels, D, U)


def parse_cpdag_edgelist(text: str, source: str = "<string>") -> Cpdag:
    labels, directed, undirected = parse_edgelist_text(text, source)
    if np.any(directed & directed.T):
        raise SchemaError(f"{source}: edge listed in both directions")
    if np.any((directed | directed.T) & undirected):
        raise SchemaError(f"{source}: edge both directed and undirected")
    return Cpdag(labels, directed, undirected)
