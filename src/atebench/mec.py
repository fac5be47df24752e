"""CPDAG computation and full enumeration of a DAG's Markov equivalence class.

The class is saved in the posterior multi-graph format (see
``atebench.discovery.posterior``), as a uniform bag tagged ``true-mec``.
"""

from __future__ import annotations

import numpy as np

from .discovery.posterior import PosteriorSample, save_posterior
from .errors import CyclicGraphError, MecCapacityError, ParameterError
from .graphs import (
    Cpdag,
    Dag,
    _adjacency,
    _complete,
    _dense,
    _direct,
    _meek,
    _rows,
    _unshielded,
    v_structures,
)

DEFAULT_MEC_CAP = 100_000

TRUE_MEC_TAG = "true-mec"


class MecEnumeration(PosteriorSample):
    """A DAG and every DAG Markov equivalent to it: a uniform posterior
    sample tagged ``true-mec`` with seed 0."""

    __slots__ = ("source",)

    def __init__(self, source: Dag, members: list[Dag]):
        super().__init__(members, np.full(len(members), 1.0 / len(members)), TRUE_MEC_TAG, 0)
        self.source = source

    @property
    def members(self) -> list[Dag]:
        return self.dags

    def __iter__(self):
        return iter(self.dags)

    def __repr__(self) -> str:
        return f"MecEnumeration(d={self.source.num_nodes}, members={len(self)})"


def cpdag_of(g: Dag) -> Cpdag:
    """The completed PDAG of g: v-structure edges kept directed, the rest
    oriented only where the Meek rules compel them.

    Kept without a caller in the package: a documented MEC utility of the
    public API.
    """
    ch, _, un = _complete(_rows(g.adjacency))
    return Cpdag(g.labels, _dense(ch), _dense(un))


def enumerate_mec(g: Dag, cap: int = DEFAULT_MEC_CAP) -> MecEnumeration:
    """All DAGs in g's Markov equivalence class, in a canonical order.

    Branches on the first undirected CPDAG edge, re-closes with the Meek
    rules, prunes inconsistent branches, and validates each leaf against the
    class skeleton and v-structure set.  Raises MecCapacityError once more
    than ``cap`` members have been found.
    """
    if cap < 1:
        raise ParameterError("cap must be >= 1")
    ch, pa, un = _complete(_rows(g.adjacency))
    adj = _adjacency(ch, pa, un)
    target_vs = v_structures(g)
    found: list[Dag] = []
    stack = [(ch, pa, un)]
    while stack:
        ch, pa, un = stack.pop()
        # un is symmetric, so the first undirected edge (i, j), i < j, in
        # row-major order sits in the first nonzero row at its lowest bit
        i = next((i for i, row in enumerate(un) if row), None)
        if i is None:
            try:
                member = Dag(g.labels, _dense(ch))
            except CyclicGraphError:
                continue
            if _unshielded(pa, adj) == target_vs:
                found.append(member)
                if len(found) > cap:
                    raise MecCapacityError(cap, len(found))
            continue
        j = (un[i] & -un[i]).bit_length() - 1
        for a, b in ((i, j), (j, i)):
            branch = ch[:], pa[:], un[:]
            _direct(*branch, a, b)
            # prune a branch whose closure conflicts or adds a v-structure
            if not _meek(*branch, "skip") and _unshielded(branch[1], adj) == target_vs:
                stack.append(branch)
    found.sort(key=lambda dag: dag.adjacency.tobytes())
    if not any(m == g for m in found):
        raise AssertionError("source DAG missing from its own equivalence class")
    return MecEnumeration(source=g, members=found)


def save_mec(enumeration: MecEnumeration, path) -> None:
    """Write the class as a uniform posterior file tagged ``true-mec``."""
    save_posterior(enumeration, path)
