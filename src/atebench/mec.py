"""Full enumeration of a DAG's Markov equivalence class, branching on its CPDAG.

The class is a uniform posterior bag tagged ``true-mec``: its members are the
rows of one bool ``stack``, and ``members`` builds a ``Dag`` per row when it
is read.  It is saved in the posterior multi-graph format (see
``atebench.discovery.posterior``).
"""

from __future__ import annotations

import numpy as np

from .discovery.posterior import PosteriorSample, save_posterior
from .errors import MecCapacityError, ParameterError
from .graphs import (
    Dag,
    _adjacency,
    _complete,
    _direct,
    _kahn,
    _meek,
    _packed,
    _rows,
    _unshielded,
    v_structures,
)

DEFAULT_MEC_CAP = 100_000

TRUE_MEC_TAG = "true-mec"

# each byte with its bit order reversed
_BIT_REVERSED = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little"
).ravel()


class MecEnumeration(PosteriorSample):
    """A DAG and every DAG Markov equivalent to it: a uniform posterior
    sample tagged ``true-mec`` with seed 0, its members the rows of
    ``stack``."""

    __slots__ = ("source",)

    def __init__(self, source: Dag, stack: np.ndarray):
        m = stack.shape[0]
        self._fill(stack, source.labels, np.full(m, 1.0 / m), TRUE_MEC_TAG, 0)
        self.source = source

    @property
    def members(self) -> list[Dag]:
        """One ``Dag`` per member, built on each access."""
        return self.dags

    def __iter__(self):
        return iter(self.dags)

    def __repr__(self) -> str:
        return f"MecEnumeration(d={self.source.num_nodes}, members={len(self)})"


def enumerate_mec(g: Dag, cap: int = DEFAULT_MEC_CAP) -> MecEnumeration:
    """All DAGs in g's Markov equivalence class, in a canonical order: their
    adjacency bytes ascending.

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
    d = g.num_nodes
    leaves: list[bytes] = []  # each member's row masks, packed
    stack = [(ch, pa, un)]
    while stack:
        ch, pa, un = stack.pop()
        # un is symmetric, so the first undirected edge (i, j), i < j, in
        # row-major order sits in the first nonzero row at its lowest bit
        i = next((i for i, row in enumerate(un) if row), None)
        if i is None:
            if _kahn(ch) is not None and _unshielded(pa, adj) == target_vs:
                leaves.append(_packed(ch, d))
                if len(leaves) > cap:
                    raise MecCapacityError(f"equivalence class exceeds cap={cap} "
                                           f"(found {len(leaves)} members before stopping)")
            continue
        j = (un[i] & -un[i]).bit_length() - 1
        for a, b in ((i, j), (j, i)):
            branch = ch[:], pa[:], un[:]
            _direct(*branch, a, b)
            # prune a branch whose closure conflicts or adds a v-structure
            if not _meek(*branch, "skip") and _unshielded(branch[1], adj) == target_vs:
                stack.append(branch)
    if _packed(_rows(g.adjacency), d) not in leaves:
        raise AssertionError("source DAG missing from its own equivalence class")
    m = len(leaves)
    packed = np.frombuffer(b"".join(leaves), dtype=np.uint8).reshape(m, d, -1)
    # a byte's lowest bit is its lowest column; with the bits reversed, the
    # members' packed bytes sort like their adjacency bytes
    keys = _BIT_REVERSED[packed].reshape(m, -1)
    order = np.argsort(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(), kind="stable")
    members = np.unpackbits(packed[order], axis=2, count=d, bitorder="little").view(bool)
    return MecEnumeration(source=g, stack=members)


def save_mec(enumeration: MecEnumeration, path) -> None:
    """Write the class as a uniform posterior file tagged ``true-mec``."""
    save_posterior(enumeration, path)
