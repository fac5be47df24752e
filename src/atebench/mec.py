"""CPDAG computation and full enumeration of a DAG's Markov equivalence class."""

from __future__ import annotations

import json
import os

from .errors import CyclicGraphError, MecCapacityError, ParameterError, SchemaError
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
    format_edgelist,
    load_dag,
    v_structures,
)

DEFAULT_MEC_CAP = 100_000


class MecEnumeration:
    """A DAG, its CPDAG, and every DAG Markov equivalent to it."""

    __slots__ = ("source", "cpdag", "members", "cap")

    def __init__(self, source: Dag, cpdag: Cpdag, members: list[Dag], cap: int):
        self.source = source
        self.cpdag = cpdag
        self.members = members
        self.cap = cap

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self) -> str:
        return f"MecEnumeration(d={self.source.num_nodes}, members={len(self.members)})"


def cpdag_of(g: Dag) -> Cpdag:
    """The completed PDAG of g: v-structure edges kept directed, the rest
    oriented only where the Meek rules compel them."""
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
    base = Cpdag(g.labels, _dense(ch), _dense(un))
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
    return MecEnumeration(source=g, cpdag=base, members=found, cap=cap)


# ---------------------------------------------------------------------------
# persistence: directory of edge-list files plus a manifest with counts
# ---------------------------------------------------------------------------


def save_mec(enumeration: MecEnumeration, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    width = max(4, len(str(len(enumeration.members))))
    names = []
    for idx, member in enumerate(enumeration.members):
        name = f"member_{idx:0{width}d}.txt"
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(format_edgelist(member))
        names.append(name)
    manifest = {
        "member_count": len(enumeration.members),
        "files": names,
        "cap": enumeration.cap,
        "node_labels": list(enumeration.source.labels),
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_mec_members(directory) -> list[Dag]:
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"{directory}: missing manifest.json") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{manifest_path}: invalid JSON: {exc}") from None
    members = [load_dag(os.path.join(directory, name)) for name in manifest["files"]]
    if len(members) != manifest.get("member_count"):
        raise SchemaError(f"{directory}: manifest count disagrees with file list")
    labels = tuple(manifest.get("node_labels", members[0].labels if members else ()))
    for m in members:
        if m.labels != labels:
            raise SchemaError(f"{directory}: inconsistent node labels across members")
    return members
