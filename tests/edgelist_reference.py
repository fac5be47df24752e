"""The edge-list reader and writer the package had before one block parser
served graph files and posterior files alike: the text is parsed into dense
directed and undirected matrices, a DAG is checked for an edge listed both
ways and then built through ``Dag(...)``, which checks it for cycles, and a
``Cpdag`` is written with ``a -- b`` lines for its undirected edges."""

import numpy as np

from atebench.errors import CyclicGraphError, SchemaError, StructuralError, ValidationError
from atebench.graphs import Dag, _check_labels


def format_edgelist(g) -> str:
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


def _node_labels(line: str) -> tuple[str, ...]:
    return _check_labels(x.strip() for x in line[len("nodes:"):].split(",") if x.strip())


def parse_edgelist_text(text: str, source: str):
    """(labels, directed, undirected) of an edge-list text."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("nodes:"):
        raise SchemaError(f"{source}: first line must be 'nodes: <labels>'")
    try:
        labels = _node_labels(lines[0])
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
    labels, directed, undirected = parse_edgelist_text(text, source)
    if np.any(undirected):
        raise SchemaError(f"{source}: undirected edges not allowed in a DAG file")
    if np.any(directed & directed.T):
        raise SchemaError(f"{source}: edge listed in both directions")
    try:
        return Dag(labels, directed)
    except CyclicGraphError as exc:
        raise ValidationError(f"{source}: {exc}") from exc
