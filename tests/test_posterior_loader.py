"""The batched posterior loader against the per-graph loader it replaced,
and the graph-file reader against the edge-list parser it replaced.

Valid files must give the same stack, labels, weights, tag and seed;
malformed ones the same error type and message, the first bad graph in file
order winning as before.
"""

import numpy as np
import pytest

from atebench.discovery import load_external_posterior, posterior, save_posterior, uniform_posterior
from atebench.errors import AteBenchError, SchemaError
from atebench.graphs import Dag, load_dag

import edgelist_reference
from posterior_reference import load_posterior_file

PREFIXES = ["x", "node ", "v.", "é", "g#", "n_"]


def _random_bag(rng):
    """(labels, stack, weights, header) of a random bag with d in 1..50."""
    d = int(rng.choice([1, 2, 3, 5, 8, 13, 21, 50]))
    m = int(rng.integers(1, 7))
    prefix = PREFIXES[int(rng.integers(len(PREFIXES)))]
    labels = [f"{prefix}{k}" for k in range(d)]
    stack = np.zeros((m, d, d), dtype=bool)
    for k in range(m):
        density = rng.choice([0.0, 0.1, 0.4])
        order = rng.permutation(d)
        upper = np.triu(rng.random((d, d)) < density, 1)
        stack[k][np.ix_(order, order)] = upper
    weights = rng.random(m) + 0.01
    if rng.random() < 0.5:
        weights = np.full(m, 1.0 / m)
    header = rng.choice(["posterior method=ext seed=4", "posterior seed=-2", "posterior method=a.b", ""])
    return labels, stack, weights, str(header)


def _spaces(rng):
    return " " * int(rng.integers(0, 3))


def _render(rng, labels, stack, weights, header):
    """Posterior file lines with random spacing, comments, blank lines and
    repeated edges; each graph is [graph line, nodes line, edge lines...]."""
    lines = [header] if header else []
    for k, w in enumerate(weights):
        lines.append(f"{_spaces(rng)}graph {k}{_spaces(rng)} weight {float(w)!r}")
        sep = "," + _spaces(rng) if rng.random() < 0.3 else ","
        lines.append(f"nodes:{_spaces(rng)}{sep.join(labels)}{',' if rng.random() < 0.2 else ''}")
        edges = [f"{_spaces(rng)}{labels[i]}{_spaces(rng)}->{_spaces(rng)}{labels[j]}{_spaces(rng)}"
                 for i, j in zip(*np.nonzero(stack[k]))]
        if edges and rng.random() < 0.2:
            edges.append(edges[0])
        for e in rng.permutation(len(edges)):
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "   ", "# a comment", "  # x -> y"]))
            lines.append(edges[e])
        if rng.random() < 0.7:
            lines.append("")
    return lines


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _outcome(load, path):
    try:
        ps = load(path)
    except AteBenchError as exc:
        return type(exc).__name__, str(exc)
    return ps.stack.shape, ps.stack.tobytes(), ps.labels, ps.weights.tobytes(), ps.method_tag, ps.seed


def _graph_lines(lines):
    return [i for i, ln in enumerate(lines) if ln.strip().startswith("graph ")]


def _edge_line(labels, rng, arrow="->"):
    i, j = rng.choice(len(labels), size=2, replace=len(labels) < 2)
    return f"{labels[i]} {arrow} {labels[j]}"


# the corruptions inside one graph's edge list, then those of the framing
BLOCK_KINDS = [
    "cycle", "reverse", "self-loop", "unknown", "undirected", "garbage", "no-nodes",
    "nodes-mismatch", "dup-labels", "hash-label",
]
KINDS = BLOCK_KINDS + [
    "graph-line", "index", "weight", "stray-header", "header-field", "tag", "before-graph",
    "empty-graph", "no-graphs",
]


def _mutate(rng, lines, labels, kinds=KINDS):
    """One random corruption of a rendered posterior file, in place; its kind."""
    starts = _graph_lines(lines)
    g = int(rng.integers(len(starts)))
    at = min(starts[g] + 2, len(lines))  # after graph g's nodes line, if it has one
    kind = rng.choice(kinds)
    if kind == "cycle" and len(labels) >= 3:
        a, b, c = (labels[int(k)] for k in rng.choice(len(labels), 3, replace=False))
        lines[at:at] = [f"{a} -> {b}", f"{b} -> {c}", f"{c} -> {a}"]
    elif kind == "reverse" and len(labels) >= 2:
        lines[at:at] = [f"{labels[0]} -> {labels[1]}", f"{labels[1]} -> {labels[0]}"]
    elif kind == "self-loop":
        lines.insert(at, f"{labels[0]} -> {labels[0]}")
    elif kind == "unknown":
        lines.insert(at, f"{labels[0]} -> zz")
    elif kind == "undirected":
        lines.insert(at, _edge_line(labels, rng, "--"))
    elif kind == "garbage":
        lines.insert(at, f"{labels[0]} = {labels[-1]}")
    elif kind == "no-nodes":
        del lines[at - 1]
    elif kind == "nodes-mismatch":
        lines[at - 1] = "nodes: " + ",".join(labels[::-1] if len(labels) > 1 else labels + ["w"])
    elif kind == "dup-labels":
        lines[at - 1] = "nodes: " + ",".join(labels + labels[:1])
    elif kind == "hash-label":
        lines[at - 1] = "nodes: " + ",".join(["#" + labels[0]] + labels[1:])
    elif kind == "graph-line":
        lines[starts[g]] = rng.choice([f"graph {g} weight", "graph x weight 1", f"graph {g} mass 1"])
    elif kind == "index":
        lines[starts[g]] = f"graph {g + 1} weight 0.5"
    elif kind == "weight":
        lines[starts[g]] = f"graph {g} weight {rng.choice(['0', '-1', 'nan', 'inf', 'banana'])}"
    elif kind == "stray-header":
        lines.insert(at, "posterior method=late seed=0")
    elif kind == "header-field":
        lines.insert(0, str(rng.choice(["posterior foo=1", "posterior seed=x", "posterior method"])))
    elif kind == "tag":
        lines.insert(0, "posterior method=a/b seed=0")
    elif kind == "before-graph":
        lines.insert(starts[0], _edge_line(labels, rng))
    elif kind == "empty-graph":
        end = starts[g + 1] if g + 1 < len(starts) else len(lines)
        del lines[starts[g] + 1:end]
    elif kind == "no-graphs":
        del lines[starts[0]:]
    return str(kind)


def test_valid_files_load_as_the_reference_without_a_per_graph_parse(tmp_path):
    rng = np.random.default_rng(20)
    edges = sizes = 0
    for case in range(200):
        labels, stack, weights, header = _random_bag(rng)
        path = _write(tmp_path, f"ok{case}.txt", _render(rng, labels, stack, weights, header))
        want = _outcome(load_posterior_file, path)
        got = _outcome(load_external_posterior, path)
        assert got == want, case
        assert np.array_equal(np.frombuffer(got[1], dtype=bool).reshape(got[0]), stack), case
        edges += int(stack.sum())
        sizes = max(sizes, len(labels))
    assert edges > 1000 and sizes == 50


def test_malformed_files_raise_the_reference_error(tmp_path):
    rng = np.random.default_rng(21)
    kinds = set()
    for case in range(600):
        labels, stack, weights, header = _random_bag(rng)
        lines = _render(rng, labels, stack, weights, header)
        for _ in range(int(rng.integers(1, 4))):
            if _graph_lines(lines):
                _mutate(rng, lines, labels)
        path = _write(tmp_path, f"bad{case}.txt", lines)
        want = _outcome(load_posterior_file, path)
        assert _outcome(load_external_posterior, path) == want, case
        if isinstance(want[0], str):
            kinds.add(want[1].split(": ", 1)[-1].split(" '")[0].split(" {")[0][:40])
    # the corpus reaches many distinct errors, not one
    assert len(kinds) >= 15, kinds


_CHAIN = ["nodes: a,b,c,d", "a -> b"]
_CYCLE = ["nodes: a,b,c,d", "a -> b", "b -> c", "c -> a"]
_OTHER_LABELS = ["nodes: d,c,b,a", "a -> b"]

# graphs (a string is a raw line) and the end of the error they must raise
MIXED_ERRORS = {
    "a cycle in graph 1 and a bad edge line in graph 3": (
        [_CHAIN, _CYCLE, _CHAIN, [*_CHAIN, "a = b"]],
        "#graph1: adjacency matrix contains a directed cycle",
    ),
    "mismatched nodes lines and a cycle": (
        [_CHAIN, _OTHER_LABELS, _CYCLE], "#graph2: adjacency matrix contains a directed cycle",
    ),
    "mismatched nodes lines alone": (
        [_CHAIN, _CHAIN, _OTHER_LABELS, _OTHER_LABELS],
        "#graph2: node labels differ from graph 0's",
    ),
    "a cycle before a malformed graph line": (
        [_CYCLE, _CHAIN, "graph 9 mass 1"], "#graph0: adjacency matrix contains a directed cycle",
    ),
    "a malformed graph line before a cycle": (
        [_CHAIN, "graph 9 mass 1", _CYCLE], "malformed graph line 'graph 9 mass 1'",
    ),
    "a stray header inside a cyclic graph": (
        [_CHAIN, [*_CYCLE, "posterior seed=1"]], "stray posterior header line",
    ),
}


@pytest.mark.parametrize("name", list(MIXED_ERRORS))
def test_errors_across_graphs_come_in_file_order(tmp_path, name):
    graphs, message = MIXED_ERRORS[name]
    lines = ["posterior method=m seed=0"]
    for k, g in enumerate(graphs):
        lines += [g] if isinstance(g, str) else [f"graph {k} weight 0.25", *g, ""]
    path = _write(tmp_path, "p.txt", lines)
    want = _outcome(load_posterior_file, path)
    assert _outcome(load_external_posterior, path) == want
    assert want[1].endswith(message), want


def test_a_label_with_a_leading_hash_no_longer_loses_its_edges(tmp_path):
    path = _write(tmp_path, "p.txt", ["graph 0 weight 1.0", "nodes: #x,y", "#x -> y"])
    with pytest.raises(SchemaError, match="cannot be written in the edge-list format"):
        load_external_posterior(path)
    with pytest.raises(SchemaError, match="cannot be written in the edge-list format"):
        load_posterior_file(path)


@pytest.mark.parametrize("label", ["graph", "posterior", "graph x", "posterior y"])
def test_a_label_that_starts_like_a_header_round_trips(tmp_path, label):
    # edge lines such as "graph -> y" and "posterior y -> y" start with a
    # header word; they must still read as edges
    labels = (label, "y", "z")
    stack = np.zeros((3, 3, 3), dtype=bool)
    stack[0, 0, 1] = stack[1, 1, 0] = stack[2, 0, 2] = stack[2, 1, 2] = True
    ps = posterior.PosteriorSample([Dag(labels, a) for a in stack], [0.25, 0.25, 0.5], "ext", 5)
    path = tmp_path / "p.txt"
    save_posterior(ps, path)
    got = _outcome(load_external_posterior, path)
    assert got == (stack.shape, stack.tobytes(), labels, ps.weights.tobytes(), "ext", 5)
    assert _outcome(load_posterior_file, path) == got


def _graph_outcome(load, path):
    try:
        g = load(path)
    except AteBenchError as exc:
        return type(exc).__name__, str(exc)
    return g.labels, g.adjacency.tobytes()


def _load_reference_dag(path):
    return edgelist_reference.parse_dag_edgelist(path.read_text(encoding="utf-8"), str(path))


def test_graph_files_read_as_the_reference_parser_reads_them(tmp_path):
    rng = np.random.default_rng(23)
    kinds, errors, valid = set(), set(), 0
    for case in range(400):
        labels, stack, _, _ = _random_bag(rng)
        lines = _render(rng, labels, stack[:1], [1.0], "")
        if case % 4:
            for _ in range(int(rng.integers(1, 3))):
                kinds.add(_mutate(rng, lines, labels, BLOCK_KINDS))
        del lines[_graph_lines(lines)[0]]
        path = _write(tmp_path, f"g{case}.txt", lines)
        want = _graph_outcome(_load_reference_dag, path)
        assert _graph_outcome(load_dag, path) == want, case
        if isinstance(want[0], str):
            errors.add(want[1].split(": ", 1)[-1].split(" '")[0][:40])
        else:
            valid += 1
    assert kinds == set(BLOCK_KINDS) and valid >= 100
    assert len(errors) >= 9, errors


def test_a_repeated_header_field_is_refused(tmp_path):
    path = _write(tmp_path, "p.txt", [
        "posterior method=a seed=1 method=b seed=7", "graph 0 weight 1.0", "nodes: x,y", "x -> y",
    ])
    with pytest.raises(SchemaError, match="duplicate posterior header field 'method'"):
        load_external_posterior(path)


def test_the_writer_formats_each_graph_as_the_edge_list_writer_does(tmp_path):
    format_edgelist = edgelist_reference.format_edgelist
    rng = np.random.default_rng(22)
    for case in range(30):
        labels, stack, weights, _ = _random_bag(rng)
        dags = [Dag(labels, a) for a in stack]
        ps = uniform_posterior(dags, "w", seed=case)
        path = tmp_path / f"w{case}.txt"
        save_posterior(ps, path)
        want = f"posterior method=w seed={case}\n" + "".join(
            f"graph {k} weight {float(w)!r}\n{format_edgelist(g)}\n"
            for k, (g, w) in enumerate(zip(dags, ps.weights))
        )
        assert path.read_text(encoding="utf-8") == want, case
