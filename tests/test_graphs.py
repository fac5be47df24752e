import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atebench.errors import (
    CyclicGraphError,
    ExtensionError,
    OrientationConflictError,
    SchemaError,
    StructuralError,
)
from atebench.graphs import (
    Cpdag,
    Dag,
    consistent_extension,
    format_edgelist,
    is_acyclic,
    parse_dag_edgelist,
    save_graph,
    load_dag,
    topological_order,
    v_structures,
)
from atebench.kernels import transitive_closure_batch
from atebench.scm import random_er_dag

from conftest import brute_force_dags, oracle_v_structures
from graph_helpers import (
    apply_meek_rules,
    cpdag_of,
    format_cpdag_edgelist,
    parents,
    parse_cpdag_edgelist,
    skeleton,
)


def labels(d):
    return [f"X{k}" for k in range(d)]


def dag(d, edges):
    adj = np.zeros((d, d), dtype=bool)
    for i, j in edges:
        adj[i, j] = True
    return Dag(labels(d), adj)


def pdag(d, directed, undirected):
    dm = np.zeros((d, d), dtype=bool)
    um = np.zeros((d, d), dtype=bool)
    for i, j in directed:
        dm[i, j] = True
    for i, j in undirected:
        um[i, j] = um[j, i] = True
    return Cpdag(labels(d), dm, um)


# --- construction and validation ------------------------------------------


def test_dag_rejects_cycle():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 2] = adj[2, 0] = True
    with pytest.raises(CyclicGraphError):
        Dag(labels(3), adj)


def test_dag_rejects_self_loop():
    adj = np.eye(2, dtype=bool)
    with pytest.raises(StructuralError):
        Dag(labels(2), adj)


def test_dag_rejects_label_mismatch():
    with pytest.raises(StructuralError):
        Dag(labels(3), np.zeros((2, 2), dtype=bool))


def test_dag_rejects_duplicate_labels():
    with pytest.raises(StructuralError):
        Dag(["a", "a"], np.zeros((2, 2), dtype=bool))


def test_dag_adjacency_is_frozen():
    g = dag(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = False


def test_cpdag_rejects_two_way_directed_edge():
    dm = np.zeros((2, 2), dtype=bool)
    dm[0, 1] = dm[1, 0] = True
    with pytest.raises(OrientationConflictError):
        Cpdag(labels(2), dm, np.zeros((2, 2), dtype=bool))


def test_cpdag_rejects_edge_both_directed_and_undirected():
    with pytest.raises(StructuralError):
        pdag(2, [(0, 1)], [(0, 1)])


def test_cpdag_rejects_asymmetric_undirected():
    um = np.zeros((2, 2), dtype=bool)
    um[0, 1] = True
    with pytest.raises(StructuralError):
        Cpdag(labels(2), np.zeros((2, 2), dtype=bool), um)


# --- basic graph queries ---------------------------------------------------


def test_acyclicity_against_matrix_power_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        adj = rng.random((d, d)) < 0.4
        np.fill_diagonal(adj, False)
        a = adj.astype(np.int64)
        p = a.copy()
        cyclic = False
        for _ in range(d):
            if np.trace(p):
                cyclic = True
                break
            p = p @ a
        assert is_acyclic(adj) == (not cyclic)


def test_topological_order_property():
    g = dag(4, [(2, 0), (0, 1), (2, 3), (3, 1)])
    order = topological_order(g.adjacency)
    pos = {v: k for k, v in enumerate(order)}
    assert sorted(order) == [0, 1, 2, 3]
    for i, j in g.edges():
        assert pos[i] < pos[j]


def test_transitive_closure_against_floyd_warshall():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(3, 8))
        g = random_er_dag(d, d, int(rng.integers(1 << 30)))
        reach = g.adjacency.copy()
        for k in range(d):
            reach |= np.outer(reach[:, k], reach[k, :])
        assert np.array_equal(transitive_closure_batch(g.adjacency), reach)


def test_v_structures_match_definition_oracle():
    for adj in brute_force_dags(3):
        g = Dag(labels(3), adj)
        assert v_structures(g) == set(oracle_v_structures(adj))


def test_parents_and_edges():
    g = dag(3, [(0, 2), (1, 2)])
    assert parents(g, 2) == {0, 1}
    assert parents(g, 0) == set()
    assert set(g.edges()) == {(0, 2), (1, 2)}
    assert np.array_equal(skeleton(g), skeleton(g).T)


# --- Meek rules ------------------------------------------------------------


def test_meek_r1_orients_away_from_arrowhead():
    # 0 -> 1 - 2 with 0, 2 nonadjacent forces 1 -> 2
    p = apply_meek_rules(pdag(3, [(0, 1)], [(1, 2)]))
    assert p.directed[1, 2]
    assert not p.undirected[1, 2]


def test_meek_r2_closes_directed_path():
    # 0 -> 1 -> 2 and 0 - 2 forces 0 -> 2
    p = apply_meek_rules(pdag(3, [(0, 1), (1, 2)], [(0, 2)]))
    assert p.directed[0, 2]


def test_meek_r3_orients_shared_neighbour():
    # 0 - 1, 0 - 2, 0 - 3, 2 -> 1, 3 -> 1, with 2, 3 nonadjacent forces 0 -> 1
    p = apply_meek_rules(pdag(4, [(2, 1), (3, 1)], [(0, 1), (0, 2), (0, 3)]))
    assert p.directed[0, 1]


def test_meek_r4_orients_chain_neighbour():
    # 0 - 1, 0 - 3, 1 -> 2, 2 -> 3, 0 - 2 forces 0 -> 3
    p = apply_meek_rules(pdag(4, [(1, 2), (2, 3)], [(0, 1), (0, 3), (0, 2)]))
    assert p.directed[0, 3]


def test_meek_collider_is_left_alone():
    p = apply_meek_rules(pdag(3, [(0, 1), (2, 1)], []))
    assert p.directed[0, 1] and p.directed[2, 1]
    assert not p.undirected.any()


def test_meek_conflict_raises():
    # two R1 applications meet head-on across 1 - 2:
    # 0 -> 1 forces 1 -> 2 while 3 -> 2 forces 2 -> 1
    with pytest.raises(OrientationConflictError):
        apply_meek_rules(pdag(4, [(0, 1), (3, 2)], [(1, 2)]))


# --- consistent extension --------------------------------------------------


def test_extension_of_collider_cpdag_is_the_collider():
    g = dag(3, [(0, 2), (1, 2)])
    ext = consistent_extension(cpdag_of(g))
    assert ext == g


def test_extension_raises_on_undirected_four_cycle():
    # a chordless undirected cycle admits no extension: any acyclic
    # orientation creates a new v-structure
    p = pdag(4, [], [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ExtensionError):
        consistent_extension(p)


def test_extension_is_deterministic_per_seed():
    g = random_er_dag(8, 10, seed=3)
    p = cpdag_of(g)
    a = consistent_extension(p, seed=5)
    b = consistent_extension(p, seed=5)
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 50))
def test_extension_lands_in_the_same_equivalence_class(graph_seed, ext_seed):
    g = random_er_dag(6, 7, seed=graph_seed)
    p = cpdag_of(g)
    ext = consistent_extension(p, seed=ext_seed)
    q = cpdag_of(ext)
    assert np.array_equal(q.directed, p.directed)
    assert np.array_equal(q.undirected, p.undirected)


# --- edge-list persistence -------------------------------------------------


def test_dag_edgelist_round_trip(tmp_path):
    g = dag(4, [(0, 1), (2, 1), (2, 3)])
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert load_dag(path) == g


def test_cpdag_edgelist_round_trip():
    p = pdag(3, [(0, 1)], [(1, 2)])
    q = parse_cpdag_edgelist(format_cpdag_edgelist(p))
    assert q.labels == p.labels
    assert np.array_equal(q.directed, p.directed)
    assert np.array_equal(q.undirected, p.undirected)


def test_edgelist_parser_skips_comments_and_blank_lines():
    text = "# banner\nnodes: a,b,c\n\n# mid\na -> b\n"
    g = parse_dag_edgelist(text)
    assert g.labels == ("a", "b", "c")
    assert g.edges() == [(0, 1)]


def test_edgelist_parser_rejects_unknown_label():
    with pytest.raises(SchemaError):
        parse_dag_edgelist("nodes: a,b\na -> z\n")


def test_edgelist_parser_rejects_garbage_line():
    with pytest.raises(SchemaError):
        parse_dag_edgelist("nodes: a,b\na = b\n")


def test_dag_parser_rejects_undirected_edge():
    with pytest.raises(SchemaError):
        parse_dag_edgelist("nodes: a,b\na -- b\n")


# labels the edge-list format cannot carry: a leading "#" turns an edge line
# into a comment, "," splits the nodes line, "->" and "--" split an edge line,
# fields are stripped and every record is one line
UNWRITABLE_LABELS = ["#x", " x", "x ", "\tx", "a,b", "a->b", "a--b", "", "a\nb"]


@pytest.mark.parametrize("label", UNWRITABLE_LABELS)
def test_graphs_refuse_a_label_the_edge_list_cannot_carry(label):
    adj = np.zeros((2, 2), dtype=bool)
    adj[0, 1] = True
    with pytest.raises(StructuralError, match="cannot be written in the edge-list format"):
        Dag([label, "y"], adj)
    with pytest.raises(StructuralError, match="cannot be written in the edge-list format"):
        Cpdag([label, "y"], adj, np.zeros_like(adj))


@pytest.mark.parametrize("label", ["#x", "a->b", "a--b"])
def test_edgelist_parser_refuses_a_label_the_format_cannot_carry(label, tmp_path):
    # the labels a nodes line can spell; "#x" used to parse as a graph with
    # no edges, its edge line read as a comment
    text = f"nodes: {label},y\n{label} -> y\n"
    with pytest.raises(SchemaError, match="cannot be written in the edge-list format"):
        parse_dag_edgelist(text)
    (tmp_path / "g.txt").write_text(text)
    with pytest.raises(SchemaError, match="cannot be written in the edge-list format"):
        load_dag(tmp_path / "g.txt")


def test_labels_with_inner_spaces_and_other_marks_still_round_trip():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[2, 1] = True
    g = Dag(["a b", "x#1", "-y>"], adj)
    assert parse_dag_edgelist(format_edgelist(g)) == g
