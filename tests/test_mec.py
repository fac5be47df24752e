import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atebench.discovery import load_external_posterior
from atebench.errors import MecCapacityError
from atebench.graphs import Dag
from atebench.mec import TRUE_MEC_TAG, enumerate_mec, save_mec
from atebench.scm import random_er_dag

from conftest import oracle_mec_classes, oracle_mec_key
from graph_helpers import cpdag_of


def labels(d):
    return [f"X{k}" for k in range(d)]


@pytest.fixture(scope="module")
def classes_d3():
    return oracle_mec_classes(3)


def test_three_node_dag_count(classes_d3):
    assert sum(len(v) for v in classes_d3.values()) == 25


def test_enumeration_matches_oracle_on_all_three_node_dags(classes_d3):
    for members in classes_d3.values():
        expected = {adj.tobytes() for adj in members}
        for adj in members:
            enum = enumerate_mec(Dag(labels(3), adj))
            got = {g.adjacency.tobytes() for g in enum.members}
            assert got == expected


def test_members_are_sorted_and_unique():
    g = random_er_dag(6, 7, seed=11)
    enum = enumerate_mec(g)
    keys = [m.adjacency.tobytes() for m in enum.members]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_source_dag_is_a_member():
    g = random_er_dag(7, 9, seed=4)
    enum = enumerate_mec(g)
    assert any(m == g for m in enum.members)


def test_cpdag_orientation_equals_member_consensus(classes_d3):
    # an edge is directed in the CPDAG exactly when every class member
    # orients it the same way
    for members in classes_d3.values():
        stack = np.stack(members)
        always = stack.all(axis=0)
        ever = stack.any(axis=0)
        p = cpdag_of(Dag(labels(3), members[0]))
        assert np.array_equal(p.directed, always)
        assert np.array_equal(p.undirected, ever & ever.T & ~always)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_every_member_shares_skeleton_and_v_structures(seed):
    g = random_er_dag(6, 7, seed=seed)
    enum = enumerate_mec(g)
    key = oracle_mec_key(g.adjacency)
    for m in enum.members:
        assert oracle_mec_key(m.adjacency) == key


def test_cap_overflow_raises():
    # a complete skeleton with no v-structures has a large class: d! orderings
    adj = np.triu(np.ones((5, 5), dtype=bool), 1)
    with pytest.raises(MecCapacityError):
        enumerate_mec(Dag(labels(5), adj), cap=10)


def test_complete_graph_class_size_is_factorial():
    adj = np.triu(np.ones((4, 4), dtype=bool), 1)
    enum = enumerate_mec(Dag(labels(4), adj))
    assert len(enum) == 24


def test_empty_graph_is_its_own_class():
    g = Dag(labels(4), np.zeros((4, 4), dtype=bool))
    enum = enumerate_mec(g)
    assert len(enum) == 1
    assert enum.members[0] == g


def test_mec_save_load_round_trip(tmp_path):
    g = random_er_dag(5, 6, seed=2)
    enum = enumerate_mec(g)
    save_mec(enum, tmp_path / "mec.txt")
    loaded = load_external_posterior(tmp_path / "mec.txt")
    assert loaded.dags == enum.members
    assert loaded.method_tag == TRUE_MEC_TAG
