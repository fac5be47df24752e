import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atebench.errors import ParameterError, SchemaError
from atebench.graphs import Dag
from atebench.scm import (
    Dataset,
    LinearGaussianScm,
    default_labels,
    load_dataset,
    random_er_dag,
    random_scm,
    sample,
    save_dataset,
    save_scm,
)

from ate_reference import analytic_total_effect
from conftest import oracle_path_effect


def chain_scm(weights):
    d = len(weights) + 1
    adj = np.zeros((d, d), dtype=bool)
    w = np.zeros((d, d))
    for k, wk in enumerate(weights):
        adj[k, k + 1] = True
        w[k, k + 1] = wk
    return LinearGaussianScm(Dag(default_labels(d), adj), w, np.ones(d))


# --- random graph and SCM generation --------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 12), st.integers(0, 10_000))
def test_er_dag_is_always_acyclic_with_default_density(d, seed):
    g = random_er_dag(d, d, seed)
    assert g.num_nodes == d


def test_er_dag_edge_count_matches_expectation():
    counts = [random_er_dag(8, 10, seed=s).num_edges for s in range(400)]
    assert abs(np.mean(counts) - 10) < 0.5


def test_er_dag_orientation_is_permuted_not_index_aligned():
    seen_backward = False
    for s in range(50):
        g = random_er_dag(5, 6, seed=s)
        if any(i > j for i, j in g.edges()):
            seen_backward = True
            break
    assert seen_backward


def test_er_dag_rejects_overdense_request():
    with pytest.raises(ParameterError):
        random_er_dag(3, 10, seed=0)


def test_random_scm_weight_magnitudes_stay_in_range():
    g = random_er_dag(8, 12, seed=9)
    scm = random_scm(g, weight_range=(0.5, 2.0), seed=1)
    w = scm.weights[g.adjacency]
    assert np.all((np.abs(w) >= 0.5) & (np.abs(w) <= 2.0))
    assert np.all(scm.weights[~g.adjacency] == 0.0)


def test_random_scm_uses_both_signs():
    g = random_er_dag(8, 14, seed=5)
    w = random_scm(g, seed=2).weights
    nz = w[w != 0.0]
    assert (nz > 0).any() and (nz < 0).any()


def test_random_scm_rejects_bad_range():
    g = random_er_dag(3, 2, seed=0)
    with pytest.raises(ParameterError):
        random_scm(g, weight_range=(2.0, 0.5))
    with pytest.raises(ParameterError):
        random_scm(g, weight_range=(0.0, 0.0))


def test_random_scm_accepts_one_fixed_weight_magnitude():
    # a point range consumes one draw per edge like a real range, so the
    # signs, which come from the same stream, are those of a real range
    g = random_er_dag(8, 12, seed=9)
    fixed = random_scm(g, weight_range=(1.0, 1.0), seed=1).weights
    ranged = random_scm(g, weight_range=(0.5, 2.0), seed=1).weights
    assert np.array_equal(np.abs(fixed), g.adjacency.astype(float))
    assert np.array_equal(np.sign(fixed), np.sign(ranged))


# --- sampling --------------------------------------------------------------


def test_sample_is_deterministic_per_seed():
    scm = random_scm(random_er_dag(5, 6, seed=0), seed=0)
    a = sample(scm, 50, seed=7)
    b = sample(scm, 50, seed=7)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, sample(scm, 50, seed=8).values)


def test_sample_respects_chain_moments():
    # x0 -> x1 with weight 2: Var(x0) = 1, Var(x1) = 4 + 1, Cov = 2
    scm = chain_scm([2.0])
    data = sample(scm, 200_000, seed=1)
    cov = np.cov(data.values, rowvar=False)
    assert abs(cov[0, 0] - 1.0) < 0.05
    assert abs(cov[1, 1] - 5.0) < 0.15
    assert abs(cov[0, 1] - 2.0) < 0.05


def test_sample_means_are_centered():
    scm = random_scm(random_er_dag(4, 5, seed=3), seed=3)
    data = sample(scm, 100_000, seed=2)
    assert np.all(np.abs(data.values.mean(axis=0)) < 0.2)


# --- analytic effects ------------------------------------------------------


def test_analytic_effect_on_hand_built_paths():
    # two paths 0 -> 1 -> 3 and 0 -> 2 -> 3 plus direct edge 0 -> 3
    adj = np.zeros((4, 4), dtype=bool)
    w = np.zeros((4, 4))
    for i, j, wt in [(0, 1, 2.0), (1, 3, 1.5), (0, 2, -1.0), (2, 3, 0.5), (0, 3, 0.25)]:
        adj[i, j] = True
        w[i, j] = wt
    scm = LinearGaussianScm(Dag(default_labels(4), adj), w, np.ones(4))
    assert analytic_total_effect(scm, 0, 3) == pytest.approx(2 * 1.5 - 1 * 0.5 + 0.25)
    assert analytic_total_effect(scm, 3, 0) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_analytic_effect_matches_path_enumeration_oracle(seed):
    g = random_er_dag(6, 8, seed=seed)
    scm = random_scm(g, seed=seed + 1)
    for t in range(6):
        for y in range(6):
            if t == y:
                continue
            expected = oracle_path_effect(scm.weights, t, y)
            assert analytic_total_effect(scm, t, y) == pytest.approx(expected, abs=1e-10)


# --- persistence -----------------------------------------------------------


def test_scm_round_trip(tmp_path):
    scm = random_scm(random_er_dag(5, 7, seed=4), seed=4)
    path = tmp_path / "scm.json"
    save_scm(scm, path)
    back = json.loads(path.read_text(encoding="utf-8"))
    assert Dag(back["node_labels"], np.asarray(back["adjacency"], dtype=bool)) == scm.graph
    assert np.array_equal(back["weights"], scm.weights)
    assert np.array_equal(back["noise_variances"], scm.noise_variances)
    assert np.array_equal(back["intercepts"], scm.intercepts)


def test_dataset_round_trip_is_bit_exact(tmp_path):
    data = sample(random_scm(random_er_dag(4, 5, seed=6), seed=6), 40, seed=6)
    path = tmp_path / "data.csv"
    save_dataset(data, path)
    back = load_dataset(path)
    assert back.column_labels == data.column_labels
    assert np.array_equal(back.values, data.values)


def test_dataset_loader_skips_comment_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# stamp\na,b\n# mid\n1.5,2.0\n0.25,-1.0\n")
    data = load_dataset(path)
    assert data.column_labels == ("a", "b")
    assert np.array_equal(data.values, [[1.5, 2.0], [0.25, -1.0]])


def test_dataset_loader_rejects_ragged_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_dataset_loader_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1.0,x\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_npz_dataset_round_trip_keeps_bytes_dtype_shape_and_labels(tmp_path):
    data = sample(random_scm(random_er_dag(4, 5, seed=6), seed=6), 40, seed=6)
    path = tmp_path / "data.npz"
    save_dataset(data, path)
    back = load_dataset(path)
    assert back.values.tobytes() == data.values.tobytes()
    assert (back.values.dtype, back.values.shape) == (np.float64, (40, 4))
    assert back.column_labels == data.column_labels
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == ["labels", "values"]


def test_saving_an_npz_dataset_twice_gives_identical_bytes(tmp_path):
    data = sample(random_scm(random_er_dag(4, 5, seed=6), seed=6), 40, seed=6)
    save_dataset(data, tmp_path / "a.npz")
    save_dataset(data, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def _npz_arrays(**overrides):
    arrays = {"values": np.arange(6.0).reshape(3, 2), "labels": np.array(["a", "b"])}
    arrays.update(overrides)
    return {k: v for k, v in arrays.items() if v is not None}


@pytest.mark.parametrize("arrays, message", [
    (_npz_arrays(values=None), "missing key(s) values"),
    (_npz_arrays(labels=None), "missing key(s) labels"),
    (_npz_arrays(labels=np.array(["a", "b", "c"])), "column label count"),
    (_npz_arrays(values=np.arange(6.0)), "2-D"),
    (_npz_arrays(values=np.arange(6).reshape(3, 2)), "expected float64 values"),
    (_npz_arrays(values=np.array([[1.0, np.nan], [0.0, 1.0]])), "non-finite"),
    (_npz_arrays(values=np.array([[1.0, np.inf], [0.0, 1.0]])), "non-finite"),
], ids=["no values", "no labels", "label count", "1-D values", "int values",
        "nan", "inf"])
def test_a_malformed_npz_dataset_raises_a_schema_error_naming_it(tmp_path, arrays, message):
    path = tmp_path / "data.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(SchemaError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: ")
    assert message in str(err.value)


def test_bytes_that_are_not_an_npz_raise_a_schema_error_naming_the_file(tmp_path):
    path = tmp_path / "data.npz"
    path.write_text("x0,x1\n1.0,2.0\n")
    with pytest.raises(SchemaError, match="not an npz file") as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: ")


def test_standardized_centers_and_scales():
    data = sample(random_scm(random_er_dag(4, 5, seed=8), seed=8), 500, seed=8)
    z = data.standardized()
    assert np.allclose(z.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.values.std(axis=0), 1.0, atol=1e-12)


def test_standardized_rejects_constant_column():
    data = Dataset(np.column_stack([np.ones(5), np.arange(5.0)]), ["a", "b"])
    with pytest.raises(SchemaError):
        data.standardized()


@pytest.mark.parametrize("n", [50, 200, 500])
@pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3])
def test_standardized_rejects_a_constant_column_with_an_inexact_mean(value, n):
    # the column's mean is not exactly its value, so its std is not 0
    values = np.column_stack([np.arange(float(n)), np.full(n, value)])
    assert values.std(axis=0)[1] > 0.0
    with pytest.raises(SchemaError, match="^cannot standardize a constant column$"):
        Dataset(values, ["a", "b"]).standardized()
