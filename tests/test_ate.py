import numpy as np
import pytest

from atebench.ate import (
    AteQuery,
    AteSampleSet,
    load_ate_samples,
    save_ate_samples,
    sweep,
)
from atebench.errors import DegenerateDataError, ParameterError, SampleSizeError, SchemaError
from atebench.graphs import Dag
from atebench.kernels import transitive_closure_batch
from atebench.mec import TRUE_MEC_TAG, enumerate_mec
from atebench.scm import (
    Dataset,
    LinearGaussianScm,
    analytic_total_effect,
    default_labels,
    random_er_dag,
    random_scm,
    sample,
)

import ate_reference
from ate_reference import backdoor_adjustment_set, estimate_ate


def build_scm(d, weighted_edges):
    adj = np.zeros((d, d), dtype=bool)
    w = np.zeros((d, d))
    for i, j, wt in weighted_edges:
        adj[i, j] = True
        w[i, j] = wt
    return LinearGaussianScm(Dag(default_labels(d), adj), w, np.ones(d))


# --- single-query estimation ----------------------------------------------


def test_query_validation():
    with pytest.raises(ParameterError):
        AteQuery(1, 1)
    q = AteQuery(0, 2, treatment_value_b=2.0, reference_value_a=-1.0)
    assert q.contrast == 3.0


def test_adjustment_set_is_treatment_parents():
    g = random_er_dag(6, 8, seed=0)
    q = AteQuery(2, 4)
    assert backdoor_adjustment_set(g, q) == g.parents(2)


def test_non_descendant_effect_is_exactly_zero():
    scm = build_scm(3, [(0, 1, 1.5), (1, 2, 0.5)])
    data = sample(scm, 50, seed=0)
    assert estimate_ate(scm.graph, data, AteQuery(2, 0)) == 0.0
    assert estimate_ate(scm.graph, data, AteQuery(1, 0)) == 0.0


def test_estimate_recovers_direct_effect():
    scm = build_scm(2, [(0, 1, 1.25)])
    data = sample(scm, 100_000, seed=1)
    got = estimate_ate(scm.graph, data, AteQuery(0, 1))
    assert got == pytest.approx(1.25, abs=0.02)


def test_estimate_scales_with_contrast():
    scm = build_scm(2, [(0, 1, 1.25)])
    data = sample(scm, 5000, seed=2)
    unit = estimate_ate(scm.graph, data, AteQuery(0, 1))
    doubled = estimate_ate(scm.graph, data, AteQuery(0, 1, treatment_value_b=3.0, reference_value_a=1.0))
    assert doubled == pytest.approx(2 * unit, rel=1e-12)


def test_confounder_adjustment_removes_bias():
    # 2 -> 0 and 2 -> 1 confound the 0 -> 1 effect
    scm = build_scm(3, [(2, 0, 1.0), (2, 1, 1.0), (0, 1, 0.5)])
    data = sample(scm, 200_000, seed=3)
    adjusted = estimate_ate(scm.graph, data, AteQuery(0, 1))
    assert adjusted == pytest.approx(0.5, abs=0.02)
    # dropping the confounder edge from the working graph biases the estimate
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True
    bare = Dag(default_labels(3), adj)
    biased = estimate_ate(bare, data, AteQuery(0, 1))
    assert abs(biased - 0.5) > 0.2


def test_estimate_needs_enough_rows_for_the_adjustment_set():
    scm = build_scm(4, [(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    data_small = Dataset(sample(scm, 3, seed=4).values, default_labels(4), "t")
    # treatment 2 has two parents: |Z| + 2 = 4 > 3 rows
    with pytest.raises(SampleSizeError):
        estimate_ate(scm.graph, data_small, AteQuery(2, 3))


def test_estimate_rejects_label_mismatch():
    scm = build_scm(2, [(0, 1, 1.0)])
    data = sample(scm, 20, seed=5)
    wrong = Dataset(data.values, ["a", "b"], "t")
    with pytest.raises(SchemaError):
        estimate_ate(scm.graph, wrong, AteQuery(0, 1))


# --- full sweep ------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_setup():
    g = random_er_dag(5, 6, seed=7)
    scm = random_scm(g, seed=7)
    data = sample(scm, 400, seed=7)
    enum = enumerate_mec(g)
    return g, scm, data, enum


def test_sweep_covers_every_ordered_pair(sweep_setup):
    _, _, data, enum = sweep_setup
    out = sweep(enum, data)
    assert len(out) == 5 * 4
    for q, ss in out.items():
        assert len(ss) == len(enum.members)
        assert ss.source_tag == TRUE_MEC_TAG
        assert q.treatment != q.outcome


def test_sweep_matches_per_query_estimates(sweep_setup):
    _, _, data, enum = sweep_setup
    out = sweep(enum, data)
    for q, ss in out.items():
        for k, g in enumerate(enum.members):
            direct = estimate_ate(g, data, q)
            assert ss.values[k] == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_sweep_accepts_posterior_like_bags(sweep_setup):
    g, _, data, _ = sweep_setup
    from atebench.discovery import uniform_posterior

    ps = uniform_posterior([g, g], "stub", seed=0)
    out = sweep(ps, data)
    assert out[AteQuery(0, 1)].source_tag == "stub"
    assert np.allclose(out[AteQuery(0, 1)].weights, 0.5)


def test_sweep_applies_contrast(sweep_setup):
    _, _, data, enum = sweep_setup
    unit = sweep(enum, data)
    scaled = sweep(enum, data, treatment_value_b=2.0, reference_value_a=-2.0)
    q = AteQuery(0, 1)
    qs = AteQuery(0, 1, treatment_value_b=2.0, reference_value_a=-2.0)
    assert np.allclose(scaled[qs].values, 4.0 * unit[q].values, rtol=1e-12)


def test_sweep_names_the_first_failed_solve_in_c_order(monkeypatch):
    from atebench.discovery import uniform_posterior

    labels = default_labels(4)
    chain = np.zeros((4, 4), dtype=bool)
    chain[0, 1] = chain[1, 2] = chain[2, 3] = True
    collider = chain.copy()
    collider[0, 2] = True
    data = sample(random_scm(Dag(labels, collider), seed=8), 200, seed=8)
    bag = uniform_posterior([Dag(labels, a) for a in (chain, collider, chain, collider)], "stub", seed=0)
    # the key (2, [0, 1]) first appears in DAG 1, where 3 descends from 2
    monkeypatch.setattr(np.linalg, "solve", ate_reference.solve_failing_on([2, 0, 1]))
    stack = np.stack([g.adjacency for g in bag.dags])
    xc = data.values - data.values.mean(axis=0)
    ref = ate_reference.ate_sweep_kernel(xc.T @ xc, stack, transitive_closure_batch(stack))
    assert np.argwhere(np.isnan(ref))[0].tolist() == [1, 2, 3]
    with pytest.raises(DegenerateDataError) as err:
        sweep(bag, data)
    assert str(err.value) == "ATE solve failed even with ridge for dag=1, treatment=2, outcome=3"


def test_sample_set_validation():
    q = AteQuery(0, 1)
    with pytest.raises(ParameterError):
        AteSampleSet(q, [1.0, 2.0], [0.5], "t")
    with pytest.raises(ParameterError):
        AteSampleSet(q, [1.0, 2.0], [0.9, 0.3], "t")
    with pytest.raises(ParameterError):
        AteSampleSet(q, [1.0, 2.0], [-0.2, 1.2], "t")


# --- persistence -----------------------------------------------------------


def test_ate_samples_round_trip_is_bit_exact(tmp_path, sweep_setup):
    _, _, data, enum = sweep_setup
    out = sweep(enum, data, treatment_value_b=2.0, reference_value_a=-1.0)
    path = tmp_path / "ates.npz"
    save_ate_samples(out, data.column_labels, path, "abc")
    back = load_ate_samples(path, data.column_labels, TRUE_MEC_TAG, 2.0, -1.0)
    assert set(back) == set(out)
    for q in out:
        assert back[q].values.tobytes() == out[q].values.tobytes()
        assert back[q].weights.tobytes() == out[q].weights.tobytes()
        assert back[q].source_tag == TRUE_MEC_TAG


def test_ate_samples_file_is_one_stack_with_its_digest(tmp_path, sweep_setup):
    _, _, data, enum = sweep_setup
    out = sweep(enum, data)
    labels = data.column_labels
    path = tmp_path / "ates"  # no suffix: the file is written at exactly this path
    save_ate_samples(out, labels, path, "abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ates"]
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["values", "weights", "labels", "config_digest"]
        values, weights = npz["values"], npz["weights"]
        assert npz["labels"].tolist() == list(labels)
        assert npz["config_digest"].shape == ()
        assert str(npz["config_digest"]) == "abc"
    m = len(enum.members)
    assert values.shape == (m, 5, 5) and values.dtype == np.float64
    assert not values[:, range(5), range(5)].any()
    for q, ss in out.items():
        assert values[:, q.treatment, q.outcome].tobytes() == ss.values.tobytes()
        assert weights.tobytes() == ss.weights.tobytes()
    again = tmp_path / "again.npz"
    save_ate_samples(out, labels, again, "abc")
    assert again.read_bytes() == path.read_bytes()


def test_ate_samples_save_refuses_what_one_stack_cannot_hold(tmp_path):
    q01, q10 = AteQuery(0, 1), AteQuery(1, 0)
    path = tmp_path / "ates.npz"
    partial = {q01: AteSampleSet(q01, [1.0, 2.0], [0.5, 0.5], "t")}
    with pytest.raises(ParameterError):
        save_ate_samples(partial, ("X0", "X1"), path, "abc")
    mixed = dict(partial)
    mixed[q10] = AteSampleSet(q10, [1.0, 2.0], [0.25, 0.75], "t")
    with pytest.raises(ParameterError):
        save_ate_samples(mixed, ("X0", "X1"), path, "abc")


def test_ate_samples_save_refuses_an_empty_sweep(tmp_path):
    with pytest.raises(ParameterError, match="no ATE sample sets"):
        save_ate_samples({}, ("X0", "X1"), tmp_path / "ates.npz", "abc")
    assert not (tmp_path / "ates.npz").exists()


def _npz(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _good_arrays():
    return dict(
        values=np.array([[[0.0, 1.5], [-0.5, 0.0]]]),
        weights=np.array([1.0]),
        labels=np.array(["X0", "X1"]),
        config_digest=np.array("abc"),
    )


def test_ate_loader_reads_a_hand_written_file(tmp_path):
    path = tmp_path / "ates.npz"
    _npz(path, **_good_arrays())
    back = load_ate_samples(path, ("X0", "X1"), "tag")
    assert back[AteQuery(0, 1)].values.tolist() == [1.5]
    assert back[AteQuery(1, 0)].values.tolist() == [-0.5]


@pytest.mark.parametrize(
    "case, reason",
    [
        pytest.param(case, reason, id=case)
        for case, reason in [
            ("text", "not an npz file"),
            ("empty", "not an npz file"),
            ("npy", "not an npz file"),
            ("no-weights", "missing key(s) weights"),
            ("no-digest", "missing key(s) config_digest"),
            ("values-shape", "do not form an (m, 2, 2) stack"),
            ("weights-shape", "do not form an (m, 2, 2) stack"),
            ("labels", "labels ['X1', 'X0'] differ from ['X0', 'X1']"),
            ("weights-sum", "weights must sum to 1"),
        ]
    ],
)
def test_ate_loader_names_the_file_of_a_malformed_stack(tmp_path, case, reason):
    path = tmp_path / "ates.npz"
    arrays = _good_arrays()
    if case == "text":
        path.write_text("treatment,outcome,dag_index,ate_value,weight\nX0,X1,0,1.5,1.0\n")
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "npy":
        with open(path, "wb") as fh:
            np.save(fh, arrays["values"])
    else:
        if case == "no-weights":
            del arrays["weights"]
        elif case == "no-digest":
            del arrays["config_digest"]
        elif case == "values-shape":
            arrays["values"] = np.zeros((2, 2, 2))
        elif case == "weights-shape":
            arrays["weights"] = np.array([[1.0]])
        elif case == "labels":
            arrays["labels"] = np.array(["X1", "X0"])
        elif case == "weights-sum":
            arrays["weights"] = np.array([0.5])
        _npz(path, **arrays)
    with pytest.raises(SchemaError) as err:
        load_ate_samples(path, ("X0", "X1"), "tag")
    assert str(err.value).startswith(f"{path}: ")
    assert reason in str(err.value)
