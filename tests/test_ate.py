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
    default_labels,
    random_er_dag,
    random_scm,
    sample,
)

import ate_reference
from ate_reference import backdoor_adjustment_set, estimate_ate
from graph_helpers import parents


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
    assert ate_reference.contrast(q) == 3.0


def test_adjustment_set_is_treatment_parents():
    g = random_er_dag(6, 8, seed=0)
    q = AteQuery(2, 4)
    assert backdoor_adjustment_set(g, q) == parents(g, 2)


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
    data_small = Dataset(sample(scm, 3, seed=4).values, default_labels(4))
    # treatment 2 has two parents: |Z| + 2 = 4 > 3 rows
    with pytest.raises(SampleSizeError):
        estimate_ate(scm.graph, data_small, AteQuery(2, 3))


def test_estimate_rejects_label_mismatch():
    scm = build_scm(2, [(0, 1, 1.0)])
    data = sample(scm, 20, seed=5)
    wrong = Dataset(data.values, ["a", "b"])
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


def by_value(values, weights):
    """{value bytes: summed weight} of a weighted sample."""
    out = {}
    for v, w in zip(np.asarray(values, dtype=float), weights):
        out[v.tobytes()] = out.get(v.tobytes(), 0.0) + float(w)
    return out


def assert_atoms_match_reference(atoms, bag, data, b=1.0, a=0.0):
    """Every pair's atoms against the per-DAG reference kernel grouped by
    value: the same value bytes, each with the same summed weight."""
    stack = np.stack([g.adjacency for g in bag.dags])
    xc = data.values - data.values.mean(axis=0)
    closure = transitive_closure_batch(stack)
    # + 0.0 turns the -0.0 of a negative contrast into the sweep's +0.0 zero atom
    ref = ate_reference.ate_sweep_kernel(xc.T @ xc, stack, closure) * (b - a) + 0.0
    d = stack.shape[1]
    assert list(atoms) == [AteQuery(t, y, b, a) for t in range(d) for y in range(d) if t != y]
    zero_atoms = 0
    for q, ss in atoms.items():
        got = by_value(ss.values, ss.weights)
        want = by_value(ref[:, q.treatment, q.outcome], bag.weights)
        assert got.keys() == want.keys(), q
        for v in got:
            assert abs(got[v] - want[v]) <= 1e-12, q
        assert ss.weights.sum() == pytest.approx(1.0, abs=1e-12)
        reach = closure[:, q.treatment, q.outcome]
        # one atom per distinct parent set of t among the DAGs with a path t ~> y
        keys = {stack[k, :, q.treatment].tobytes() for k in np.flatnonzero(reach)}
        if reach.all():
            assert len(ss) == len(keys), q
        else:
            # and first, the zero atom of the DAGs without one
            assert ss.values[0].tobytes() == np.float64(0.0).tobytes(), q
            assert ss.weights[0] == pytest.approx(bag.weights[~reach].sum(), abs=1e-12)
            assert len(ss) == len(keys) + 1, q
            zero_atoms += 1
    return zero_atoms


def test_sweep_covers_every_ordered_pair(sweep_setup):
    _, _, data, enum = sweep_setup
    out = sweep(enum, data)
    assert len(out) == 5 * 4
    for q, ss in out.items():
        assert 1 <= len(ss) <= len(enum.members)
        assert ss.source_tag == TRUE_MEC_TAG
        assert q.treatment != q.outcome
        assert ss.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert not ss.values.flags.writeable and not ss.weights.flags.writeable


def test_sweep_matches_per_query_estimates(sweep_setup):
    _, _, data, enum = sweep_setup
    out = sweep(enum, data)
    for q, ss in out.items():
        direct = [estimate_ate(g, data, q) for g in enum.members]
        # every member's estimate is an atom, and every atom some member's
        for e in direct:
            assert any(v == pytest.approx(e, rel=1e-9, abs=1e-12) for v in ss.values), (q, e)
        for v in ss.values:
            assert any(v == pytest.approx(e, rel=1e-9, abs=1e-12) for e in direct), (q, v)


def test_sweep_accepts_posterior_like_bags(sweep_setup):
    g, _, data, _ = sweep_setup
    from atebench.discovery import uniform_posterior

    ps = uniform_posterior([g, g], "stub", seed=0)
    out = sweep(ps, data)
    assert out[AteQuery(0, 1)].source_tag == "stub"
    # the two copies are one DAG, swept once with their weights summed
    for ss in out.values():
        assert ss.weights.tolist() == [1.0]


def test_sweep_applies_contrast(sweep_setup):
    _, _, data, enum = sweep_setup
    unit = sweep(enum, data)
    scaled = sweep(enum, data, treatment_value_b=2.0, reference_value_a=-2.0)
    q = AteQuery(0, 1)
    qs = AteQuery(0, 1, treatment_value_b=2.0, reference_value_a=-2.0)
    assert np.allclose(scaled[qs].values, 4.0 * unit[q].values, rtol=1e-12)
    assert q not in scaled and qs not in unit


def atom_bags():
    """(name, bag, data): ER bags that repeat DAGs, under uniform and
    non-uniform weights, and an equivalence class."""
    from atebench.discovery import PosteriorSample, uniform_posterior

    for d, edges, seed in [(4, 4, 0), (6, 8, 1), (9, 14, 2)]:
        g = random_er_dag(d, edges, seed=seed)
        data = sample(random_scm(g, seed=seed), 200, seed=seed)
        rng = np.random.default_rng(seed)
        pool = list(enumerate_mec(g).members) + [random_er_dag(d, edges, seed=50 + k) for k in range(4)]
        dags = [pool[i] for i in rng.integers(0, len(pool), 4 * len(pool))]
        weights = rng.random(len(dags)) + 0.05
        yield f"d={d} uniform", uniform_posterior(dags, "bag", seed=0), data
        yield f"d={d} weighted", PosteriorSample(dags, weights / weights.sum(), "bag", 0), data
        yield f"d={d} mec", enumerate_mec(g), data


@pytest.mark.parametrize("b, a", [(1.0, 0.0), (0.5, 3.0)])
def test_sweep_atoms_match_the_per_dag_reference(b, a):
    zero_atoms = key_only = 0
    for name, bag, data in atom_bags():
        assert len({g.adjacency.tobytes() for g in bag.dags}) < len(bag.dags) or name.endswith("mec")
        zeros = assert_atoms_match_reference(sweep(bag, data, b, a), bag, data, b, a)
        zero_atoms += zeros
        key_only += len(bag.labels) * (len(bag.labels) - 1) - zeros
    # the corpus has pairs with and without a zero atom
    assert zero_atoms and key_only


def test_sweep_sums_each_distinct_dag_once(monkeypatch):
    from atebench import ate
    from atebench.discovery import PosteriorSample

    g = random_er_dag(5, 6, seed=3)
    data = sample(random_scm(g, seed=3), 200, seed=3)
    other = random_er_dag(5, 6, seed=4)
    bag = PosteriorSample([g, other, g, g], [0.1, 0.2, 0.3, 0.4], "bag", 0)
    seen = []
    table = ate.ate_table
    monkeypatch.setattr(ate, "ate_table", lambda gram, stack: seen.append(stack.copy()) or table(gram, stack))
    assert_atoms_match_reference(sweep(bag, data), bag, data)
    (stack,) = seen
    assert np.array_equal(stack, np.stack([g.adjacency, other.adjacency]))


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


def test_sweep_names_a_failed_dag_by_its_place_in_the_bag(monkeypatch):
    from atebench.discovery import uniform_posterior

    labels = default_labels(4)
    chain = np.zeros((4, 4), dtype=bool)
    chain[0, 1] = chain[1, 2] = chain[2, 3] = True
    collider = chain.copy()
    collider[0, 2] = True
    data = sample(random_scm(Dag(labels, collider), seed=8), 200, seed=8)
    # the collider is the second distinct DAG but the bag's third entry
    bag = uniform_posterior([Dag(labels, a) for a in (chain, chain, collider, chain)], "stub", seed=0)
    monkeypatch.setattr(np.linalg, "solve", ate_reference.solve_failing_on([2, 0, 1]))
    with pytest.raises(DegenerateDataError) as err:
        sweep(bag, data)
    assert str(err.value) == "ATE solve failed even with ridge for dag=2, treatment=2, outcome=3"


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
    save_ate_samples(out, data.column_labels, path)
    back = load_ate_samples(path, data.column_labels, TRUE_MEC_TAG, 2.0, -1.0)
    assert set(back) == set(out)
    for q in out:
        assert back[q].values.tobytes() == out[q].values.tobytes()
        assert back[q].weights.tobytes() == out[q].weights.tobytes()
        assert back[q].source_tag == TRUE_MEC_TAG


def test_ate_samples_file_is_flat_atoms(tmp_path, sweep_setup):
    _, _, data, enum = sweep_setup
    out = sweep(enum, data)
    labels = data.column_labels
    path = tmp_path / "ates"  # no suffix: the file is written at exactly this path
    save_ate_samples(out, labels, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ates"]
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["values", "weights", "offsets", "labels"]
        values, weights, offsets = npz["values"], npz["weights"], npz["offsets"]
        assert npz["labels"].tolist() == list(labels)
    assert values.dtype == weights.dtype == np.float64 and offsets.dtype == np.int64
    assert values.shape == weights.shape == (offsets[-1],) and offsets.shape == (5 * 4 + 1,)
    # pair p of (t, y) C-order owns values[offsets[p]:offsets[p + 1]]
    for p, (q, ss) in enumerate(out.items()):
        assert (q.treatment, q.outcome) == [(t, y) for t in range(5) for y in range(5) if t != y][p]
        assert values[offsets[p]:offsets[p + 1]].tobytes() == ss.values.tobytes()
        assert weights[offsets[p]:offsets[p + 1]].tobytes() == ss.weights.tobytes()
    again = tmp_path / "again.npz"
    save_ate_samples(out, labels, again)
    assert again.read_bytes() == path.read_bytes()


def test_ate_samples_save_refuses_what_is_not_one_sweep(tmp_path, sweep_setup):
    _, _, data, enum = sweep_setup
    q01 = AteQuery(0, 1)
    path = tmp_path / "ates.npz"
    sets = {q01: AteSampleSet(q01, [1.0, 2.0], [0.5, 0.5], "t")}
    with pytest.raises(ParameterError, match="expected the AteAtoms of one sweep"):
        save_ate_samples(sets, ("X0", "X1"), path)
    with pytest.raises(ParameterError, match="differ from the sweep's"):
        save_ate_samples(sweep(enum, data), data.column_labels[::-1], path)
    assert not path.exists()


def test_ate_samples_save_refuses_an_empty_sweep(tmp_path):
    with pytest.raises(ParameterError, match="expected the AteAtoms of one sweep"):
        save_ate_samples({}, ("X0", "X1"), tmp_path / "ates.npz")
    assert not (tmp_path / "ates.npz").exists()


def _npz(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _good_arrays():
    # pair (X0, X1): a zero atom and 1.5; pair (X1, X0): -0.5 alone
    return dict(
        values=np.array([0.0, 1.5, -0.5]),
        weights=np.array([0.25, 0.75, 1.0]),
        offsets=np.array([0, 2, 3]),
        labels=np.array(["X0", "X1"]),
    )


def test_ate_loader_reads_a_hand_written_file(tmp_path):
    path = tmp_path / "ates.npz"
    _npz(path, **_good_arrays())
    back = load_ate_samples(path, ("X0", "X1"), "tag")
    assert back[AteQuery(0, 1)].values.tolist() == [0.0, 1.5]
    assert back[AteQuery(0, 1)].weights.tolist() == [0.25, 0.75]
    assert back[AteQuery(1, 0)].values.tolist() == [-0.5]
    assert back[AteQuery(1, 0)].source_tag == "tag"


@pytest.mark.parametrize(
    "case, reason",
    [
        pytest.param(case, reason, id=case)
        for case, reason in [
            ("text", "not an npz file"),
            ("empty", "not an npz file"),
            ("npy", "not an npz file"),
            ("stack-layout", "delete that seed's directory"),
            ("no-weights", "missing key(s) weights"),
            ("values-shape", "must be equal-length vectors"),
            ("weights-shape", "must be equal-length vectors"),
            ("offsets-shape", "offsets must be 3 integers for 2 pairs"),
            ("offsets-order", "offsets must be nondecreasing"),
            ("offsets-end", "offsets must run from 0 to the atom count 3, got 0 to 2"),
            ("empty-pair", "pair (X1, X0) has no atom"),
            ("labels", "labels ['X1', 'X0'] differ from ['X0', 'X1']"),
            ("weights-sum", "pair (X0, X1): weights must sum to 1"),
            ("nan-value", "non-finite ATE values"),
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
        if case == "stack-layout":
            # the earlier layout: one (m, d, d) stack of per-DAG effects
            del arrays["offsets"]
            arrays["values"] = np.array([[[0.0, 1.5], [-0.5, 0.0]]])
            arrays["weights"] = np.array([1.0])
        elif case == "no-weights":
            del arrays["weights"]
        elif case == "values-shape":
            arrays["values"] = np.zeros((3, 1))
        elif case == "weights-shape":
            arrays["weights"] = np.array([1.0])
        elif case == "offsets-shape":
            arrays["offsets"] = np.array([0, 3])
        elif case == "offsets-order":
            arrays["offsets"] = np.array([0, 4, 3])
        elif case == "offsets-end":
            arrays["offsets"] = np.array([0, 1, 2])
            arrays["weights"] = np.array([1.0, 1.0, 1.0])
        elif case == "empty-pair":
            arrays["offsets"] = np.array([0, 3, 3])
            arrays["weights"] = np.array([0.25, 0.25, 0.5])
        elif case == "labels":
            arrays["labels"] = np.array(["X1", "X0"])
        elif case == "weights-sum":
            arrays["weights"] = np.array([0.25, 0.5, 1.0])
        elif case == "nan-value":
            arrays["values"] = np.array([0.0, np.nan, -0.5])
        _npz(path, **arrays)
    with pytest.raises(SchemaError) as err:
        load_ate_samples(path, ("X0", "X1"), "tag")
    assert str(err.value).startswith(f"{path}: ")
    assert reason in str(err.value)
