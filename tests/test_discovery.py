import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from atebench.discovery import (
    BicScore,
    CiTestConfig,
    FisherZTester,
    bootstrap,
    centered_gram,
    ges,
    load_external_posterior,
    pc,
    save_posterior,
    uniform_posterior,
)
from atebench.discovery.citest import _ndtri
from atebench.errors import (
    DegenerateDataError,
    ParameterError,
    SampleSizeError,
    SchemaError,
    ValidationError,
)
from atebench.graphs import Dag
from atebench.scm import (
    Dataset,
    LinearGaussianScm,
    default_labels,
    random_er_dag,
    random_scm,
    sample,
)

from graph_helpers import adjacent, cpdag_of, parents
from pc_reference import reference_partial_correlation
from score_reference import graph_score, local


def build_scm(d, weighted_edges):
    adj = np.zeros((d, d), dtype=bool)
    w = np.zeros((d, d))
    for i, j, wt in weighted_edges:
        adj[i, j] = True
        w[i, j] = wt
    return LinearGaussianScm(Dag(default_labels(d), adj), w, np.ones(d))


def collider_data(n=4000, seed=0):
    scm = build_scm(3, [(0, 2, 1.0), (1, 2, 1.0)])
    return scm.graph, sample(scm, n, seed=seed)


def chain_data(n=4000, seed=0):
    scm = build_scm(3, [(0, 1, 1.0), (1, 2, 1.0)])
    return scm.graph, sample(scm, n, seed=seed)


def same_cpdag(p, q):
    return (
        p.labels == q.labels
        and np.array_equal(p.directed, q.directed)
        and np.array_equal(p.undirected, q.undirected)
    )


# --- Fisher-z conditional independence test --------------------------------


def oracle_fisher_z(values, i, j, cond, alpha):
    """Independent decision from scratch: residualize, correlate, z-test."""
    n = values.shape[0]
    yi = values[:, i] - values[:, i].mean()
    yj = values[:, j] - values[:, j].mean()
    if cond:
        x = values[:, sorted(cond)]
        x = x - x.mean(axis=0)
        yi = yi - x @ np.linalg.lstsq(x, yi, rcond=None)[0]
        yj = yj - x @ np.linalg.lstsq(x, yj, rcond=None)[0]
    r = float(np.corrcoef(yi, yj)[0, 1])
    if abs(r) >= 1.0:
        return False
    stat = np.sqrt(n - len(cond) - 3) * np.arctanh(r)
    p_value = 2 * (1 - stats.norm.cdf(abs(stat)))
    return p_value > alpha


def test_fisher_z_matches_residualization_oracle():
    rng = np.random.default_rng(0)
    data = sample(random_scm(random_er_dag(5, 7, seed=1), seed=1), 500, seed=1)
    tester = FisherZTester(data, alpha=0.05)
    for _ in range(60):
        i, j = rng.choice(5, size=2, replace=False).tolist()
        others = [k for k in range(5) if k not in (i, j)]
        cond = sorted(rng.choice(others, size=int(rng.integers(0, 3)), replace=False).tolist())
        assert tester.independent(i, j, cond) == oracle_fisher_z(data.values, i, j, cond, 0.05)
    assert tester.tests_run == 60


def test_fisher_z_detects_marginal_and_conditional_structure():
    _, data = collider_data()
    tester = FisherZTester(data, alpha=0.05)
    assert tester.independent(0, 1, [])
    assert not tester.independent(0, 1, [2])
    assert not tester.independent(0, 2, [])


def test_fisher_z_sample_size_guard():
    _, data = collider_data(n=4)
    tester = FisherZTester(data, alpha=0.05)
    with pytest.raises(SampleSizeError):
        tester.independent(0, 1, [2])


def test_fisher_z_rejects_constant_column():
    values = np.column_stack([np.ones(30), np.random.default_rng(0).normal(size=30)])
    with pytest.raises(DegenerateDataError) as err:
        FisherZTester(Dataset(values, ["c0", "c1"]), alpha=0.05)
    assert "c0" in str(err.value)


def inexact_constant_data(value, n):
    """A normal column, then a constant one whose mean is not exactly its
    value, so its standard deviation is tiny but not zero."""
    values = np.column_stack([np.random.default_rng(n).normal(size=n), np.full(n, value)])
    return Dataset(values, ["z", "c"])


@pytest.mark.parametrize("n", [50, 200, 500])
@pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3])
def test_fisher_z_rejects_a_constant_column_with_an_inexact_mean(value, n):
    with pytest.raises(DegenerateDataError, match="^constant column 'c'$"):
        FisherZTester(inexact_constant_data(value, n), alpha=0.05)


@pytest.mark.parametrize("n", [50, 200, 500])
@pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3])
def test_bic_rejects_a_constant_column_with_an_inexact_mean(value, n):
    with pytest.raises(DegenerateDataError, match="^column 'c' has zero variance$"):
        BicScore(inexact_constant_data(value, n))


def ulp_neighbours(x, k=4):
    """x and the k floats on either side of it."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return [float(v) for v in out]


def test_the_quantile_port_equals_scipy_ndtri_bit_for_bit():
    rng = np.random.default_rng(19)
    ps = np.concatenate([
        rng.random(100_000),
        10.0 ** rng.uniform(-300.0, 0.0, 20_000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000),
    ]).tolist()
    # both sides of each region boundary: y = exp(-2) switches from the
    # central rational to the tail, y = exp(-32) (x = 8) between the tails
    for y in (math.exp(-2.0), math.exp(-32.0)):
        ps += ulp_neighbours(y) + ulp_neighbours(1.0 - y)
    ps += [0.5, 1e-300, 5e-324, 0.0, 1.0]
    assert np.array_equal([_ndtri(p) for p in ps], ndtri(np.array(ps)))


def test_fisher_z_threshold_is_the_normal_quantile_bit_for_bit():
    _, data = collider_data(n=50)
    alphas = np.concatenate([[1e-13, 1e-12, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.5, 0.9, 0.999999],
                             np.random.default_rng(0).uniform(0.0, 1.0, size=500)])
    for alpha in alphas.tolist():
        threshold = FisherZTester(data, alpha).threshold
        assert threshold == float(ndtri(1.0 - alpha / 2.0)), alpha
        assert threshold == float(stats.norm.ppf(1.0 - alpha / 2.0)), alpha


def test_fisher_z_rejects_variables_outside_the_data_and_repeated_ones():
    _, data = collider_data(n=100)
    tester = FisherZTester(data, alpha=0.05)
    for i, j, cond in ((0, -1, []), (0, 1, [-2]), (0, 3, []), (3, 0, []), (0, 1, [3]),
                       (0, 1, [2, 2]), (0, 0, []), (0, 1, [1])):
        with pytest.raises(ParameterError):
            tester.independent(i, j, cond)
    assert tester.tests_run == 0


def test_fisher_z_stacked_kernel_equals_the_single_test_bit_for_bit():
    rng = np.random.default_rng(7)
    d = 12
    data = sample(random_scm(random_er_dag(d, 24, seed=7), seed=7), 60, seed=7)
    values = data.values.copy()
    # a near copy makes some submatrices ill-conditioned
    values[:, 3] = values[:, 1] + 1e-4 * rng.normal(size=60)
    tester = FisherZTester(Dataset(values, data.column_labels), alpha=0.05)
    for k in range(7):
        idx = np.array([rng.choice(d, size=k + 2, replace=False) for _ in range(300)])
        pairs, conds = idx[:, :2], np.sort(idx[:, 2:], axis=1)
        stacked = tester.partial_correlations(pairs, conds)
        single = [
            reference_partial_correlation(tester.corr, int(i), int(j), c.tolist())
            for (i, j), c in zip(pairs, conds)
        ]
        assert stacked.tobytes() == np.array(single).tobytes(), k
        for b in range(0, 300, 37):
            one = tester.partial_correlations(pairs[b:b + 1], conds[b:b + 1])
            assert one.tobytes() == stacked[b:b + 1].tobytes(), (k, b)


def test_fisher_z_decide_many_equals_decide_entry_by_entry():
    # decide rounds math.atanh and the product, so 1..4 ulps around the r
    # where the statistic meets the threshold the array decision must defer
    # to it; |r| = 1, infinities and NaN are dependence in both
    rng = np.random.default_rng(3)
    for n in (8, 500):
        tester = FisherZTester(Dataset(rng.normal(size=(n, 3)), default_labels(3)), 0.05)
        for k in range(5):
            edge = math.tanh(tester.threshold / math.sqrt(n - k - 3))
            near, up, down = [edge], edge, edge
            for _ in range(4):
                up, down = np.nextafter(up, 2.0), np.nextafter(down, 0.0)
                near += [float(up), float(down)]
            near += [-r for r in near]
            assert {tester.decide(r, k) for r in near} == {True, False}, (n, k)
            rs = near + [0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
            rs += rng.uniform(-1.0, 1.0, size=50).tolist()
            got = tester.decide_many(np.array(rs), k)
            assert got.tolist() == [tester.decide(r, k) for r in rs], (n, k)


# --- PC --------------------------------------------------------------------


def test_pc_recovers_collider():
    g, data = collider_data()
    assert same_cpdag(pc(data), cpdag_of(g))


def test_pc_recovers_chain_as_undirected():
    g, data = chain_data()
    est = pc(data)
    assert same_cpdag(est, cpdag_of(g))
    assert not est.directed.any()


def test_pc_on_independent_noise_returns_empty_graph():
    # strict alpha keeps the expected false-edge count of the 6 pair tests
    # far below one
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(3000, 4)), default_labels(4))
    est = pc(data, CiTestConfig(alpha=0.001))
    assert not est.directed.any() and not est.undirected.any()


def test_pc_is_deterministic():
    _, data = collider_data(seed=5)
    a, b = pc(data), pc(data)
    assert same_cpdag(a, b)


def test_pc_honors_max_condition_size():
    _, data = collider_data(seed=6)
    est = pc(data, CiTestConfig(alpha=0.05, max_condition_size=0))
    # order-0 tests cannot separate 0 and 1 through the collider path, so
    # the skeleton keeps at least the two true edges
    assert adjacent(est)[0, 2] and adjacent(est)[1, 2]


def test_pc_alpha_sensitivity_runs():
    _, data = collider_data(seed=7)
    loose = pc(data, CiTestConfig(alpha=0.5))
    assert loose.num_nodes == 3


# --- BIC score -------------------------------------------------------------


def test_bic_prefers_the_true_graph_among_three_node_candidates():
    g, data = collider_data(n=2000, seed=8)
    score = BicScore(data)
    true_score = graph_score(score, g.adjacency)
    empty = np.zeros((3, 3), dtype=bool)
    assert true_score > graph_score(score, empty)
    flipped = np.zeros((3, 3), dtype=bool)
    flipped[2, 0] = flipped[1, 2] = True
    assert true_score > graph_score(score, flipped)


def test_bic_local_decomposition_sums_to_graph_score():
    g = random_er_dag(5, 6, seed=9)
    data = sample(random_scm(g, seed=9), 300, seed=9)
    score = BicScore(data)
    total = sum(local(score, v, sorted(parents(g, v))) for v in range(5))
    assert graph_score(score, g.adjacency) == pytest.approx(total, rel=1e-12)


def test_bic_local_rejects_nodes_and_parents_outside_the_graph():
    g = random_er_dag(5, 6, seed=9)
    score = BicScore(sample(random_scm(g, seed=9), 100, seed=9))
    for node, pa in ((0, [99]), (0, [5]), (0, [-1]), (5, []), (-1, [2]), (2, [2])):
        with pytest.raises(ParameterError):
            local(score, node, pa)
    for node, mask in ((0, 1 << 5), (0, -1), (5, 0), (1, 0b10)):
        with pytest.raises(ParameterError):
            score.local_mask(node, mask)
    assert score.local_mask(0, 0b110) == local(score, 0, [2, 1])


def test_bic_rejects_degenerate_input():
    values = np.column_stack([np.ones(30), np.arange(30.0)])
    with pytest.raises(DegenerateDataError) as err:
        BicScore(Dataset(values, ["z", "w"]))
    assert "z" in str(err.value)


def test_centered_gram_matches_definition():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(40, 3))
    xc = x - x.mean(axis=0)
    assert np.allclose(centered_gram(x), xc.T @ xc)


# --- GES -------------------------------------------------------------------


def test_ges_recovers_collider():
    g, data = collider_data(seed=11)
    assert same_cpdag(ges(data), cpdag_of(g))


def test_ges_recovers_chain_as_undirected():
    g, data = chain_data(seed=12)
    assert same_cpdag(ges(data), cpdag_of(g))


def test_ges_on_independent_noise_returns_empty_graph():
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(3000, 4)), default_labels(4))
    est = ges(data)
    assert not est.directed.any() and not est.undirected.any()


def test_ges_needs_enough_rows():
    rng = np.random.default_rng(14)
    data = Dataset(rng.normal(size=(4, 3)), default_labels(3))
    with pytest.raises(SampleSizeError):
        ges(data)


def test_ges_recovers_a_larger_sparse_graph():
    g = random_er_dag(6, 5, seed=15)
    data = sample(random_scm(g, seed=15), 20_000, seed=15)
    assert same_cpdag(ges(data), cpdag_of(g))


# --- bootstrap posteriors --------------------------------------------------


def test_bootstrap_pc_shape_tag_and_determinism():
    _, data = collider_data(n=300, seed=16)
    ps = bootstrap(data, method="pc", num_replicates=16, seed=3)
    assert ps.method_tag == "bootstrap-pc"
    assert len(ps.dags) == 16
    assert np.allclose(ps.weights, 1 / 16)
    again = bootstrap(data, method="pc", num_replicates=16, seed=3)
    assert all(a == b for a, b in zip(ps.dags, again.dags))
    other = bootstrap(data, method="pc", num_replicates=16, seed=4)
    assert any(a != b for a, b in zip(ps.dags, other.dags))


def test_bootstrap_ges_tag():
    _, data = collider_data(n=300, seed=17)
    ps = bootstrap(data, method="ges", num_replicates=8, seed=0)
    assert ps.method_tag == "bootstrap-ges"
    assert len(ps.dags) == 8


def test_bootstrap_members_follow_the_data_generating_class():
    # seed chosen so the sampled marginal correlations sit far from the test
    # threshold; replicate fits then agree on the singleton collider class
    g, data = collider_data(n=5000, seed=25)
    ps = bootstrap(data, method="pc", num_replicates=12, seed=1)
    hits = sum(1 for m in ps.dags if m == g)
    assert hits >= 10


def test_bootstrap_rejects_unknown_method():
    _, data = collider_data(n=100, seed=19)
    with pytest.raises(ParameterError):
        bootstrap(data, method="mystery", num_replicates=4, seed=0)


def test_bootstrap_propagates_sample_size_error():
    rng = np.random.default_rng(20)
    data = Dataset(rng.normal(size=(4, 3)), default_labels(3))
    with pytest.raises(SampleSizeError):
        bootstrap(data, method="ges", num_replicates=4, seed=0)


# --- posterior persistence -------------------------------------------------


def test_posterior_round_trip(tmp_path):
    g, data = collider_data(n=300, seed=21)
    ps = bootstrap(data, method="pc", num_replicates=8, seed=2)
    path = tmp_path / "posterior.txt"
    save_posterior(ps, path)
    back = load_external_posterior(path)
    assert back.method_tag == ps.method_tag
    assert back.seed == ps.seed
    assert np.allclose(back.weights, ps.weights)
    assert all(a == b for a, b in zip(back.dags, ps.dags))


def test_posterior_loader_rejects_malformed_weight(tmp_path):
    path = tmp_path / "posterior.txt"
    path.write_text("posterior method=m seed=0\ngraph 0 weight banana\nnodes: a,b\n")
    with pytest.raises(SchemaError):
        load_external_posterior(path)


@pytest.mark.parametrize("tag", ["a b", "", "../x", "-x", "a/b"])
def test_posterior_sample_refuses_a_tag_that_is_not_a_file_name(tmp_path, tag):
    g = random_er_dag(3, 2, seed=22)
    path = tmp_path / "p.txt"
    with pytest.raises(ParameterError, match="must match"):
        save_posterior(uniform_posterior([g], tag, seed=0), path)
    assert not path.exists()


def test_posterior_sample_accepts_plain_file_name_tags(tmp_path):
    g = random_er_dag(3, 2, seed=22)
    for tag in ("bootstrap-pc", "true-mec", "a.b+c_d", "7"):
        save_posterior(uniform_posterior([g], tag, seed=0), tmp_path / "p.txt")
        assert load_external_posterior(tmp_path / "p.txt").method_tag == tag


def test_posterior_loader_names_the_file_of_a_bad_tag(tmp_path):
    path = tmp_path / "posterior.txt"
    path.write_text("posterior method=a/b seed=0\ngraph 0 weight 1.0\nnodes: a,b\n")
    with pytest.raises(SchemaError) as err:
        load_external_posterior(path)
    assert str(err.value).startswith(f"{path}: method tag 'a/b' must match ")


def test_posterior_loader_refuses_a_directory(tmp_path):
    (tmp_path / "g.txt").write_text("nodes: a,b\na -> b\n")
    with pytest.raises(ValidationError) as err:
        load_external_posterior(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: not a posterior file")


def test_uniform_posterior_validates_inputs():
    g = random_er_dag(3, 2, seed=22)
    ps = uniform_posterior([g, g, g], "tag", seed=5)
    assert np.allclose(ps.weights, 1 / 3)
    with pytest.raises(ParameterError):
        uniform_posterior([], "tag", seed=5)


def test_a_bag_is_one_read_only_stack_and_builds_its_dags_on_access():
    g, h = random_er_dag(5, 6, seed=1), random_er_dag(5, 6, seed=2)
    ps = uniform_posterior([g, h, g], "tag", seed=0)
    assert ps.stack.shape == (3, 5, 5) and ps.stack.dtype == bool
    assert ps.labels == g.labels and len(ps) == 3
    with pytest.raises(ValueError):
        ps.stack[0, 0, 1] = True
    dags = ps.dags
    assert dags == [g, h, g] and dags is not ps.dags
    assert not any(dag.adjacency.flags.writeable for dag in dags)
