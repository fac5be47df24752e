import numpy as np
import pytest

from atebench import kernels
from atebench.discovery import BicScore, structure_mcmc
from atebench.discovery.score import centered_gram
from atebench.errors import ParameterError
from atebench.graphs import Dag
from atebench.scm import LinearGaussianScm, default_labels, random_er_dag, random_scm, sample

from conftest import brute_force_dags
from score_reference import graph_score


def chain3_data(n=500, seed=0):
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 2] = True
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = 1.0
    scm = LinearGaussianScm(Dag(default_labels(3), adj), w, np.ones(3))
    return sample(scm, n, seed=seed)


def test_mcmc_sample_count_tracks_thinning():
    data = chain3_data()
    ps = structure_mcmc(data, steps=6000, burn_in=1000, thin=5, seed=0)
    assert len(ps.dags) == 1000
    assert ps.method_tag == "mcmc"
    assert np.allclose(ps.weights, 1 / 1000)


def test_mcmc_auto_thin_targets_the_default_sample_budget():
    data = chain3_data(seed=1)
    ps = structure_mcmc(data, steps=5000, burn_in=1000, seed=1)
    # auto thin keeps about 1000 samples: (5000 - 1000) // max(4, 1)
    assert len(ps.dags) == 1000


def test_mcmc_is_deterministic_per_seed():
    data = chain3_data(seed=2)
    a = structure_mcmc(data, steps=4000, burn_in=500, thin=7, seed=9)
    b = structure_mcmc(data, steps=4000, burn_in=500, thin=7, seed=9)
    assert all(x == y for x, y in zip(a.dags, b.dags))
    c = structure_mcmc(data, steps=4000, burn_in=500, thin=7, seed=10)
    assert any(x != y for x, y in zip(a.dags, c.dags))


def test_mcmc_validates_step_arithmetic():
    data = chain3_data(seed=3)
    with pytest.raises(ParameterError):
        structure_mcmc(data, steps=100, burn_in=100, seed=0)
    with pytest.raises(ParameterError):
        structure_mcmc(data, steps=100, burn_in=-1, seed=0)
    with pytest.raises(ParameterError):
        structure_mcmc(data, steps=100, burn_in=0, thin=0, seed=0)


def test_mcmc_concentrates_on_the_true_equivalence_class():
    # the chain's class {0->1->2, 0<-1->2 variants} should dominate a
    # moderately long run on well-separated data
    data = chain3_data(n=800, seed=4)
    ps = structure_mcmc(data, steps=30_000, burn_in=5000, seed=4)
    score = BicScore(data)
    best = max(brute_force_dags(3), key=lambda a: graph_score(score, a))
    best_score = graph_score(score, best)
    in_top = sum(
        1 for g in ps.dags if graph_score(score, g.adjacency) >= best_score - 1e-9
    )
    assert in_top / len(ps.dags) > 0.5


def test_mcmc_scores_through_the_kernel_attribute(monkeypatch):
    # a wrapper patched onto kernels._local_bic sees every score the chain
    # asks for, and the chain is the same with it
    d, steps = 6, 2000
    data = sample(random_scm(random_er_dag(d, 8, seed=4), seed=4), 300, seed=4)
    gram = centered_gram(data.values)
    uniforms = np.random.default_rng(4).random((steps, 2))
    expected, expected_accepted = kernels.mcmc_chain(gram, data.n, steps, 500, 3, uniforms)
    calls = []
    original = kernels._local_bic

    def counting(gram, n_rows, node, mask, cache):
        calls.append((node, mask))
        return original(gram, n_rows, node, mask, cache)

    monkeypatch.setattr(kernels, "_local_bic", counting)
    samples, accepted = kernels.mcmc_chain(gram, data.n, steps, 500, 3, uniforms)
    # one score per node to start, then at least one per proposal
    assert len(calls) >= d + steps
    assert accepted == expected_accepted > 0
    assert np.array_equal(samples, expected)
