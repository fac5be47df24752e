import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from atebench import kernels
from atebench.errors import ParameterError
from atebench.graphs import _rows
from atebench.mec import enumerate_mec
from atebench.scm import random_er_dag, random_scm, sample

from conftest import random_weighted_sample
from graph_helpers import closure_one
import ate_reference
import mcmc_reference
import score_reference
from mcmc_reference import _nth_move, _reach, _reverse_ok, reference_chain


def centered_gram_of(values):
    xc = values - values.mean(axis=0)
    return np.ascontiguousarray(xc.T @ xc)


# --- backend name ----------------------------------------------------------


def test_backend_name_is_numpy():
    assert kernels.backend_name() == "numpy"


# --- Wasserstein kernel ----------------------------------------------------


def wd_call(xv, xw, yv, yw):
    ox, oy = np.argsort(xv), np.argsort(yv)
    return kernels.weighted_wasserstein(xv[ox], xw[ox], yv[oy], yw[oy])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_wasserstein_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    xv, xw = random_weighted_sample(rng)
    yv, yw = random_weighted_sample(rng)
    expected = stats.wasserstein_distance(xv, yv, xw, yw)
    assert wd_call(xv, xw, yv, yw) == pytest.approx(expected, abs=1e-12)


def test_wasserstein_point_masses():
    one = np.array([1.0])
    assert wd_call(np.array([0.0]), one, np.array([3.0]), one) == pytest.approx(3.0)


# --- transitive closure batch ---------------------------------------------


def test_closure_batch_matches_floyd_warshall():
    rng = np.random.default_rng(3)
    graphs = [random_er_dag(6, 8, seed=int(rng.integers(1 << 30))) for _ in range(20)]
    stack = np.stack([g.adjacency for g in graphs])
    got = kernels.transitive_closure_batch(stack)
    for k, g in enumerate(graphs):
        reach = g.adjacency.copy()
        for mid in range(6):
            reach |= np.outer(reach[:, mid], reach[mid, :])
        assert np.array_equal(got[k], reach)


def test_closure_batch_equals_closure_one_per_graph():
    rng = np.random.default_rng(13)
    for d in range(2, 51):
        most = min(2 * d, d * (d - 1) // 2)
        graphs = [random_er_dag(d, int(rng.integers(0, most + 1)), seed=int(rng.integers(1 << 30)))
                  for _ in range(4)]
        stack = np.stack([g.adjacency for g in graphs])
        got = kernels.transitive_closure_batch(stack)
        assert got.dtype == bool and got.shape == stack.shape
        for k in range(len(graphs)):
            assert np.array_equal(got[k], closure_one(stack[k])), (d, k)
            # one (d, d) matrix, as the MCMC chain closes it
            assert np.array_equal(kernels.transitive_closure_batch(stack[k]), got[k]), (d, k)


def test_closure_batch_of_empty_graphs_and_the_longest_chain():
    empty = np.zeros((3, 7, 7), dtype=bool)
    assert not kernels.transitive_closure_batch(empty).any()
    assert kernels.transitive_closure_batch(np.zeros((0, 5, 5), dtype=bool)).shape == (0, 5, 5)
    # a 50-node chain, the longest path at the largest d, beside an empty graph
    chain = np.eye(50, k=1, dtype=bool)
    got = kernels.transitive_closure_batch(np.stack([chain, np.zeros_like(chain)]))
    assert np.array_equal(got[0], np.triu(np.ones((50, 50), dtype=bool), k=1))
    assert np.array_equal(got[0], closure_one(chain))
    assert np.array_equal(kernels.transitive_closure_batch(chain), got[0])
    assert not got[1].any()


# --- local BIC score -------------------------------------------------------


def oracle_local_bic(values, node, parent_list):
    """Gaussian log-likelihood of node | parents minus the BIC penalty,
    computed with an independent lstsq fit."""
    n = values.shape[0]
    y = values[:, node] - values[:, node].mean()
    if parent_list:
        x = values[:, parent_list] - values[:, parent_list].mean(axis=0)
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ beta
    else:
        resid = y
    rss = float(resid @ resid)
    rss = max(rss, 1e-12 * max(float(y @ y), 1.0))
    return -0.5 * n * np.log(rss / n) - 0.5 * (len(parent_list) + 1) * np.log(n)


def test_local_bic_matches_lstsq_oracle():
    rng = np.random.default_rng(7)
    data = sample(random_scm(random_er_dag(5, 7, seed=1), seed=1), 300, seed=1)
    gram = centered_gram_of(data.values).tolist()
    cache = {}
    for _ in range(40):
        node = int(rng.integers(5))
        others = [k for k in range(5) if k != node]
        parent_list = sorted(
            rng.choice(others, size=int(rng.integers(0, 5)), replace=False).tolist()
        )
        mask = 0
        for p in parent_list:
            mask |= 1 << p
        got = kernels._local_bic(gram, data.n, node, mask, cache)
        assert float(got) == pytest.approx(oracle_local_bic(data.values, node, parent_list), rel=1e-9)


def test_local_bic_cache_returns_identical_value():
    data = sample(random_scm(random_er_dag(4, 5, seed=2), seed=2), 100, seed=2)
    gram = centered_gram_of(data.values).tolist()
    cache = {}
    first = kernels._local_bic(gram, data.n, 2, 0b1001, cache)
    second = kernels._local_bic(gram, data.n, 2, 0b1001, cache)
    assert float(first) == float(second)
    assert len(cache) >= 1


def _small_masks(node, columns):
    """Every one- and two-parent mask over `columns`, leaving out `node`."""
    others = [c for c in columns if c != node]
    return [1 << p for p in others] + [(1 << p) | (1 << q) for i, p in enumerate(others) for q in others[i + 1:]]


def score_corpus():
    """(gram, rows, n, node, mask) for d = 5..30, n in {d+2, d+5, 50, 200, 500} and
    0-8 parents, on data where column 1 copies column 0 exactly and column 2
    is column 3 plus noise of relative size 1e-9; rows is gram as lists.
    Each such gram also scores its last node on every one- and two-parent
    set of the first five columns.  Then two hand-built grams, scored on
    one- and two-parent sets: 8 rows where columns 0 to 4 are exact small
    integers (column 1 copies column 0, column 2 ties column 0's pivot,
    column 3 is orthogonal to both, column 4 is all zeros) and six more are
    Gaussian; and a gram whose node column is infinite, the one input where
    a zero elimination factor must skip its row update."""
    rng = np.random.default_rng(2025)
    for d in range(5, 31, 5):
        scm = random_scm(random_er_dag(d, 2 * d, seed=d), seed=d)
        for n in (d + 2, d + 5, 50, 200, 500):
            values = sample(scm, n, seed=n).values.copy()
            values[:, 1] = values[:, 0]
            values[:, 2] = values[:, 3] * (1.0 + 1e-9 * rng.normal(size=n))
            gram = centered_gram_of(values)
            rows = gram.tolist()
            for _ in range(40):
                node = int(rng.integers(d))
                others = [k for k in range(d) if k != node]
                size = int(rng.integers(0, min(8, d - 1) + 1))
                mask = 0
                for p in rng.choice(others, size=size, replace=False).tolist():
                    mask |= 1 << p
                yield gram, rows, n, node, mask
            for mask in _small_masks(d - 1, range(5)):
                yield gram, rows, n, d - 1, mask
    h1, h2, h3 = (np.resize(np.repeat([1.0, -1.0], w), 8) for w in (1, 2, 4))
    values = np.column_stack([h1, h1, h1 + 3.0 * h2, h3, np.zeros(8), rng.normal(size=(8, 6))])
    infinite = np.array([[1.0, 0.0, np.inf], [0.0, 1.0, 0.0], [np.inf, 0.0, 1.0]])
    for gram, nodes in ((centered_gram_of(values), range(values.shape[1])), (infinite, [2])):
        rows = gram.tolist()
        for node in nodes:
            for mask in _small_masks(node, range(len(rows))):
                yield gram, rows, 8, node, mask


def inline_branches(rows, node, mask):
    """The branches the inline one- and two-parent elimination of
    ``kernels._local_bic`` takes for a score, worked out from the gram;
    empty for other parent counts."""
    pa = [i for i in range(len(rows)) if mask >> i & 1]
    if len(pa) == 1:
        a = rows[pa[0]][pa[0]]
        return {"one parent", "tiny first pivot" if abs(a) <= abs(a) * 1e-13 else "solved"}
    if len(pa) != 2:
        return set()
    p, q = pa
    a00, a01, a10, a11 = rows[p][p], rows[p][q], rows[q][p], rows[q][q]
    tiny = max(abs(a00), abs(a01), abs(a10), abs(a11)) * 1e-13
    out = {"two parents"}
    if rows[p] == rows[q]:
        out.add("duplicate columns")
    elif abs(a10) == abs(a00):
        out.add("tied pivot")
    if abs(a10) > abs(a00):
        out.add("swap")
        a00, a01, a10, a11 = a10, a11, a00, a01
    else:
        out.add("no swap")
    if abs(a00) <= tiny:
        return out | {"tiny first pivot"}
    factor = a10 * (1.0 / a00)
    if factor == 0.0:
        out.add("zero factor")
    a11 = a11 - factor * a01
    out.add("tiny second pivot" if abs(a11) <= tiny else "solved")
    return out


def test_local_bic_matches_the_numpy_reference_bit_for_bit(monkeypatch):
    solved = []
    solve_multi = score_reference._solve_multi

    def recording(a, b):
        x, ok = solve_multi(a, b)
        solved.append(ok)
        return x, ok

    monkeypatch.setattr(score_reference, "_solve_multi", recording)
    for gram, rows, n, node, mask in score_corpus():
        got = kernels._local_bic(rows, n, node, mask, {})
        want = score_reference._local_bic(gram, n, node, mask, {})
        assert struct.pack("<d", got) == struct.pack("<d", want), (gram.shape[0], n, node, mask)
    # the corpus reaches the ridge retry
    assert False in solved


def test_the_score_corpus_reaches_every_inline_branch(monkeypatch):
    # a score the inline elimination solves never calls _solve; one whose
    # pivot fails hands off to it, and its ridge retry calls it again
    solves = []
    solve = kernels._solve

    def counting(a, b):
        solves.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(kernels, "_solve", counting)
    reached = {}
    for gram, rows, n, node, mask in score_corpus():
        branches = inline_branches(rows, node, mask)
        solves.clear()
        kernels._local_bic(rows, n, node, mask, {})
        if "solved" in branches:
            assert solves == [], (node, mask)
        elif branches:
            assert solves == [mask.bit_count()] * 2, (node, mask)
        for branch in branches:
            reached[branch] = reached.get(branch, 0) + 1
    assert set(reached) == {
        "one parent", "two parents", "solved", "no swap", "swap", "zero factor",
        "tiny first pivot", "tiny second pivot", "duplicate columns", "tied pivot",
    }, reached


# --- ATE sweep kernel ------------------------------------------------------


def test_sweep_kernel_zero_for_non_descendants():
    g = random_er_dag(5, 6, seed=4)
    data = sample(random_scm(g, seed=4), 200, seed=4)
    gram = centered_gram_of(data.values)
    stack = g.adjacency[None]
    closure = kernels.transitive_closure_batch(stack)
    out = kernels.ate_sweep_kernel(gram, stack, closure)
    for t in range(5):
        for y in range(5):
            if t != y and not closure[0, t, y]:
                assert out[0, t, y] == 0.0


def test_sweep_kernel_matches_direct_normal_equations():
    g = random_er_dag(5, 6, seed=5)
    data = sample(random_scm(g, seed=5), 400, seed=5)
    xc = data.values - data.values.mean(axis=0)
    gram = np.ascontiguousarray(xc.T @ xc)
    stack = g.adjacency[None]
    closure = kernels.transitive_closure_batch(stack)
    out = kernels.ate_sweep_kernel(gram, stack, closure)
    for t in range(5):
        for y in range(5):
            if t == y or not closure[0, t, y]:
                continue
            cols = [t] + sorted(set(np.flatnonzero(g.adjacency[:, t]).tolist()) - {y})
            beta, *_ = np.linalg.lstsq(xc[:, cols], xc[:, y], rcond=None)
            assert out[0, t, y] == pytest.approx(float(beta[0]), rel=1e-7, abs=1e-9)


def sweep_corpus():
    """(name, gram, stack) inputs on which the sweep kernel must equal the
    reference: MEC members, bootstrap-like bags that repeat DAGs, empty and
    full parent columns, a cycle (its closure has a true diagonal), d = 2 to
    50, each on full-rank and on rank-deficient data (the last column
    duplicates the first)."""
    for d, edges, seed in [(2, 1, 0), (6, 8, 1), (10, 15, 2), (50, 100, 3)]:
        g = random_er_dag(d, edges, seed=seed)
        values = sample(random_scm(g, seed=seed), 120, seed=seed).values
        singular = values.copy()
        singular[:, -1] = singular[:, 0]
        # node 0 has no parents in either; node d - 1 has all others in full
        full = np.triu(np.ones((d, d), dtype=bool), 1)
        pool = [g.adjacency, full, np.zeros((d, d), dtype=bool)]
        pool += [random_er_dag(d, edges, seed=100 * seed + k).adjacency for k in range(5)]
        rng = np.random.default_rng(seed)
        stacks = {
            "bag": np.stack([pool[i] for i in rng.integers(0, len(pool), 3 * len(pool))]),
            "cycle": np.stack([g.adjacency, np.roll(np.eye(d, dtype=bool), 1, axis=1)]),
        }
        if d <= 10:
            stacks["mec"] = np.stack([m.adjacency for m in enumerate_mec(g).members])
        for kind, stack in stacks.items():
            for rank, vals in (("full-rank", values), ("rank-deficient", singular)):
                yield f"d={d} {kind} {rank}", centered_gram_of(vals), stack


def test_sweep_kernel_matches_reference_bytes(monkeypatch):
    real_solve = np.linalg.solve
    failed = []

    def recording(a, b):
        try:
            return real_solve(a, b)
        except np.linalg.LinAlgError:
            failed.append(a.shape[0])
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    repeats = 0
    for name, gram, stack in sweep_corpus():
        closure = kernels.transitive_closure_batch(stack)
        got = kernels.ate_sweep_kernel(gram, stack, closure)
        want = ate_reference.ate_sweep_kernel(gram, stack, closure)
        assert got.tobytes() == want.tobytes(), name
        repeats += len(stack) - len(np.unique(stack, axis=0))
    # the corpus repeats DAGs and reaches the ridge retry
    assert repeats > 0
    assert failed


def test_sweep_kernel_nan_row_matches_reference(monkeypatch):
    _, gram, stack = next(c for c in sweep_corpus() if c[0] == "d=6 bag full-rank")
    closure = kernels.transitive_closure_batch(stack)
    # t = 3 with parents 0, 1, 2, as in the full DAG, where 4 and 5 descend from it
    monkeypatch.setattr(np.linalg, "solve", ate_reference.solve_failing_on([3, 0, 1, 2]))
    got = kernels.ate_sweep_kernel(gram, stack, closure)
    want = ate_reference.ate_sweep_kernel(gram, stack, closure)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).any()


def test_sweep_kernel_ridge_survives_singular_gram(caplog):
    # duplicated column makes the unregularized normal equations singular
    rng = np.random.default_rng(6)
    base = rng.normal(size=(30, 1))
    values = np.column_stack([base, base, rng.normal(size=(30, 1))])
    collider = np.zeros((3, 3), dtype=bool)
    collider[0, 2] = collider[1, 2] = True
    chain = np.zeros((3, 3), dtype=bool)
    chain[0, 1] = chain[1, 2] = True
    # (2, [0, 1]) is singular in the first DAG and (1, [0]) in the second
    stack = np.stack([collider, chain, collider, chain])
    closure = kernels.transitive_closure_batch(stack)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="atebench"):
        out = kernels.ate_sweep_kernel(centered_gram_of(values), stack, closure)
    assert np.all(np.isfinite(out[closure]))
    # one warning per distinct (treatment, parent set), in order of first appearance
    assert [r.getMessage() for r in caplog.records if r.name == "atebench.kernels"] == [
        "rank-deficient design for treatment=2 adjustment=[0, 1]; ridge fallback",
        "rank-deficient design for treatment=1 adjustment=[0]; ridge fallback",
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="atebench"):
        kernels.ate_sweep_kernel(centered_gram_of(rng.normal(size=(30, 3))), stack, closure)
    assert not caplog.records


# --- MCMC chain plumbing ---------------------------------------------------


def test_mcmc_chain_is_deterministic_in_its_inputs():
    data = sample(random_scm(random_er_dag(3, 3, seed=8), seed=8), 200, seed=8)
    gram = centered_gram_of(data.values)
    uniforms = np.random.default_rng(0).random((2000, 2))
    s1, a1 = kernels.mcmc_chain(gram, data.n, 2000, 500, 3, uniforms)
    s2, a2 = kernels.mcmc_chain(gram, data.n, 2000, 500, 3, uniforms)
    assert np.array_equal(s1, s2)
    assert a1 == a2


def test_mcmc_chain_sample_count_and_acyclicity():
    data = sample(random_scm(random_er_dag(4, 4, seed=9), seed=9), 150, seed=9)
    gram = centered_gram_of(data.values)
    steps, burn, thin = 3000, 1000, 4
    uniforms = np.random.default_rng(1).random((steps, 2))
    samples, accepted = kernels.mcmc_chain(gram, data.n, steps, burn, thin, uniforms)
    assert samples.shape == ((steps - burn) // thin, 4, 4)
    assert 0 < accepted <= steps
    for adj in samples:
        a = adj.astype(np.int64)
        p = a.copy()
        for _ in range(4):
            assert np.trace(p) == 0
            p = p @ a


def test_mcmc_chain_moves_between_graphs():
    data = sample(random_scm(random_er_dag(3, 3, seed=10), seed=10), 100, seed=10)
    gram = centered_gram_of(data.values)
    uniforms = np.random.default_rng(2).random((4000, 2))
    samples, _ = kernels.mcmc_chain(gram, data.n, 4000, 0, 1, uniforms)
    distinct = {s.tobytes() for s in samples}
    assert len(distinct) > 1


def test_mcmc_chain_rejects_misshapen_uniforms():
    gram = np.eye(3)
    with pytest.raises(ParameterError):
        kernels.mcmc_chain(gram, 100, 10, 0, 1, np.zeros((10, 3)))
    with pytest.raises(ParameterError):
        kernels.mcmc_chain(gram, 100, 10, 0, 1, np.zeros((9, 2)))


def test_mcmc_chain_rejects_node_counts_outside_1_to_50():
    for d in (0, 51):
        with pytest.raises(ParameterError):
            kernels.mcmc_chain(np.eye(d), 100, 10, 0, 1, np.zeros((10, 2)))


def move_test_graphs():
    rng = np.random.default_rng(12)
    for d in range(2, 21):
        full = d * (d - 1) // 2
        for edges in (d // 2, d, 2 * d):
            yield random_er_dag(d, min(edges, full), int(rng.integers(1 << 30))).adjacency
    for d in (2, 5, 12, 20):
        yield np.zeros((d, d), dtype=bool)
        # complete DAG along a random topological order
        yield random_er_dag(d, d * (d - 1) // 2, seed=d).adjacency


def test_bitmask_moves_match_the_loop_enumeration():
    for adj in move_test_graphs():
        d = adj.shape[0]
        reach = _reach(adj)
        ch = _rows(adj)
        desc, anc, rev = kernels._reachability(ch, _rows(adj.T))
        assert desc == _rows(reach) and anc == _rows(reach.T)
        assert rev == [sum(1 << j for j in range(d) if adj[i, j] and _reverse_ok(adj, i, j)) for i in range(d)]
        row_cum = kernels._row_cum(anc, rev)
        n_moves = _nth_move(adj, reach, -1)[0]
        assert row_cum[-1] == n_moves
        for pick in range(n_moves):
            assert kernels._pick(ch, anc, rev, row_cum, pick) == _nth_move(adj, reach, pick)[1:]


def chain_corpus():
    """(d, gram, n, steps, burn_in, thin, uniforms) for every d from 1 to 50,
    cycling through no burn-in, one kept sample and two thinning strides."""
    steps = 400
    variants = [(0, 1), (steps // 4, 3), (steps - 1, 1), (steps // 2, 7)]
    for d in range(1, 51):
        if d == 1:
            values = np.random.default_rng(1).normal(size=(200, 1))
        else:
            g = random_er_dag(d, min(d, d * (d - 1) // 2), seed=d)
            values = sample(random_scm(g, seed=d), 200, seed=d).values
        burn_in, thin = variants[d % len(variants)]
        uniforms = np.random.default_rng(d).random((steps, 2))
        yield d, centered_gram_of(values), 200, steps, burn_in, thin, uniforms


def test_mcmc_chain_matches_the_numpy_chain_for_every_d(monkeypatch):
    # the numpy chain's picks say which update each proposal needs: an add,
    # a delete of an edge another path doubles (no reachability changes),
    # or a recompute (any other delete, and every reversal)
    paths = {"add": 0, "unchanged": 0, "recompute": 0}
    pick_move = mcmc_reference._pick_move

    def classify(adj, cum, pick):
        kind, i, j = pick_move(adj, cum, pick)
        cell = i * adj.shape[0] + j
        if kind == 0:
            paths["add"] += 1
        elif kind == 1 and cum[cell] - cum[cell - 1] == 1:
            paths["unchanged"] += 1
        else:
            paths["recompute"] += 1
        return kind, i, j

    recomputes = []
    reachability = kernels._reachability

    def counting(ch, pa):
        recomputes.append(len(ch))
        return reachability(ch, pa)

    monkeypatch.setattr(mcmc_reference, "_pick_move", classify)
    monkeypatch.setattr(kernels, "_reachability", counting)
    for d, gram, n, steps, burn_in, thin, uniforms in chain_corpus():
        samples, accepted = kernels.mcmc_chain(gram, n, steps, burn_in, thin, uniforms)
        ref_samples, ref_accepted = mcmc_reference.numpy_chain(gram, n, steps, burn_in, thin, uniforms)
        assert accepted == ref_accepted, d
        assert samples.dtype == ref_samples.dtype and samples.shape == ref_samples.shape, d
        assert np.array_equal(samples, ref_samples), d
    assert min(paths.values()) > 0, paths
    assert len(recomputes) == paths["recompute"]


@pytest.mark.parametrize("d,steps", [(3, 3000), (8, 1500), (10, 1000), (20, 200)])
def test_mcmc_chain_matches_the_loop_reference(d, steps):
    data = sample(random_scm(random_er_dag(d, d, seed=d), seed=d), 300, seed=d)
    gram = centered_gram_of(data.values)
    uniforms = np.random.default_rng(d).random((steps, 2))
    burn_in, thin = steps // 4, 3
    samples, accepted = kernels.mcmc_chain(gram, data.n, steps, burn_in, thin, uniforms)
    ref_samples, ref_accepted = reference_chain(gram, data.n, steps, burn_in, thin, uniforms)
    assert accepted > 0
    assert accepted == ref_accepted
    assert samples.shape == ref_samples.shape == ((steps - burn_in) // thin, d, d)
    assert np.array_equal(samples, ref_samples)
