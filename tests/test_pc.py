"""Stable PC: the array skeleton against the per-test reference loop."""

import importlib
import logging
import re
import tracemalloc

import numpy as np
import pytest

from atebench.discovery import bootstrap
from atebench.discovery.citest import CiTestConfig, FisherZTester
from atebench.errors import AteBenchError, DegenerateDataError, SampleSizeError
from atebench.scm import Dataset, default_labels, random_er_dag, random_scm, sample

from pc_reference import ReferenceFisherZ, reference_skeleton

# the package re-exports the function under the submodule's name
pc_module = importlib.import_module("atebench.discovery.pc")

CONDITION_SIZES = (None, 0, 1, 2)


def _corpus(d):
    """ER(d, e) data for e in {d/2, d, 2d} and n in {d+2, 100, 500}, each
    with two bootstrap resamples of its rows."""
    max_edges = d * (d - 1) // 2
    for edges in sorted({min(max(d // 2, 1), max_edges), min(d, max_edges), min(2 * d, max_edges)}):
        scm = random_scm(random_er_dag(d, edges, seed=1000 * d + edges), seed=edges)
        for n in (d + 2, 100, 500):
            data = sample(scm, n, seed=n + d)
            yield f"d={d} e={edges} n={n}", data
            rng = np.random.default_rng(n * d + edges)
            for k in range(2):
                rows = rng.integers(0, n, size=n)
                yield f"d={d} e={edges} n={n} resample {k}", Dataset(
                    data.values[rows], data.column_labels
                )


def _assert_same_skeleton(tester, reference, cfg, case):
    """The stacked skeleton on `tester` matches the reference loop on
    `reference` (a tester over the same correlations), errors included."""
    d = tester.corr.shape[0]
    try:
        expected_adj, expected_sepsets = reference_skeleton(reference, d, cfg)
    except (AteBenchError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            pc_module._skeleton(tester, d, cfg)
        return exc
    adj, sepsets = pc_module._skeleton(tester, d, cfg)
    assert np.array_equal(adj, expected_adj), case
    assert sepsets == expected_sepsets, case
    assert tester.tests_run == reference.tests_run, case
    return None


def _pc_line(caplog):
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pc:")]
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("d", [2, 5, 10, 20, 30])
def test_skeleton_matches_the_reference_loop(d, caplog, monkeypatch):
    for case, data in _corpus(d):
        for size in CONDITION_SIZES:
            cfg = CiTestConfig(0.05, size)
            at = f"{case} max_condition_size={size}"
            if _assert_same_skeleton(
                FisherZTester(data, cfg.alpha), ReferenceFisherZ(data, cfg.alpha), cfg, at
            ):
                continue
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="atebench.discovery.pc"):
                got = pc_module.pc(data, cfg)
                line = _pc_line(caplog)
                caplog.clear()
                with monkeypatch.context() as m:
                    m.setattr(pc_module, "FisherZTester", ReferenceFisherZ)
                    m.setattr(pc_module, "_skeleton", reference_skeleton)
                    expected = pc_module.pc(data, cfg)
                assert _pc_line(caplog) == line, at
            assert np.array_equal(got.directed, expected.directed), at
            assert np.array_equal(got.undirected, expected.undirected), at


def _dense_data():
    # ER(30, 90) at n=2000: PC removes edges given sets of 4
    return sample(random_scm(random_er_dag(30, 90, seed=0), seed=0), 2000, seed=0)


def test_skeleton_blocks_do_not_change_the_result(monkeypatch):
    # chunks of one test, and chunks that split a pair's or a side's sets,
    # decide the same, up to the dense case's sets of 4
    sparse = sample(random_scm(random_er_dag(12, 24, seed=3), seed=3), 300, seed=3)
    dense, cfg = _dense_data(), CiTestConfig()
    default = pc_module._STACK_ENTRIES
    for data in (sparse, dense):
        for entries in (1, 40, 300, default):
            monkeypatch.setattr(pc_module, "_STACK_ENTRIES", entries)
            _assert_same_skeleton(FisherZTester(data, 0.05), ReferenceFisherZ(data, 0.05), cfg,
                                  f"d={data.d} entries={entries}")
    _, sepsets = pc_module._skeleton(FisherZTester(dense, 0.05), dense.d, cfg)
    assert max(map(len, sepsets.values())) >= 4


def test_side_repeats_are_counted_but_not_computed(monkeypatch):
    # a side-(j, i) set that is also a side-(i, j) set is the same test: the
    # scan counts it when it gets there, but no stack computes it again
    data = _dense_data()
    d = data.d
    rows = []
    original = FisherZTester.partial_correlations

    def counting(self, pairs, conds):
        rows.append(len(pairs))
        return original(self, pairs, conds)

    monkeypatch.setattr(FisherZTester, "partial_correlations", counting)
    tester = FisherZTester(data, 0.05)
    cfg = CiTestConfig(0.05, 0)
    assert _assert_same_skeleton(tester, ReferenceFisherZ(data, 0.05), cfg, "level 0") is None
    # one empty set a pair is computed, and counted again for a dependent pair
    assert rows == [d * (d - 1) // 2] and rows[0] < tester.tests_run
    # level 1 computes each distinct (i, j | {k}) once
    level0, _ = reference_skeleton(ReferenceFisherZ(data, 0.05), d, cfg)
    distinct = sum(len(set(np.flatnonzero(level0[i] | level0[j]).tolist()) - {i, j})
                   for i, j in np.argwhere(np.triu(level0)).tolist())
    rows.clear()
    cfg = CiTestConfig(0.05, 1)
    assert _assert_same_skeleton(FisherZTester(data, 0.05), ReferenceFisherZ(data, 0.05), cfg,
                                 "level 1") is None
    assert rows == [d * (d - 1) // 2, distinct]
    # with one row a chunk, every computed row is one the scan reaches: a
    # chunk skips the rows of a pair that stopped in an earlier chunk
    rows.clear()
    monkeypatch.setattr(pc_module, "_STACK_ENTRIES", 1)
    tester, cfg = FisherZTester(data, 0.05), CiTestConfig(0.05, 2)
    assert _assert_same_skeleton(tester, ReferenceFisherZ(data, 0.05), cfg, "one row") is None
    assert max(rows) == 1 and sum(rows) < tester.tests_run


def test_a_level_is_listed_one_chunk_at_a_time(monkeypatch):
    # all 30 variables correlate 0.5, so at n=100 every test up to |cond|=2 is
    # dependent and every listed row is reached: level 2 lists 435 * 2 *
    # comb(28, 2) = 328,860 rows, 2.6 MB for one index array of the level
    d = 30
    tester, _ = _with_corr(np.full((d, d), 0.5) + 0.5 * np.eye(d))
    monkeypatch.setattr(pc_module, "_STACK_ENTRIES", 1 << 12)
    tracemalloc.start()
    try:
        adj, sepsets = pc_module._skeleton(tester, d, CiTestConfig(0.05, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adj.sum() == d * (d - 1) and not sepsets
    assert tester.tests_run == d * (d - 1) * (1 + (d - 2) + (d - 2) * (d - 3) // 2)
    # chunks of 4096 // 16 = 256 rows: every array of the level stays small
    assert peak < 1 << 20


def test_sample_size_error_is_raised_at_the_first_level_that_needs_more_rows():
    # a large alpha keeps enough edges for PC to reach |cond|=3 with n=6
    data = sample(random_scm(random_er_dag(8, 20, seed=0), seed=0), 6, seed=0)
    cfg = CiTestConfig(alpha=0.9)
    exc = _assert_same_skeleton(FisherZTester(data, 0.9), ReferenceFisherZ(data, 0.9), cfg, "n=6")
    assert isinstance(exc, SampleSizeError)
    assert str(exc) == "need n > 6 for |cond|=3, got n=6"


def _with_corr(corr):
    """A tester pair (stacked, reference) over a hand-set correlation matrix."""
    corr = np.array(corr, dtype=float)
    d = corr.shape[0]
    data = Dataset(np.random.default_rng(0).normal(size=(100, d)), default_labels(d))
    testers = FisherZTester(data, 0.05), ReferenceFisherZ(data, 0.05)
    for t in testers:
        t.corr = corr.copy()
    return testers


def test_perfect_correlation_counts_as_dependence():
    # |r| == 1 is maximal dependence, not a domain error of atanh
    signs = np.array([1.0, 1.0, -1.0])
    for size, error in ((0, None), (None, DegenerateDataError)):
        tester, reference = _with_corr(np.outer(signs, signs))
        exc = _assert_same_skeleton(tester, reference, CiTestConfig(0.05, size), f"size={size}")
        if error is None:
            assert exc is None and tester.tests_run == 6
        else:
            assert isinstance(exc, error)


# variables 1, 2, 3 span a plane, so the submatrix on {1, 2, 3} is singular
# exactly: these dyadic entries leave a zero pivot.  At n=100 the 2-3
# correlation tests independent, so only (1, 2 | 3) and (1, 3 | 2) meet it.
_PLANE = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.75, 0.75],
    [0.0, 0.75, 1.0, 0.125],
    [0.0, 0.75, 0.125, 1.0],
])


def _singular_level_one_stack(tester):
    with pytest.raises(np.linalg.LinAlgError):
        tester.partial_correlations(np.array([[1, 2]]), np.array([[3]]))


def test_a_reached_singular_submatrix_raises_as_before():
    tester, reference = _with_corr(_PLANE)
    _singular_level_one_stack(tester)
    exc = _assert_same_skeleton(tester, reference, CiTestConfig(), "reached")
    assert isinstance(exc, DegenerateDataError)
    assert str(exc) == "singular correlation submatrix for (1, 2 | [3])"


def test_a_zero_precision_product_raises_a_typed_error():
    # 1 and 2 correlate perfectly, so the submatrix on {0, 1, 2} is indefinite
    # (determinant -0.25) and the cofactor of its entry (0, 0), 1 - 1 * 1, is
    # zero: the precision product for (0, 1 | 2) is a zero.  The dyadic
    # entries keep the elimination exact, so the zero does not depend on
    # rounding.  Its r used to be infinite, read as dependence; now the test
    # fails typed, so bootstrap redraws the resample
    tester, reference = _with_corr([[1.0, -0.5, 0.0], [-0.5, 1.0, 1.0], [0.0, 1.0, 1.0]])
    prec = np.linalg.inv(tester.corr)
    assert prec[0, 0] * prec[1, 1] == 0
    with pytest.raises(ValueError, match="^math domain error$"):
        tester.partial_correlations(np.array([[0, 1]]), np.array([[2]]))
    with pytest.raises(ValueError, match="^math domain error$"):
        reference_skeleton(reference, 3, CiTestConfig())
    message = "indefinite correlation submatrix for (0, 1 | [2])"
    with pytest.raises(DegenerateDataError, match=f"^{re.escape(message)}$"):
        pc_module._skeleton(tester, 3, CiTestConfig())
    assert tester.tests_run == reference.tests_run == 6


def test_an_unreached_singular_submatrix_does_not_raise(monkeypatch):
    # variable 0 sits close to 1 and explains 1-2 and 1-3, so those pairs stop
    # at |cond|=1 on {0} before their singular set {3} resp. {2}
    corr = _PLANE.copy()
    corr[0, 1:] = corr[1:, 0] = (0.99, 0.7425, 0.7425)
    tester, reference = _with_corr(corr)
    _singular_level_one_stack(tester)
    calls = []
    original = FisherZTester.independent

    def counting(self, i, j, cond):
        calls.append((i, j, tuple(cond)))
        return original(self, i, j, cond)

    monkeypatch.setattr(FisherZTester, "independent", counting)
    assert _assert_same_skeleton(tester, reference, CiTestConfig(), "unreached") is None
    # the level that held the singular matrix was rerun test by test
    assert (1, 2, (0,)) in calls and (1, 2, (3,)) not in calls


def test_a_negative_precision_product_raises_a_typed_error_where_the_reference_fails():
    # a resample (d=10, n=12) with fewer distinct rows than columns: one
    # reached submatrix is so near singular that its inverse has diagonal
    # entries of both signs; the reference's math.sqrt refuses their product
    rng = np.random.default_rng(188)
    d = int(rng.integers(6, 16))
    n = d + int(rng.integers(2, 6))
    data = sample(random_scm(random_er_dag(d, 2 * d, seed=188), seed=188), n, seed=188)
    data = Dataset(data.values[rng.integers(0, n, size=n)], data.column_labels)
    cfg = CiTestConfig(alpha=0.5)
    reference = ReferenceFisherZ(data, 0.5)
    calls = []
    reference_test = reference.independent

    def recording(i, j, cond):
        calls.append((i, j, sorted(cond)))
        return reference_test(i, j, cond)

    reference.independent = recording
    with pytest.raises(ValueError, match="^math domain error$"):
        reference_skeleton(reference, d, cfg)
    i, j, cond = calls[-1]
    tester = FisherZTester(data, 0.5)
    message = f"indefinite correlation submatrix for ({i}, {j} | {cond})"
    with pytest.raises(DegenerateDataError, match=f"^{re.escape(message)}$"):
        pc_module._skeleton(tester, d, cfg)
    assert tester.tests_run == reference.tests_run


def test_an_unreached_negative_precision_product_does_not_raise(monkeypatch):
    # a hand-set, not positive definite matrix: a level's stack holds a
    # submatrix whose precision diagonal has both signs, but no pair reaches it
    tester, reference = _with_corr([
        [1.0, 0.5, 0.5, -0.25, 0.25],
        [0.5, 1.0, 0.125, 0.375, 0.0],
        [0.5, 0.125, 1.0, -0.25, 0.75],
        [-0.25, 0.375, -0.25, 1.0, 0.5],
        [0.25, 0.0, 0.75, 0.5, 1.0],
    ])
    refused = []
    original = FisherZTester.partial_correlations

    def spying(self, pairs, conds):
        try:
            return original(self, pairs, conds)
        except ValueError:
            refused.append(len(pairs))
            raise

    monkeypatch.setattr(FisherZTester, "partial_correlations", spying)
    assert _assert_same_skeleton(tester, reference, CiTestConfig(), "unreached") is None
    assert any(size > 1 for size in refused)


def test_bootstrap_redraws_singular_resamples_as_before(monkeypatch, caplog):
    # column 5 copies column 4 except in row 0: every resample without row 0
    # makes a singular submatrix that PC reaches
    data = sample(random_scm(random_er_dag(6, 8, seed=1), seed=1), 30, seed=1)
    values = data.values.copy()
    values[:, 5] = values[:, 4]
    values[0, 5] += 1.0
    data = Dataset(values, data.column_labels)

    def run():
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="atebench"):
            posterior = bootstrap(data, "pc", num_replicates=8, seed=1)
        return posterior, [r.getMessage() for r in caplog.records]

    got, messages = run()
    with monkeypatch.context() as m:
        m.setattr(pc_module, "FisherZTester", ReferenceFisherZ)
        m.setattr(pc_module, "_skeleton", reference_skeleton)
        expected, expected_messages = run()
    assert messages == expected_messages
    assert any("redrawn: singular correlation submatrix" in msg for msg in messages)
    assert [g.adjacency.tobytes() for g in got.dags] == [
        g.adjacency.tobytes() for g in expected.dags
    ]
