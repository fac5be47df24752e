"""GES: the per-target, memoised search against the re-enumerating reference."""

import importlib
import logging
import re

import numpy as np
import pytest

from atebench import kernels
from atebench.discovery import bootstrap
from atebench.discovery.ges import _backward_target, _candidates, _forward_target, ges
from atebench.errors import DegenerateDataError, ExtensionError
from atebench.graphs import _rows
from atebench.scm import Dataset, random_er_dag, random_scm, sample

from ges_reference import reference_ges


def _logged_moves(caplog) -> list[int]:
    # the counter perfbench reads: the integer after `moves=` on a `ges:` line
    return [
        int(re.search(r"\bmoves=(\d+)", r.getMessage()).group(1))
        for r in caplog.records
        if r.getMessage().startswith("ges:")
    ]


def _corpus(d):
    """ER(d, e) data for e in {d/2, d, 2d} and n in {d+2, 200, 500}, each
    with one bootstrap resample of its rows."""
    max_edges = d * (d - 1) // 2
    for edges in sorted({min(max(d // 2, 1), max_edges), min(d, max_edges), min(2 * d, max_edges)}):
        g = random_er_dag(d, edges, seed=1000 * d + edges)
        scm = random_scm(g, seed=edges)
        for n in (d + 2, 200, 500):
            data = sample(scm, n, seed=n + d)
            yield f"d={d} e={edges} n={n}", data
            rows = np.random.default_rng(n * d + edges).integers(0, n, size=n)
            yield f"d={d} e={edges} n={n} resample", Dataset(
                data.values[rows], data.column_labels
            )


def _assert_same_cpdag(a, b, case):
    assert np.array_equal(a.directed, b.directed), case
    assert np.array_equal(a.undirected, b.undirected), case


@pytest.mark.parametrize("d", [2, 5, 10, 15, 20])
def test_ges_matches_the_reference_search(d, caplog):
    for case, data in _corpus(d):
        memos = {"forward": {}, "backward": {}}
        states = []

        def visit(phase, D, U, score, candidates):
            # the memo carries across states exactly as it does inside ges()
            target = _forward_target if phase == "forward" else _backward_target
            un, pa = _rows(U), _rows(D.T)
            adj = _rows(D | D.T | U)
            found = _candidates(target, memos[phase], un, pa, adj, score)
            assert found == candidates, (case, phase, len(states))
            states.append(phase)

        try:
            expected, expected_moves = reference_ges(data, visit)
        except DegenerateDataError:
            with pytest.raises(DegenerateDataError):
                ges(data)
            continue
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="atebench.discovery.ges"):
            got = ges(data)
        _assert_same_cpdag(got, expected, case)
        assert _logged_moves(caplog) == [expected_moves], case
        assert "forward" in states and "backward" in states, case


def test_ges_scores_through_the_kernel_and_logs_its_moves(monkeypatch, caplog):
    g = random_er_dag(8, 10, seed=4)
    data = sample(random_scm(g, seed=4), 300, seed=4)
    expected = ges(data)
    calls = []
    original = kernels._local_bic

    def counting(gram, n_rows, node, mask, cache):
        calls.append((node, mask))
        return original(gram, n_rows, node, mask, cache)

    monkeypatch.setattr(kernels, "_local_bic", counting)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="atebench"):
        got = ges(data)
    assert len(calls) > 0
    _assert_same_cpdag(got, expected, "traced")
    moves = _logged_moves(caplog)
    assert len(moves) == 1 and moves[0] > 0


def test_a_move_without_an_extension_fails_loudly(monkeypatch):
    # a valid insert or delete always leaves an extendable PDAG, so a failed
    # extension is a bug: it names the move, and the bootstrap does not
    # redraw it away as a bad resample
    ges_module = importlib.import_module("atebench.discovery.ges")
    extend, apply_delete = ges_module._extend, ges_module._apply_delete
    data = sample(random_scm(random_er_dag(6, 8, seed=11), seed=11), 100, seed=11)

    def raising(*args):
        raise ExtensionError("no consistent extension exists")

    monkeypatch.setattr(ges_module, "_extend", raising)
    with pytest.raises(AssertionError, match=r"^insert x=\d+ y=\d+ T=\(.*\) left no consistent extension$"):
        ges(data)
    with pytest.raises(AssertionError, match=r"^insert x=\d+ y=\d+ T="):
        bootstrap(data, method="ges", num_replicates=2, seed=0)
    # this dataset's search deletes x4 -> x1 after its inserts
    deleting = []

    def delete(*args):
        deleting.append(args[3:6])
        monkeypatch.setattr(ges_module, "_extend", raising)
        return apply_delete(*args)

    monkeypatch.setattr(ges_module, "_extend", extend)
    monkeypatch.setattr(ges_module, "_apply_delete", delete)
    with pytest.raises(AssertionError, match=r"^delete x=4 y=1 H=\(\) left no consistent extension$"):
        ges(data)
    assert deleting == [(4, 1, ())]
