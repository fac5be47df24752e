"""The int-bitmask PDAG core against the dense reference it replaced."""

import inspect
import itertools
import textwrap

import numpy as np
import pytest

import graphs_reference as ref
from atebench import graphs
from atebench.errors import ExtensionError, MecCapacityError, OrientationConflictError
from atebench.graphs import (
    Dag,
    _dense,
    _extend,
    _meek,
    _rows,
    _transpose,
    consistent_extension,
    topological_order,
    v_structures,
)
from atebench.mec import enumerate_mec
from atebench.scm import random_er_dag

from graph_helpers import cpdag_of, meek_close


def _er_dags(ds, seeds=range(3)):
    """ER DAGs with d/2, d and 2d edges (capped at the complete graph)."""
    for d in ds:
        max_edges = d * (d - 1) // 2
        for edges in sorted({min(max(d // 2, 1), max_edges), min(d, max_edges), min(2 * d, max_edges)}):
            for s in seeds:
                yield f"d={d} e={edges} s={s}", random_er_dag(d, edges, seed=10_000 * d + 100 * edges + s)


def _random_pdags(count, seed, d_range=(3, 14)):
    """PDAGs from random orientations of random skeletons: each skeleton
    edge is directed with a per-graph probability, either way with equal
    odds, and undirected otherwise."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        d = int(rng.integers(*d_range))
        skeleton = np.triu(rng.random((d, d)) < rng.uniform(0.15, 0.9), 1)
        p_directed = rng.uniform(0.02, 0.9)
        r = rng.random((d, d))
        forward = skeleton & (r < p_directed / 2)
        backward = skeleton & (r >= p_directed / 2) & (r < p_directed)
        undirected = skeleton & (r >= p_directed)
        yield f"case={case} d={d}", forward | backward.T, undirected | undirected.T


def _mask_extend(directed, undirected, order):
    ch = _rows(directed)
    return _dense(_extend(ch, _rows(directed.T), _rows(undirected), order))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OrientationConflictError, ExtensionError, MecCapacityError) as exc:
        return type(exc).__name__, str(exc)


def test_cpdag_of_matches_the_reference_on_er_dags():
    for case, g in _er_dags(range(2, 21)):
        got, want = cpdag_of(g), ref.cpdag_of(g)
        assert np.array_equal(got.directed, want.directed), case
        assert np.array_equal(got.undirected, want.undirected), case
        assert v_structures(g) == ref.v_structures(g), case
        assert topological_order(g.adjacency) == ref.topological_order(g.adjacency), case


@pytest.mark.parametrize("policy", ["raise", "skip"])
def test_meek_close_matches_the_reference_on_random_pdags(policy):
    conflicts = raised = 0
    for case, directed, undirected in _random_pdags(3000, seed=7):
        got = _outcome(meek_close, directed, undirected, policy)
        want = _outcome(ref._meek_close, directed, undirected, policy)
        if isinstance(want[0], str):
            assert got == want, case
            raised += 1
            continue
        assert np.array_equal(got[0], want[0]), case
        assert np.array_equal(got[1], want[1]), case
        assert got[2] == want[2], case
        conflicts += want[2]
    # the corpus reaches the order-sensitive paths: raises under "raise",
    # counted conflicts under "skip"
    assert (raised if policy == "raise" else conflicts) > 0


def test_extension_matches_the_reference_under_seeded_scan_orders():
    pdags = list(_random_pdags(300, seed=11))
    pdags += [(case, p.directed, p.undirected)
              for case, p in ((case, cpdag_of(g)) for case, g in _er_dags(range(2, 16), seeds=[0]))]
    rng = np.random.default_rng(3)
    raised = extended = 0
    for case, directed, undirected in pdags:
        for _ in range(3):
            order = rng.permutation(directed.shape[0]).tolist()
            got = _outcome(_mask_extend, directed, undirected, order)
            want = _outcome(ref._extend_pdag, directed, undirected, order)
            if isinstance(want, tuple):
                assert got == want, case
                raised += 1
            else:
                assert np.array_equal(got, want), case
                extended += 1
    assert raised > 0 and extended > 0


def test_consistent_extension_matches_the_reference_construction():
    for case, g in _er_dags(range(2, 13), seeds=[1]):
        p = cpdag_of(g)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(p.num_nodes).tolist()
            want = Dag(p.labels, ref._extend_pdag(p.directed, p.undirected, order))
            assert consistent_extension(p, seed=seed) == want, case


def test_enumerate_mec_matches_the_reference_members_in_order():
    sizes = []
    for case, g in _er_dags(range(2, 11), seeds=[0, 1]):
        got, want = _outcome(enumerate_mec, g, 2000), _outcome(ref.enumerate_mec, g, 2000)
        if isinstance(want, tuple):
            assert got == want, case
            continue
        assert cpdag_of(g) == want.cpdag, case
        assert [m.adjacency.tobytes() for m in got.members] == [
            m.adjacency.tobytes() for m in want.members
        ], case
        sizes.append(len(got))
    assert max(sizes) > 50


def test_the_mask_core_is_exact_past_64_nodes():
    g = random_er_dag(70, 140, seed=70)
    p, want = cpdag_of(g), ref.cpdag_of(g)
    assert p == want
    assert v_structures(g) == ref.v_structures(g)
    assert topological_order(g.adjacency) == ref.topological_order(g.adjacency)
    order = np.random.default_rng(70).permutation(70).tolist()
    assert np.array_equal(
        _mask_extend(p.directed, p.undirected, order),
        ref._extend_pdag(p.directed, p.undirected, order),
    )
    assert [m.adjacency.tobytes() for m in enumerate_mec(g, cap=5000).members] == [
        m.adjacency.tobytes() for m in ref.enumerate_mec(g, cap=5000).members
    ]
    _, directed, undirected = next(_random_pdags(1, seed=70, d_range=(70, 71)))
    got = meek_close(directed, undirected, "skip")
    want = ref._meek_close(directed, undirected, "skip")
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2])) and got[2] == want[2]


def _meek_copy(old, new):
    """``graphs._meek`` with one fragment of its source replaced."""
    src = textwrap.dedent(inspect.getsource(graphs._meek))
    assert src.count(old) == 1, old
    scope = {}
    exec(src.replace(old, new), dict(vars(graphs)), scope)
    return scope["_meek"]


def _every_pdag(d):
    """(ch, un) masks of every PDAG on d nodes: each pair absent, directed
    either way or undirected."""
    pairs = list(itertools.combinations(range(d), 2))
    for states in itertools.product(range(4), repeat=len(pairs)):
        ch, un = [0] * d, [0] * d
        for (i, j), state in zip(pairs, states):
            if state == 1:
                ch[i] |= 1 << j
            elif state == 2:
                ch[j] |= 1 << i
            elif state == 3:
                un[i] |= 1 << j
                un[j] |= 1 << i
        yield ch, un


def test_meek_r3_and_r4_read_live_or_sweep_start_masks_alike_up_to_5_nodes():
    # R3 may read un[a] and R4 pa[b] live or as they were when the sweep
    # began: no PDAG on at most 4 nodes (here) or 5 nodes (checked once, all
    # 4**10 of them) tells the readings apart, under either conflict policy
    variants = [
        _meek_copy("for b in _bits(un[a]):\n                cands = un[a] & pa[b]",
                   "for b in _bits(un0[a]):\n                cands = un0[a] & pa[b]"),
        _meek_copy("if any(ch[c] & pa[b] for", "if any(ch[c] & pa0[b] for"),
    ]

    def outcome(meek, ch, un, policy):
        ch, un = ch[:], un[:]
        pa = _transpose(ch)
        try:
            conflicts = meek(ch, pa, un, policy)
        except OrientationConflictError as exc:
            return str(exc)
        return ch, pa, un, conflicts

    # copies without R3 or without R4: each must differ somewhere, so the
    # corpus does reach both rules
    without = [
        _meek_copy("cands = un[a] & pa[b]", "cands = 0"),
        _meek_copy("if any(ch[c] & pa[b] for", "if False and any(ch[c] & pa[b] for"),
    ]
    raised = conflicts = 0
    reached = [0, 0]
    for d in range(2, 5):
        for ch, un in _every_pdag(d):
            for policy in ("skip", "raise"):
                want = outcome(_meek, ch, un, policy)
                for variant in variants:
                    assert outcome(variant, ch, un, policy) == want, (d, ch, un, policy)
                if isinstance(want, str):
                    raised += 1
                else:
                    conflicts += want[3]
                for k, mutant in enumerate(without):
                    reached[k] += outcome(mutant, ch, un, policy) != want
    assert raised and conflicts and all(reached)
