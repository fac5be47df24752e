"""Mode metrics: the array pass, on single pairs and on the relaxation
table, against the per-tolerance loops of ``metrics_reference``."""

import numpy as np
import pytest

import metrics_reference as ref
from atebench.ate import AteQuery, AteSampleSet
from atebench.errors import ParameterError
from atebench.metrics import DEFAULT_FILTER_GRID, RegroupConfig, evaluate_pair_sets, relaxation_rows
from metrics_reference import ModeSet, PairModes
from metrics_reference import pass_modes as regroup
from metrics_reference import pass_precision_recall as mode_precision_recall

CONFIGS = (RegroupConfig(), RegroupConfig(rtol=1e-3, atol=1e-2), RegroupConfig(rtol=0.0, atol=1.0))
# 0 keeps every mode; 0.5 and 0.99 make most pairs lose a whole side
GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.99)


def evaluate_pair(true_set, learned_set, cfg, filter_tolerance):
    """The array pass on a single pair."""
    return ref.evaluate_one((true_set.values, true_set.weights), (learned_set.values, learned_set.weights),
                            cfg, filter_tolerance)


def _reach(x, cfg):
    """The closeness bound around x: atol + rtol * |x|."""
    return cfg.atol + cfg.rtol * abs(x)


def _near_ties(anchors, cfg, rng):
    """Values at, just inside and just past the closeness bound of each anchor."""
    out = []
    for a in anchors:
        b = a + _reach(a, cfg)
        out += [a, b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), a - _reach(a, cfg)]
    return rng.permutation(np.asarray(out))


def _masses(rng, k):
    """k positive masses summing to 1 (within ModeSet's 1e-9), some of them
    exactly equal to a grid tolerance."""
    exact = [t for t in GRID[1:6] if rng.random() < 0.3][: max(k - 1, 0)]
    m = rng.dirichlet(np.ones(k))
    if exact and 1.0 - sum(exact) > 0:
        rest = m[len(exact):]
        m = np.concatenate([exact, rest * (1.0 - sum(exact)) / rest.sum()])
        m = rng.permutation(m)
    return m


def _mode_set(values, rng):
    reps = np.unique(values)
    return ModeSet(reps, _masses(rng, reps.size))


def _pair_corpus(seed):
    """Pairs of ModeSets with 1..60 modes per side, negative values, shared and
    near-tied representatives."""
    rng = np.random.default_rng(seed)
    for cfg in CONFIGS:
        for k in (1, 2, 3, 5, 8, 13, 21, 34, 60):
            t = rng.uniform(-4.0, 4.0, size=k)
            shared = rng.choice(t, size=rng.integers(0, k + 1), replace=False)
            kinds = [
                np.concatenate([shared, rng.uniform(-4.0, 4.0, size=rng.integers(0, k + 1))]),
                _near_ties(shared, cfg, rng)[:60],
                t + rng.choice([-1.0, 0.0, 1.0], size=k) * np.array([_reach(x, cfg) for x in t]),
            ]
            for lv in kinds:
                if lv.size == 0:
                    lv = rng.uniform(-4.0, 4.0, size=1)
                yield cfg, _mode_set(t, rng), _mode_set(lv[:60], rng)


def _sample_corpus(seed):
    """AteSampleSets of up to 500 values around a few atoms, with near ties at
    the closeness bound, negative atoms, and the adversarial spacing."""
    rng = np.random.default_rng(seed)
    for cfg in CONFIGS:
        for m in (1, 2, 7, 40, 500):
            for spread in ("atoms", "ties", "adversarial"):
                sets = []
                for _ in range(2):
                    if spread == "adversarial":
                        base = np.array([0.0, 0.99, 1.01, 1.02]) * cfg.atol
                        v = rng.choice(base, size=m)
                    elif spread == "ties":
                        atoms = rng.uniform(-3.0, 3.0, size=rng.integers(1, 6))
                        v = rng.choice(_near_ties(atoms, cfg, rng), size=m)
                    else:
                        atoms = np.round(rng.normal(scale=2.0, size=rng.integers(1, 12)), 3)
                        v = rng.choice(atoms, size=m)
                    w = rng.dirichlet(np.ones(m)) if rng.random() < 0.5 else np.full(m, 1.0 / m)
                    sets.append(AteSampleSet(AteQuery(0, 1), v, w, "x"))
                yield cfg, sets[0], sets[1]


def _same_modes(a, b):
    return a.representatives.tobytes() == b.representatives.tobytes() and (
        a.masses.tobytes() == b.masses.tobytes()
    )


def test_regroup_matches_the_anchor_loop():
    for cfg, true_set, learned_set in _sample_corpus(3):
        for s in (true_set, learned_set):
            assert _same_modes(regroup(s.values, s.weights, cfg), ref.regroup(s.values, s.weights, cfg))
    cfg = RegroupConfig(rtol=0.0, atol=1.0)
    values, weights = [0.0, 0.99, 1.01, 1.02], [0.01, 0.49, 0.49, 0.01]
    assert _same_modes(regroup(values, weights, cfg), ref.regroup(values, weights, cfg))


@pytest.mark.parametrize("filter_tolerance", [0.0, 0.05, 0.3, 0.99])
def test_evaluate_pair_matches_the_filter_then_match_reference(filter_tolerance):
    for cfg, true_set, learned_set in _sample_corpus(5):
        got, got_modes = evaluate_pair(true_set, learned_set, cfg, filter_tolerance)
        want, want_modes = ref.evaluate_pair(true_set, learned_set, cfg, filter_tolerance)
        for field in ("query", "wd", "precision", "recall", "filtered_precision", "filtered_recall"):
            assert getattr(got, field) == getattr(want, field), field
            assert type(getattr(got, field)) is type(getattr(want, field)), field
        assert got.mode_counts == want.mode_counts
        assert all(type(c) is int for c in got.mode_counts)
        assert _same_modes(got_modes.true_modes, want_modes.true_modes)
        assert _same_modes(got_modes.learned_modes, want_modes.learned_modes)


def test_mode_precision_recall_matches_the_reference():
    for cfg, tm, lm in _pair_corpus(7):
        for a, b in ((tm, lm), (lm, tm), (tm, ModeSet([], [])), (ModeSet([], []), lm)):
            assert mode_precision_recall(a, b, cfg) == ref.mode_precision_recall(a, b, cfg)


@pytest.mark.parametrize("grid", [GRID, DEFAULT_FILTER_GRID, (0.0,), ()])
def test_relaxation_rows_match_the_reference(grid):
    for cfg in CONFIGS:
        pairs = [PairModes(AteQuery(0, 1), tm, lm) for c, tm, lm in _pair_corpus(11) if c is cfg]
        for by_seed in ({0: pairs}, {0: pairs[::3], 2: pairs[1::3], 1: pairs[2::3]}):
            tables = {seed: ref.table_of(p) for seed, p in by_seed.items()}
            assert relaxation_rows(tables, grid, cfg) == ref.relaxation_rows(by_seed, grid, cfg)


def test_relaxation_rows_of_evaluated_pairs_match_the_reference():
    cfg = RegroupConfig()
    labels = [f"X{i}" for i in range(8)]  # 56 pairs hold the corpus's 45
    tables = {}
    for seed in range(3):
        samples = list(_sample_corpus(20 + seed))
        corpus = list(zip(ref.ordered_pairs(len(labels)), samples))
        assert len(corpus) == len(samples)
        true_atoms, learned_atoms = (
            ref.atoms_of(labels, {q: (s[side].values, s[side].weights) for q, s in corpus}, tag)
            for side, tag in ((1, "t"), (2, "l"))
        )
        _, tables[seed] = evaluate_pair_sets(true_atoms, learned_atoms, cfg)
    by_seed = {seed: ref.pairs_of(table) for seed, table in tables.items()}
    assert relaxation_rows(tables, GRID, cfg) == ref.relaxation_rows(by_seed, GRID, cfg)


def test_relaxation_rows_validate_the_grid_without_pairs():
    with pytest.raises(ParameterError):
        relaxation_rows({0: ref.table_of([])}, grid=(1.5,))
    with pytest.raises(ParameterError):
        relaxation_rows({}, grid=(0.0, -0.1))


def test_evaluate_pair_validates_the_filter_tolerance():
    s = AteSampleSet(AteQuery(0, 1), [0.0, 1.0], [0.5, 0.5], "t")
    with pytest.raises(ParameterError):
        evaluate_pair(s, s, RegroupConfig(), filter_tolerance=1.0)
