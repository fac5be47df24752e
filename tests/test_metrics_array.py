"""The one array pass over every pair of a seed against the per-pair
reference: equal bits, never approximately equal numbers."""

import tracemalloc

import numpy as np

import metrics_reference as ref
from atebench.ate import AteAtoms, sweep
from atebench.discovery import uniform_posterior
from atebench.mec import enumerate_mec
from atebench.metrics import (
    ModeTable,
    PairTable,
    RegroupConfig,
    evaluate_pair_sets,
    read_modes_csv,
    read_pair_reports_csv,
    relaxation_rows,
    write_modes_csv,
    write_pair_reports_csv,
)
from atebench.scm import random_er_dag, random_scm, sample

# 0.2 is the mass of 2 equal atoms out of 10; 0.5 and 0.99 empty most sides
GRID = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 0.99)

# x, y, z: three consecutive floats.  With atol between one and two ulps, x
# and y group and z starts a new group, but these weights put the first
# group's weighted mean on z's own representative, so the groups merge.
_X = 1.0
_Y = float(np.nextafter(_X, 2.0))
_Z = float(np.nextafter(_Y, 2.0))
MERGE_CFG = RegroupConfig(rtol=0.0, atol=1.5 * (_Y - _X))
MERGE_VALUES, MERGE_WEIGHTS = [_Z, _X, _Y], [10 / 29, 4 / 29, 15 / 29]


def _uniform(values):
    values = np.asarray(values, dtype=float)
    return values, np.full(values.size, 1.0 / values.size)


def _corpus(rng):
    """(true, learned) (values, weights) of pairs that each pin one edge of
    the array pass, then random pairs around shared atoms."""
    near = 1.25 * (1 + 1e-7)  # within the default rtol of 1.25
    yield _uniform([1.25, near, -0.5]), _uniform([near, 1.25, 1.25, 3.0])
    yield _uniform([0.0, 2.0, 2.0]), _uniform([2.0, 0.0, -0.0, 7.5])
    # merged grids of 7, 8, 9 and 17 points: numpy's pairwise sum of the WD
    # terms changes its grouping at 8 terms
    for nx, ny in ((3, 4), (4, 4), (4, 5), (8, 9)):
        yield _uniform(rng.normal(size=nx)), _uniform(rng.normal(size=ny))
    # a mode whose mass sits exactly on a grid tolerance
    yield _uniform([0.3] * 2 + list(range(8))), _uniform([0.3, 0.3, 1.0, 2.0, 3.0])
    yield (MERGE_VALUES, MERGE_WEIGHTS), (MERGE_VALUES, MERGE_WEIGHTS)
    # a side whose every mode falls below a high filter tolerance
    yield _uniform([0.0, 1.0, 2.0]), _uniform([0.0])
    atoms = np.round(rng.normal(scale=2.0, size=6), 2)
    for _ in range(40):
        sides = []
        for _ in range(2):
            k = int(rng.integers(1, 12))
            v = rng.choice(atoms, size=k) * (1 + rng.choice([0.0, 1e-7, 1e-3], size=k))
            w = rng.dirichlet(np.ones(k)) if rng.random() < 0.5 else np.full(k, 1.0 / k)
            sides.append((v, w))
        yield tuple(sides)


def _sample_sets(seed, d=8):
    """The corpus as the true and learned AteAtoms of a d-node sweep, cycling
    over its pairs."""
    corpus = list(_corpus(np.random.default_rng(seed)))
    pairs = ref.ordered_pairs(d)
    labels = [f"X{i}" for i in range(d)]
    return tuple(ref.atoms_of(labels, {q: corpus[p % len(corpus)][side] for p, q in enumerate(pairs)}, tag)
                 for side, tag in ((0, "t"), (1, "l")))


def _same_bits(a, b):
    """Equal shapes, dtypes and bytes: NaN where the other has NaN."""
    return (a.shape, a.dtype) == (b.shape, b.dtype) and a.tobytes() == b.tobytes()


def _assert_same_table(table, want):
    """Two PairTables, or two ModeTables, hold the same bits."""
    assert type(table) is type(want)
    for name in type(table).__slots__:
        assert _same_bits(getattr(table, name), getattr(want, name)), name


def _assert_identical(got, want):
    (scores, modes), (ref_reports, ref_modes) = got, want
    assert len(scores) == len(ref_reports) == len(modes) == len(ref_modes)
    _assert_same_table(scores, ref.pair_table_of(ref_reports))
    _assert_same_table(modes, ref.table_of(ref_modes))


def test_the_corpus_reaches_each_edge():
    # the defensive merge: two anchor groups, one mode
    ms = ref.regroup_sorted(np.array([_X, _Y, _Z]), np.array([4 / 29, 15 / 29, 10 / 29]), MERGE_CFG)
    assert _Z - _X > MERGE_CFG.atol and len(ms) == 1
    assert ref.pass_modes(MERGE_VALUES, MERGE_WEIGHTS, MERGE_CFG) == ms
    # the mass on the grid: 2 of 10 uniform atoms weigh 0.2 exactly
    true_pair = list(_corpus(np.random.default_rng(0)))[6][0]
    assert ref.regroup_sorted(*map(np.sort, true_pair), RegroupConfig()).masses[1] == 0.2


def test_evaluation_equals_the_per_pair_reference_bit_for_bit():
    for seed in range(3):
        true_sets, learned_sets = _sample_sets(seed)
        for cfg in (RegroupConfig(), MERGE_CFG, RegroupConfig(rtol=1e-3, atol=1e-2)):
            for tol in (0.0, 0.05, 0.2, 0.5, 0.99):
                _assert_identical(
                    evaluate_pair_sets(true_sets, learned_sets, cfg, tol),
                    ref.one_pass_evaluate_pair_sets(true_sets, learned_sets, cfg, tol),
                )


def test_evaluation_of_sweep_atoms_equals_the_per_pair_reference():
    true_atoms, learned_atoms = _sample_sets(7, d=9)
    got = evaluate_pair_sets(true_atoms, learned_atoms, RegroupConfig(), 0.2)
    assert len(got[0]) == 72
    _assert_identical(got, ref.one_pass_evaluate_pair_sets(true_atoms, learned_atoms, RegroupConfig(), 0.2))


def test_relaxation_rows_equal_the_per_pair_reference(tmp_path):
    cfg = RegroupConfig()
    tables, lists = {}, {}
    for seed in range(3):
        true_sets, learned_sets = _sample_sets(seed)
        _, tables[seed] = evaluate_pair_sets(true_sets, learned_sets, cfg)
        _, lists[seed] = ref.one_pass_evaluate_pair_sets(true_sets, learned_sets, cfg)
    want = ref.one_pass_relaxation_rows(lists, GRID, cfg)
    assert relaxation_rows(tables, GRID, cfg) == want
    assert relaxation_rows({s: ref.table_of(modes) for s, modes in lists.items()}, GRID, cfg) == want
    assert relaxation_rows({0: tables[0]}, GRID, cfg) == ref.one_pass_relaxation_rows({0: lists[0]}, GRID, cfg)
    # and through the modes file, as the report stage reads them
    labels = [f"X{i}" for i in range(8)]
    back = {}
    for seed, table in tables.items():
        path = tmp_path / f"modes{seed}.csv"
        write_modes_csv(table, labels, "t", "l", path)
        back[seed] = read_modes_csv(path, labels, "t", "l")
        assert isinstance(back[seed], ModeTable)
        _assert_same_table(back[seed], table)
    assert relaxation_rows(back, GRID, cfg) == want


def test_one_wide_pair_evaluates_in_memory_linear_in_its_atoms():
    # 5,000 distinct atoms on each side of one pair, one atom on every other:
    # a (pairs x atoms^2) layout, or one pair's full closeness matrix of
    # floats (200 MB), exceeds the bound by far; the pass peaks near 14 MB
    rng = np.random.default_rng(3)
    d, wide = 10, 5_000
    lengths = np.ones(d * (d - 1), dtype=np.int64)
    lengths[17] = wide
    offsets = np.concatenate([[0], np.cumsum(lengths)])

    def atoms(tag):
        v = rng.normal(size=offsets[-1])
        v[offsets[17]:offsets[18]] = rng.permutation(wide)
        w = np.ones(offsets[-1])
        w[offsets[17]:offsets[18]] = 1.0 / wide
        return AteAtoms([f"X{i}" for i in range(d)], v, w, offsets, tag)

    true_atoms, learned_atoms = atoms("true-mec"), atoms("m")
    tracemalloc.start()
    try:
        scores, modes = evaluate_pair_sets(true_atoms, learned_atoms, RegroupConfig())
        rows = relaxation_rows({0: modes})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scores) == d * (d - 1) and len(rows) == 6
    assert np.diff(modes.offsets)[34:36].tolist() == [wide, wide]
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def test_tables_survive_their_files_at_a_contrast_with_undefined_cells(tmp_path):
    # a 1.7 contrast, and a filter tolerance that leaves some pairs without
    # a kept mode on one side, so their filtered rates are undefined
    g = random_er_dag(5, 5, seed=4)
    data = sample(random_scm(g, seed=4), 60, seed=4)
    bag = uniform_posterior([random_er_dag(5, 5, seed=s) for s in range(7)], "m", seed=0)
    true_atoms = sweep(enumerate_mec(g), data, treatment_value_b=1.7)
    scores, modes = evaluate_pair_sets(true_atoms, sweep(bag, data, treatment_value_b=1.7),
                                       RegroupConfig(), filter_tolerance=0.6)
    undefined = np.isnan(scores.rates)
    assert undefined[:, 2:].any() and not undefined.all()
    labels = true_atoms.labels
    write_pair_reports_csv(scores, labels, tmp_path / "pairs.csv")
    write_modes_csv(modes, labels, "true-mec", "m", tmp_path / "modes.csv")
    back = read_pair_reports_csv(tmp_path / "pairs.csv", labels)
    assert isinstance(back, PairTable)
    _assert_same_table(back, scores)
    assert np.array_equal(np.isnan(back.rates), undefined)
    _assert_same_table(read_modes_csv(tmp_path / "modes.csv", labels, "true-mec", "m"), modes)
