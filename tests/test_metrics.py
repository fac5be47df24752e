import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from atebench.ate import AteAtoms, AteQuery, AteSampleSet
from atebench.errors import AggregationError, ParameterError, SchemaError
from atebench.metrics import (
    PAIR_REPORT_HEADER,
    PairTable,
    RegroupConfig,
    RunReport,
    aggregate,
    evaluate_pair_sets,
    read_modes_csv,
    read_pair_reports_csv,
    relaxation_rows,
    write_modes_csv,
    write_pair_reports_csv,
    write_run_report_csv,
)

from conftest import random_weighted_sample
from metrics_reference import (
    ModeCounts,
    ModeSet,
    PairModes,
    atoms_of,
    evaluate_one,
    pairs_of,
    pass_precision_recall,
    reports_of,
    table_of,
)
from metrics_reference import filter_low_mass as reference_filter_low_mass
from metrics_reference import one_pass_evaluate_pair as reference_evaluate_pair
from metrics_reference import one_pass_mode_precision_recall as reference_precision_recall
from metrics_reference import pass_modes as regroup
from metrics_reference import pass_wd as wasserstein_1d

# the package's array matcher on one pair, and the per-pair reference
MODE_PRECISION_RECALL = (pass_precision_recall, reference_precision_recall)


def sample_set(values, weights=None, tag="t", q=None):
    q = q or AteQuery(0, 1)
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.full(values.size, 1.0 / values.size)
    return AteSampleSet(q, values, weights, tag)


# --- Wasserstein distance --------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_wd_symmetry_identity_translation(seed):
    rng = np.random.default_rng(seed)
    x = random_weighted_sample(rng)
    y = random_weighted_sample(rng)
    c = float(rng.normal() * 3)
    assert wasserstein_1d(x, y) == pytest.approx(wasserstein_1d(y, x), abs=1e-12)
    assert wasserstein_1d(x, x) <= 1e-12
    shifted = (x[0] + c, x[1])
    assert wasserstein_1d(shifted, x) == pytest.approx(abs(c), abs=1e-10)


def test_wd_matches_scipy_on_uneven_sizes():
    rng = np.random.default_rng(5)
    x = random_weighted_sample(rng, size=3)
    y = random_weighted_sample(rng, size=11)
    expected = stats.wasserstein_distance(x[0], y[0], x[1], y[1])
    assert wasserstein_1d(x, y) == pytest.approx(expected, abs=1e-12)


def test_wd_rejects_bad_weights():
    with pytest.raises(ParameterError):
        wasserstein_1d(([1.0], [0.5]), ([1.0], [1.0]))


# --- regrouping ------------------------------------------------------------


def test_regroup_merges_float_noise_into_one_mode():
    cfg = RegroupConfig()
    ms = regroup([1.000000001, 1.0], [0.5, 0.5], cfg)
    assert len(ms) == 1
    assert ms.masses[0] == pytest.approx(1.0)
    assert ms.representatives[0] == pytest.approx(1.0000000005)


def test_regroup_keeps_distinct_values_apart():
    cfg = RegroupConfig()
    ms = regroup([0.0, 1.0, -2.0, 1.0], [0.25] * 4, cfg)
    assert ms.modes == [(-2.0, 0.25), (0.0, 0.25), (1.0, 0.5)]


def test_regroup_representative_is_weighted_mean():
    cfg = RegroupConfig(rtol=0.0, atol=0.5)
    ms = regroup([0.0, 0.2], [0.75, 0.25], cfg)
    assert len(ms) == 1
    assert ms.representatives[0] == pytest.approx(0.05)


def test_regroup_is_not_idempotent_on_adversarial_spacing():
    # two groups split at the anchor boundary, but their weighted means land
    # within tolerance of each other; grouping is defined as single-pass over
    # the raw values, this pins that choice
    cfg = RegroupConfig(rtol=0.0, atol=1.0)
    values = [0.0, 0.99, 1.01, 1.02]
    weights = [0.01, 0.49, 0.49, 0.01]
    ms = regroup(values, weights, cfg)
    assert len(ms) == 2
    again = regroup(ms.representatives, ms.masses, cfg)
    assert len(again) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_regroup_idempotent_when_groups_are_well_separated(seed):
    rng = np.random.default_rng(seed)
    cfg = RegroupConfig(rtol=0.0, atol=0.1)
    centers = np.cumsum(rng.uniform(1.0, 2.0, size=4))
    values = np.concatenate([c + rng.uniform(-0.04, 0.04, size=3) for c in centers])
    weights = np.full(values.size, 1.0 / values.size)
    ms = regroup(values, weights, cfg)
    again = regroup(ms.representatives, ms.masses, cfg)
    assert len(ms) == 4
    assert again == ms


def test_regroup_masses_sum_to_one():
    rng = np.random.default_rng(9)
    v, w = random_weighted_sample(rng, size=30)
    ms = regroup(v, w, RegroupConfig())
    assert ms.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(ms.representatives) > 0)


def test_regroup_config_validation():
    with pytest.raises(ParameterError):
        RegroupConfig(rtol=0.0, atol=0.0)
    with pytest.raises(ParameterError):
        RegroupConfig(rtol=-1e-3)


# --- mode precision and recall --------------------------------------------


def test_precision_recall_exact_match():
    cfg = RegroupConfig()
    ms = ModeSet([0.0, 1.0], [0.5, 0.5])
    for mode_precision_recall in MODE_PRECISION_RECALL:
        p, r, counts = mode_precision_recall(ms, ms, cfg)
        assert p == 1.0 and r == 1.0
        assert counts == ModeCounts(2, 2, 2, 0, 0)


def test_precision_recall_spurious_learned_mode():
    cfg = RegroupConfig()
    true = ModeSet([0.0, 1.0], [0.5, 0.5])
    learned = ModeSet([0.0, 1.0, 7.0], [0.4, 0.4, 0.2])
    for mode_precision_recall in MODE_PRECISION_RECALL:
        p, r, counts = mode_precision_recall(true, learned, cfg)
        assert p == pytest.approx(2 / 3)
        assert r == 1.0
        assert counts == ModeCounts(2, 3, 2, 1, 0)


def test_precision_recall_missed_true_mode():
    cfg = RegroupConfig()
    true = ModeSet([0.0, 1.0, 2.0], [0.4, 0.3, 0.3])
    learned = ModeSet([1.0], [1.0])
    for mode_precision_recall in MODE_PRECISION_RECALL:
        p, r, counts = mode_precision_recall(true, learned, cfg)
        assert p == 1.0
        assert r == pytest.approx(1 / 3)
        assert counts.fn == 2


def test_precision_recall_empty_sides_are_undefined():
    cfg = RegroupConfig()
    empty = ModeSet([], [])
    full = ModeSet([1.0], [1.0])
    for mode_precision_recall in MODE_PRECISION_RECALL:
        p, r, _ = mode_precision_recall(empty, full, cfg)
        assert p == 0.0 and r is None
        p, r, _ = mode_precision_recall(full, empty, cfg)
        assert p is None and r == 0.0


def test_precision_recall_uses_reference_side_tolerances():
    # closeness is |a - b| <= atol + rtol|b| with b the reference; with pure
    # rtol a zero reference accepts nothing
    cfg = RegroupConfig(rtol=2.0, atol=0.0)
    true = ModeSet([0.0], [1.0])
    learned = ModeSet([0.2], [1.0])
    for mode_precision_recall in MODE_PRECISION_RECALL:
        p, r, counts = mode_precision_recall(true, learned, cfg)
        # recall references the learned value: |0 - 0.2| <= 2 * 0.2, found;
        # the learned mode references the true value: |0.2 - 0| > 2 * 0, so it
        # still counts as spurious and dilutes precision to tp / (tp + fp)
        assert r == 1.0
        assert counts == ModeCounts(1, 1, 1, 1, 0)
        assert p == 0.5


# --- low-mass filtering ----------------------------------------------------
# The package filters by counting the modes of mass >= tolerance; only the
# reference builds the renormalized filtered ModeSet.


def test_filter_drops_and_renormalizes():
    ms = ModeSet([0.0, 1.0, 2.0], [0.9, 0.06, 0.04])
    out = reference_filter_low_mass(ms, 0.05)
    assert out.modes == [(0.0, pytest.approx(0.9 / 0.96)), (1.0, pytest.approx(0.06 / 0.96))]
    p, r, counts = pass_precision_recall(ms, ms, RegroupConfig(), tolerance=0.05)
    assert counts == ModeCounts(2, 2, 2, 0, 0)
    assert p == r == 1.0


def test_filter_all_below_gives_empty_sentinel():
    ms = ModeSet([0.0, 1.0], [0.5, 0.5])
    out = reference_filter_low_mass(ms, 0.9)
    assert out.is_empty
    p, r, counts = pass_precision_recall(ms, ms, RegroupConfig(), tolerance=0.9)
    assert counts == ModeCounts(0, 0, 0, 0, 0)
    assert p is None and r is None


def test_filter_zero_tolerance_is_identity():
    ms = ModeSet([0.0, 1.0], [0.5, 0.5])
    assert reference_filter_low_mass(ms, 0.0) == ms
    other = ModeSet([1.0, 3.0], [0.25, 0.75])
    assert pass_precision_recall(ms, other, RegroupConfig(), tolerance=0.0) == pass_precision_recall(
        ms, other, RegroupConfig()
    )


def test_filter_validates_tolerance():
    ms = ModeSet([0.0], [1.0])
    with pytest.raises(ParameterError):
        reference_filter_low_mass(ms, 1.0)
    with pytest.raises(ParameterError):
        pass_precision_recall(ms, ms, RegroupConfig(), tolerance=1.0)


# --- pair evaluation -------------------------------------------------------


def test_evaluate_pair_identical_sets():
    ss = sample_set([0.5, 1.5, 0.5], [0.25, 0.5, 0.25])
    for report, pm in (reference_evaluate_pair(ss, ss, RegroupConfig()),
                       evaluate_one((ss.values, ss.weights), (ss.values, ss.weights))):
        assert report.wd <= 1e-12
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.filtered_precision == 1.0 and report.filtered_recall == 1.0
        assert pm.true_modes == pm.learned_modes


def test_evaluate_pair_filtering_rescues_precision():
    true = sample_set([0.0, 1.0], [0.5, 0.5])
    learned = sample_set([0.0, 1.0, 9.0], [0.495, 0.495, 0.01])
    for report in (reference_evaluate_pair(true, learned, RegroupConfig(), filter_tolerance=0.05)[0],
                   evaluate_one((true.values, true.weights), (learned.values, learned.weights),
                                filter_tolerance=0.05)[0]):
        assert report.precision == pytest.approx(2 / 3)
        assert report.filtered_precision == 1.0
        assert report.recall == 1.0 and report.filtered_recall == 1.0


def test_evaluate_pair_mismatched_queries_raise():
    # the reference checks the queries of two sample sets; the package
    # checks that two sweeps answer the same contrast
    a = sample_set([0.0], q=AteQuery(0, 1))
    b = sample_set([0.0], q=AteQuery(1, 0))
    with pytest.raises(ParameterError):
        reference_evaluate_pair(a, b, RegroupConfig())
    sweep = atoms_of(("X0", "X1"), {})
    other = AteAtoms(sweep.labels, sweep.atom_values, sweep.atom_weights, sweep.offsets, "l",
                     reference_value_a=0.5)
    with pytest.raises(AggregationError):
        evaluate_pair_sets(sweep, other, RegroupConfig())


def test_evaluate_pair_sets_requires_same_pairs():
    a = atoms_of(("X0", "X1"), {})
    b = atoms_of(("X0", "X1", "X2"), {})
    with pytest.raises(AggregationError):
        evaluate_pair_sets(a, b, RegroupConfig())
    other_contrast = AteAtoms(a.labels, a.atom_values, a.atom_weights, a.offsets, "x", treatment_value_b=2.0)
    with pytest.raises(AggregationError):
        evaluate_pair_sets(a, other_contrast, RegroupConfig())
    # as many pairs, but pair p names other nodes
    reordered = atoms_of(("X1", "X0"), {})
    with pytest.raises(AggregationError):
        evaluate_pair_sets(a, reordered, RegroupConfig())


def test_evaluate_pair_sets_orders_by_pair():
    sets = atoms_of(("X0", "X1"), {(1, 0): ([1.0], [1.0]), (0, 1): ([0.0], [1.0])})
    scores, modes = evaluate_pair_sets(sets, sets, RegroupConfig())
    assert scores.pairs.tolist() == [[0, 1], [1, 0]]
    assert modes.pairs.tolist() == scores.pairs.tolist()
    assert modes.representatives.tolist() == [0.0, 0.0, 1.0, 1.0]


# --- aggregation -----------------------------------------------------------


def table_of_scores(*rows):
    """A PairTable of (t, y, wd, precision, recall) rows, NaN for None; the
    filtered rates repeat the plain ones."""
    rates = [[np.nan if x is None else x for x in (p, r, p, r)] for _, _, _, p, r in rows]
    return PairTable([row[:2] for row in rows], [row[2] for row in rows], rates, [[1, 1, 1, 0, 0]] * len(rows))


def test_single_seed_aggregation_uses_pair_spread():
    s = aggregate({0: table_of_scores((0, 1, 0.2, 1.0, 0.5), (1, 0, 0.4, 0.5, 1.0))}, "m")
    assert s.wd_mean == pytest.approx(0.3)
    assert s.wd_se == pytest.approx(np.std([0.2, 0.4], ddof=1))
    assert s.precision_mean == pytest.approx(0.75)
    assert s.num_seeds == 1 and s.num_pairs == 2


def test_multi_seed_aggregation_uses_standard_error_of_seed_means():
    by_seed = {
        0: table_of_scores((0, 1, 0.2, 1.0, 1.0), (1, 0, 0.4, 1.0, 1.0)),
        1: table_of_scores((1, 0, 0.8, 0.0, 1.0), (0, 1, 0.6, 0.0, 1.0)),
    }
    s = aggregate(by_seed, "m")
    means = [0.3, 0.7]
    assert s.wd_mean == pytest.approx(0.5)
    assert s.wd_se == pytest.approx(np.std(means, ddof=1) / np.sqrt(2))
    assert s.precision_mean == pytest.approx(0.5)


def test_aggregation_excludes_none_metrics_and_counts_them():
    s = aggregate({0: table_of_scores((0, 1, 0.2, None, 1.0), (1, 0, 0.4, 0.5, 1.0))}, "m")
    assert s.precision_mean == pytest.approx(0.5)
    assert s.excluded["precision"] == 1
    assert s.excluded["wd"] == 0


def test_aggregation_rejects_mismatched_pair_sets():
    with pytest.raises(AggregationError):
        aggregate({0: table_of_scores((0, 1, 0.1, 1, 1)), 1: table_of_scores((1, 0, 0.1, 1, 1))}, "m")


def test_run_report_requires_rows():
    with pytest.raises(AggregationError):
        RunReport([])


# --- relaxation table ------------------------------------------------------


def test_relaxation_rows_track_the_filtering_grid():
    true = ModeSet([0.0, 1.0], [0.5, 0.5])
    learned = ModeSet([0.0, 1.0, 9.0], [0.495, 0.495, 0.01])
    pm = PairModes(AteQuery(0, 1), true, learned)
    rows = relaxation_rows({0: table_of([pm])}, grid=(0.0, 0.05))
    assert rows[0]["tolerance"] == 0.0
    assert rows[0]["precision_mean"] == pytest.approx(2 / 3)
    assert rows[1]["tolerance"] == 0.05
    assert rows[1]["precision_mean"] == 1.0
    assert rows[0]["recall_mean"] == rows[1]["recall_mean"] == 1.0


def test_relaxation_marks_filtered_out_pairs_excluded():
    pm = PairModes(AteQuery(0, 1), ModeSet([0.0], [1.0]), ModeSet([1.0], [1.0]))
    skinny = PairModes(
        AteQuery(1, 0),
        ModeSet([0.0, 1.0], [0.97, 0.03]),
        ModeSet([0.0, 1.0], [0.03, 0.97]),
    )
    rows = relaxation_rows({0: table_of([pm, skinny])}, grid=(0.5,))
    assert rows[0]["excluded_pairs"] == 0
    rows = relaxation_rows({0: table_of([skinny])}, grid=(0.98,))
    assert rows[0]["excluded_pairs"] == 1
    assert rows[0]["precision_mean"] is None


# --- CSV round trips -------------------------------------------------------


def test_pair_reports_csv_round_trip(tmp_path):
    labels = ("X0", "X1")
    table = PairTable([(0, 1), (1, 0)], [0.25, 0.0], [[2 / 3, 1.0, np.nan, np.nan], [1.0] * 4],
                      [[2, 3, 2, 1, 0], [1, 1, 1, 0, 0]])
    path = tmp_path / "pairs.csv"
    write_pair_reports_csv(table, labels, path)
    assert path.read_text().splitlines()[1] == "X0,X1,0.25,0.6666666666666666,1.0,,,2,3,2,1,0"
    back = read_pair_reports_csv(path, labels)
    assert len(back) == 2
    for name in PairTable.__slots__:
        assert getattr(back, name).tobytes() == getattr(table, name).tobytes(), name
    a, b = reports_of(table)
    assert (a.query, a.filtered_precision, a.mode_counts) == (AteQuery(0, 1), None, ModeCounts(2, 3, 2, 1, 0))
    assert (b.query, b.filtered_precision) == (AteQuery(1, 0), 1.0)


def test_modes_csv_round_trip(tmp_path):
    labels = ("X0", "X1")
    pm = PairModes(
        AteQuery(0, 1),
        ModeSet([0.0, 2.0], [0.75, 0.25]),
        ModeSet([0.5], [1.0]),
    )
    path = tmp_path / "modes.csv"
    write_modes_csv(table_of([pm]), labels, "true-mec", "m", path)
    back = read_modes_csv(path, labels, "true-mec", "m")
    assert len(back) == 1
    (got,) = pairs_of(back)
    assert got.query == pm.query
    assert got.true_modes == pm.true_modes
    assert got.learned_modes == pm.learned_modes


def test_modes_csv_rejects_a_foreign_source_tag(tmp_path):
    labels = ("X0", "X1")
    pm = PairModes(AteQuery(0, 1), ModeSet([0.0], [1.0]), ModeSet([0.5], [1.0]))
    path = tmp_path / "modes.csv"
    write_modes_csv(table_of([pm]), labels, "true-mec", "m1", path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("X0,X1,m2,0.5,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_modes_csv(path, labels, "true-mec", "m1")
    assert f"{path}:4: unexpected source tag 'm2'" in str(err.value)
    with pytest.raises(SchemaError) as err:
        read_modes_csv(path, labels, "true-mec", "m2")
    assert f"{path}:3: unexpected source tag 'm1'" in str(err.value)


def test_modes_csv_names_the_file_and_pair_of_a_bad_mode_set(tmp_path):
    path = tmp_path / "modes.csv"
    header = "treatment,outcome,source_tag,mode_value,mass\n"
    path.write_text(header + "X0,X1,true-mec,0.0,0.5\nX0,X1,m,0.5,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_modes_csv(path, ("X0", "X1"), "true-mec", "m")
    assert str(err.value).startswith(f"{path}: pair (X0, X1): masses must sum to 1")
    path.write_text(header + "X1,X0,m,2.0,0.5\nX1,X0,m,1.0,0.5\nX1,X0,true-mec,0.0,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_modes_csv(path, ("X0", "X1"), "true-mec", "m")
    assert str(err.value) == f"{path}: pair (X1, X0): representatives must be strictly increasing"
    # every evaluated pair has modes on both sides
    path.write_text(header + "X0,X1,m,0.5,1.0\nX1,X0,true-mec,0.0,1.0\nX1,X0,m,0.5,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_modes_csv(path, ("X0", "X1"), "true-mec", "m")
    assert str(err.value) == f"{path}: pair (X0, X1): no true-mec modes"
    path.write_text(header + "X0,X1,true-mec,0.0,1.0\nX0,X1,m,0.5,1.0\nX1,X0,true-mec,0.0,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_modes_csv(path, ("X0", "X1"), "true-mec", "m")
    assert str(err.value) == f"{path}: pair (X1, X0): no m modes"


def test_modes_csv_names_the_file_and_pair_of_a_nonpositive_mass(tmp_path):
    path = tmp_path / "modes.csv"
    header = "treatment,outcome,source_tag,mode_value,mass\n"
    good = "X0,X1,true-mec,0.0,1.0\nX0,X1,m,0.5,1.0\nX1,X0,true-mec,0.0,1.0\n"
    for low, high in (("0.0", "1.0"), ("-0.5", "1.5")):
        path.write_text(header + good + f"X1,X0,m,0.5,{low}\nX1,X0,m,1.5,{high}\n")
        with pytest.raises(SchemaError) as err:
            read_modes_csv(path, ("X0", "X1"), "true-mec", "m")
        assert str(err.value) == f"{path}: pair (X1, X0): masses must be strictly positive"


def test_pair_reports_csv_names_the_line_of_a_self_pair(tmp_path):
    labels = ("X0", "X1")
    table = PairTable([(0, 1)] * 2, [0.25] * 2, [[1.0, 1.0, np.nan, np.nan]] * 2, [[1, 1, 1, 0, 0]] * 2)
    path = tmp_path / "pairs.csv"
    write_pair_reports_csv(table, labels, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace("X0,X1,", "X1,X1,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as err:
        read_pair_reports_csv(path, labels)
    assert str(err.value) == f"{path}:{len(lines)}: treatment and outcome must differ"


def test_report_files_refuse_non_finite_cells(tmp_path):
    # an empty cell is the one mark of an undefined rate
    labels = ("X0", "X1")
    path = tmp_path / "pairs.csv"
    header = ",".join(PAIR_REPORT_HEADER) + "\n"
    for row in ("X0,X1,nan,1.0,1.0,,,1,1,1,0,0", "X0,X1,0.5,inf,1.0,,,1,1,1,0,0", "X0,X1,0.5,1.0,1.0,nan,,1,1,1,0,0"):
        path.write_text(header + "X1,X0,0.5,1.0,1.0,1.0,1.0,1,1,1,0,0\n" + row + "\n")
        with pytest.raises(SchemaError) as err:
            read_pair_reports_csv(path, labels)
        assert str(err.value) == f"{path}:3: malformed numeric field"
    path = tmp_path / "modes.csv"
    for row in ("X0,X1,m,inf,1.0", "X0,X1,m,0.5,nan"):
        path.write_text("treatment,outcome,source_tag,mode_value,mass\nX0,X1,true-mec,0.0,1.0\n" + row + "\n")
        with pytest.raises(SchemaError) as err:
            read_modes_csv(path, labels, "true-mec", "m")
        assert str(err.value) == f"{path}:3: malformed numeric field"


def test_pair_reports_csv_names_the_line_of_an_impossible_score(tmp_path):
    labels = ("X0", "X1")
    path = tmp_path / "pairs.csv"
    header = ",".join(PAIR_REPORT_HEADER) + "\n"
    good = "X1,X0,0.5,1.0,1.0,,,1,1,1,0,0\n"
    for row, rule in (
        ("X0,X1,0.5,7.5,1.0,,,1,1,1,0,0", "rate outside [0, 1]"),
        ("X0,X1,0.5,1.0,1.0,,-0.25,1,1,1,0,0", "rate outside [0, 1]"),
        ("X0,X1,-0.5,1.0,1.0,,,1,1,1,0,0", "negative wd -0.5"),
        ("X0,X1,0.5,1.0,1.0,,,1,1,1,0,-1", "negative mode count"),
    ):
        path.write_text(header + good + row + "\n")
        with pytest.raises(SchemaError) as err:
            read_pair_reports_csv(path, labels)
        assert str(err.value) == f"{path}:3: {rule}"
    # the bounds themselves and empty rate cells are read
    path.write_text(header + good + "X0,X1,0.0,0.0,0.0,,,1,1,0,1,1\n")
    table = read_pair_reports_csv(path, labels)
    assert table.rates[:, :2].tolist() == [[1.0, 1.0], [0.0, 0.0]] and np.isnan(table.rates[:, 2:]).all()


def test_pair_reports_csv_refuses_counts_that_contradict_each_other_or_the_rates(tmp_path):
    labels = ("X0", "X1")
    path = tmp_path / "pairs.csv"
    header = ",".join(PAIR_REPORT_HEADER) + "\n"
    good = "X1,X0,0.5,1.0,1.0,,,1,1,1,0,0\n"
    for row, rule in (
        ("X0,X1,0.5,1.0,1.0,,,1,1,9,0,0", "mode counts contradict each other"),
        ("X0,X1,0.5,,,,,0,1,0,0,0", "mode counts contradict each other"),
        ("X0,X1,0.5,,,,,1,0,0,0,1", "mode counts contradict each other"),
        ("X0,X1,0.5,1.0,0.5,,,2,1,1,0,0", "mode counts contradict each other"),
        ("X0,X1,0.5,0.5,1.0,,,1,1,1,2,0", "mode counts contradict each other"),
        ("X0,X1,0.5,0.5,1.0,,,1,2,1,0,0", "rates contradict the mode counts"),
        ("X0,X1,0.5,1.0,0.5,,,1,1,1,0,0", "rates contradict the mode counts"),
        ("X0,X1,0.5,,1.0,,,1,1,1,0,0", "rates contradict the mode counts"),
        ("X0,X1,0.5,0.0,0.0,,,1,1,0,0,1", "rates contradict the mode counts"),
    ):
        path.write_text(header + good + row + "\n")
        with pytest.raises(SchemaError) as err:
            read_pair_reports_csv(path, labels)
        assert str(err.value) == f"{path}:3: {rule}"
    # precision is undefined, and its cell empty, when no mode is matched or spurious
    path.write_text(header + "X0,X1,0.5,0.6666666666666666,1.0,,,2,3,2,1,0\nX1,X0,0.5,,0.0,,,1,1,0,0,1\n")
    table = read_pair_reports_csv(path, labels)
    assert table.rates[0, :2].tolist() == [2 / 3, 1.0]
    assert np.isnan(table.rates[1, 0]) and table.rates[1, 1] == 0.0


def test_modes_csv_names_the_line_of_a_self_pair(tmp_path):
    path = tmp_path / "modes.csv"
    header = "treatment,outcome,source_tag,mode_value,mass\n"
    path.write_text(header + "X0,X1,true-mec,0.0,1.0\nX0,X0,m,0.5,1.0\n")
    with pytest.raises(SchemaError) as err:
        read_modes_csv(path, ("X0", "X1"), "true-mec", "m")
    assert str(err.value) == f"{path}:3: treatment and outcome must differ"


def test_run_report_csv_has_one_row_per_method(tmp_path):
    s = aggregate({0: table_of_scores((0, 1, 0.1, 1.0, 0.5))}, "m1")
    path = tmp_path / "report.csv"
    write_run_report_csv(RunReport([s, s._replace(method="m2")]), path)
    rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    assert rows[0].split(",")[0] == "method"
    assert [r.split(",")[0] for r in rows[1:]] == ["m1", "m2"]
