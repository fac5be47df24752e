"""Distribution-level evaluation: regrouping, Wasserstein distance, mode
precision/recall, low-mass filtering, and aggregation across pairs and seeds."""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from typing import NamedTuple, Optional

import numpy as np

from .ate import AteQuery, AteSampleSet
from .errors import AggregationError, ParameterError, SchemaError
from .kernels import weighted_wasserstein

DEFAULT_FILTER_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
DEFAULT_FILTER_TOLERANCE = 0.05


class RegroupConfig:
    """Closeness tolerances for mode grouping: |a - b| <= atol + rtol * |b|."""

    __slots__ = ("rtol", "atol")

    def __init__(self, rtol: float = 1e-5, atol: float = 1e-8):
        if rtol < 0 or atol < 0:
            raise ParameterError("tolerances must be >= 0")
        if rtol == 0 and atol == 0:
            raise ParameterError("rtol and atol cannot both be 0")
        self.rtol = float(rtol)
        self.atol = float(atol)

    def close(self, a, b):
        """Closeness of a against reference b, elementwise on arrays."""
        return np.abs(np.asarray(a) - np.asarray(b)) <= self.atol + self.rtol * np.abs(b)

    def __repr__(self) -> str:
        return f"RegroupConfig(rtol={self.rtol}, atol={self.atol})"


class ModeSet:
    """Distinct value groups of a weighted sample, each with its mass.

    Representatives are strictly increasing and masses sum to 1.  The empty
    ModeSet is the sentinel for "every mode fell below the filter tolerance";
    metrics on it are undefined.
    """

    __slots__ = ("representatives", "masses")

    def __init__(self, representatives, masses):
        r = np.array(representatives, dtype=float)
        m = np.array(masses, dtype=float)
        if r.ndim != 1 or r.shape != m.shape:
            raise ParameterError("representatives and masses must be equal-length vectors")
        if r.size:
            if not (r[1:] > r[:-1]).all():
                raise ParameterError("representatives must be strictly increasing")
            if (m <= 0).any():
                raise ParameterError("masses must be strictly positive")
            if abs(m.sum() - 1.0) > 1e-9:
                raise ParameterError(f"masses must sum to 1, got {m.sum()!r}")
        r.setflags(write=False)
        m.setflags(write=False)
        self.representatives = r
        self.masses = m

    @property
    def modes(self) -> list[tuple[float, float]]:
        return list(zip(self.representatives.tolist(), self.masses.tolist()))

    @property
    def is_empty(self) -> bool:
        """Kept for the ``tests/metrics_reference.py`` oracle, which reads it."""
        return self.representatives.size == 0

    def __len__(self) -> int:
        return int(self.representatives.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeSet):
            return NotImplemented
        return np.array_equal(self.representatives, other.representatives) and np.array_equal(
            self.masses, other.masses
        )

    def __hash__(self):
        return hash((self.representatives.tobytes(), self.masses.tobytes()))

    def __repr__(self) -> str:
        return f"ModeSet(k={len(self)})"


class ModeCounts(NamedTuple):
    n_true: int
    n_learned: int
    tp: int
    fp: int
    fn: int


class PairReport:
    """Per-pair metrics; None marks an undefined metric (excluded, counted)."""

    __slots__ = (
        "query",
        "wd",
        "precision",
        "recall",
        "filtered_precision",
        "filtered_recall",
        "mode_counts",
    )

    def __init__(self, query, wd, precision, recall, filtered_precision, filtered_recall, mode_counts):
        if wd < 0:
            raise ParameterError("wd must be nonnegative")
        self.query = query
        self.wd = float(wd)
        self.precision = precision
        self.recall = recall
        self.filtered_precision = filtered_precision
        self.filtered_recall = filtered_recall
        self.mode_counts = mode_counts

    def __repr__(self) -> str:
        return f"PairReport({self.query!r}, wd={self.wd:.4g})"


class PairModes(NamedTuple):
    query: AteQuery
    true_modes: ModeSet
    learned_modes: ModeSet


def _weighted(x):
    if isinstance(x, AteSampleSet):
        return x.values, x.weights
    v, w = x
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.ndim != 1 or v.shape != w.shape or v.size == 0:
        raise ParameterError("weighted samples must be equal-length non-empty vectors")
    if not np.all(np.isfinite(v)):
        raise ParameterError("sample values must be finite")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ParameterError("weights must be positive and sum to 1")
    return v, w


def _sorted(v, w):
    order = np.argsort(v, kind="stable")
    return v[order], w[order]


def regroup(values, weights, cfg: RegroupConfig) -> ModeSet:
    """Group numerically close values of a weighted sample into modes.

    Values are sorted, then greedily merged: a value joins the current group
    while it is close to the group's anchor (its first, smallest value).
    Each group's representative is its weighted mean; its mass is the summed
    weight.
    """
    return _regroup_sorted(*_sorted(*_weighted((values, weights))), cfg)


def _regroup_sorted(v, w, cfg: RegroupConfig) -> ModeSet:
    """regroup on values already sorted ascending (weights permuted alike)."""
    # v[lo:] - anchor is >= 0 and nondecreasing, so one search finds where
    # the closeness predicate first fails
    bounds = [0]
    while bounds[-1] < v.size:
        lo = bounds[-1]
        anchor = v[lo]
        bound = cfg.atol + cfg.rtol * abs(anchor)
        bounds.append(lo + int((v[lo:] - anchor).searchsorted(bound, side="right")))
    reps = []
    masses = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mass = w[lo:hi].sum()
        reps.append(float(np.dot(v[lo:hi], w[lo:hi]) / mass))
        masses.append(float(mass))
    # float rounding of weighted means could in principle collapse two
    # adjacent groups onto one value; merge such groups defensively
    k = 1
    while k < len(reps):
        if reps[k] <= reps[k - 1]:
            total = masses[k - 1] + masses[k]
            reps[k - 1] = (reps[k - 1] * masses[k - 1] + reps[k] * masses[k]) / total
            masses[k - 1] = total
            del reps[k], masses[k]
        else:
            k += 1
    masses = np.asarray(masses)
    return ModeSet(reps, masses / masses.sum())


def wasserstein_1d(x, y) -> float:
    """First Wasserstein distance between two weighted empirical distributions.

    Operates on the raw samples (no regrouping); each argument is an
    AteSampleSet or a (values, weights) pair.  Kept as the public raw-sample
    form of the paper's headline metric, which the acceptance tests pin.
    """
    return weighted_wasserstein(*_sorted(*_weighted(x)), *_sorted(*_weighted(y)))


def _tolerances(tolerances) -> np.ndarray:
    tols = np.asarray(tolerances, dtype=float)
    if tols.ndim != 1 or not np.all((tols >= 0) & (tols < 1)):
        raise ParameterError("tolerance must be in [0, 1)")
    return tols


def _match_counts(true_modes: ModeSet, learned_modes: ModeSet, cfg: RegroupConfig, tols) -> list[ModeCounts]:
    """Mode-match counts of a pair after low-mass filtering at each (validated)
    tolerance.  Filtering keeps the modes of raw mass >= tol, so a kept true
    mode is found when its heaviest close learned mode is kept, and a kept
    learned mode is spurious when its heaviest close true mode is not."""
    mt, ml = true_modes.masses, learned_modes.masses
    t, l = true_modes.representatives, learned_modes.representatives
    # -1 where nothing is close: below every tolerance
    heaviest_l = np.where(cfg.close(t[:, None], l[None, :]), ml, -1.0).max(axis=1, initial=-1.0)
    heaviest_t = np.where(cfg.close(l[:, None], t[None, :]), mt, -1.0).max(axis=1, initial=-1.0)
    col = tols[:, None]
    keep_t = mt >= col
    keep_l = ml >= col
    n_true = keep_t.sum(axis=1)
    tp = (keep_t & (heaviest_l >= col)).sum(axis=1)
    fp = (keep_l & (heaviest_t < col)).sum(axis=1)
    cols = (n_true, keep_l.sum(axis=1), tp, fp, n_true - tp)
    return [ModeCounts(*c) for c in zip(*(a.tolist() for a in cols))]


def _rates(c: ModeCounts, filtered: bool = False) -> tuple[Optional[float], Optional[float]]:
    """(precision, recall); after filtering, undefined when a side kept no mode."""
    if filtered and not (c.n_true and c.n_learned):
        return None, None
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else None
    return precision, (c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None)


def mode_precision_recall(
    true_modes: ModeSet, learned_modes: ModeSet, cfg: RegroupConfig
) -> tuple[Optional[float], Optional[float], ModeCounts]:
    """Match mode representatives under the regrouping closeness predicate.

    A true mode is found when some learned mode is close to it (learned value
    as the reference); a learned mode is spurious when it is close to no true
    mode (true value as the reference).  Precision and recall are None when
    their denominator is zero.
    """
    (counts,) = _match_counts(true_modes, learned_modes, cfg, np.zeros(1))
    return (*_rates(counts), counts)


def filter_low_mass(modes: ModeSet, tolerance: float) -> ModeSet:
    """Drop modes with mass below the tolerance and renormalize the rest."""
    _tolerances([tolerance])
    keep = modes.masses >= tolerance
    if not keep.any():
        return ModeSet([], [])
    masses = modes.masses[keep]
    return ModeSet(modes.representatives[keep], masses / masses.sum())


def evaluate_pair(
    true_set: AteSampleSet,
    learned_set: AteSampleSet,
    cfg: RegroupConfig,
    filter_tolerance: float = DEFAULT_FILTER_TOLERANCE,
) -> tuple[PairReport, PairModes]:
    """Full stage-3 evaluation of one pair: WD on the weighted values, then mode
    precision/recall before and after low-mass filtering."""
    if true_set.query != learned_set.query:
        raise ParameterError("sample sets answer different queries")
    tols = _tolerances((0.0, filter_tolerance))
    ts, ls = (_sorted(s.values, s.weights) for s in (true_set, learned_set))
    tm, lm = _regroup_sorted(*ts, cfg), _regroup_sorted(*ls, cfg)
    counts, filtered = _match_counts(tm, lm, cfg, tols)
    wd = weighted_wasserstein(*ts, *ls)
    report = PairReport(true_set.query, wd, *_rates(counts), *_rates(filtered, filtered=True), counts)
    return report, PairModes(true_set.query, tm, lm)


def evaluate_pair_sets(
    true_sets: Mapping[AteQuery, AteSampleSet],
    learned_sets: Mapping[AteQuery, AteSampleSet],
    cfg: RegroupConfig,
    filter_tolerance: float = DEFAULT_FILTER_TOLERANCE,
) -> tuple[list[PairReport], list[PairModes]]:
    """evaluate_pair on every pair, in (treatment, outcome) order; the sets
    are typically two sweeps' ``AteAtoms``, whose pairs are their atoms."""
    if set(true_sets) != set(learned_sets):
        raise AggregationError("true and learned sweeps cover different pairs")
    reports = []
    modes = []
    for q in sorted(true_sets, key=lambda q: (q.treatment, q.outcome)):
        report, pm = evaluate_pair(true_sets[q], learned_sets[q], cfg, filter_tolerance)
        reports.append(report)
        modes.append(pm)
    return reports, modes


# ---------------------------------------------------------------------------
# aggregation over pairs and seeds
# ---------------------------------------------------------------------------


class MethodSummary(NamedTuple):
    method: str
    wd_mean: Optional[float]
    wd_se: Optional[float]
    precision_mean: Optional[float]
    precision_se: Optional[float]
    recall_mean: Optional[float]
    recall_se: Optional[float]
    num_seeds: int
    num_pairs: int
    excluded: dict


class RunReport:
    __slots__ = ("summaries",)

    def __init__(self, summaries: list[MethodSummary]):
        if not summaries:
            raise AggregationError("no method summaries to report")
        self.summaries = list(summaries)

    def __repr__(self) -> str:
        return f"RunReport(methods={[s.method for s in self.summaries]})"


def _aggregate_metric(values_by_seed: dict) -> tuple[Optional[float], Optional[float], int]:
    """(mean, spread, excluded_count) of a per-pair metric.

    Multi-seed: mean of per-seed means +- standard error over seeds.  Single
    seed: mean over pairs +- standard deviation over pairs.  None entries are
    excluded and counted.
    """
    excluded = 0
    per_seed = {}
    for seed, vals in values_by_seed.items():
        defined = [v for v in vals if v is not None]
        excluded += len(vals) - len(defined)
        if defined:
            per_seed[seed] = defined
    if not per_seed:
        return None, None, excluded
    if len(values_by_seed) == 1:
        vals = next(iter(per_seed.values()))
        mean = float(np.mean(vals))
        spread = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        return mean, spread, excluded
    means = [float(np.mean(per_seed[s])) for s in sorted(per_seed)]
    mean = float(np.mean(means))
    spread = float(np.std(means, ddof=1) / math.sqrt(len(means))) if len(means) > 1 else 0.0
    return mean, spread, excluded


def aggregate(reports_by_seed: dict[int, list[PairReport]], method: str) -> MethodSummary:
    """Aggregate one method's pair reports: pair means within each seed, then
    mean and standard error across seeds (single seed: sd across pairs)."""
    if not reports_by_seed:
        raise AggregationError("no seeds to aggregate")
    pair_keys = None
    for seed, reports in reports_by_seed.items():
        keys = sorted((r.query.treatment, r.query.outcome) for r in reports)
        if pair_keys is None:
            pair_keys = keys
        elif keys != pair_keys:
            raise AggregationError(f"seed {seed} covers a different pair set")
    if not pair_keys:
        raise AggregationError("empty pair reports")

    def metric(get):
        return {seed: [get(r) for r in reports] for seed, reports in reports_by_seed.items()}

    excluded = {}
    wd_mean, wd_se, excluded["wd"] = _aggregate_metric(metric(lambda r: r.wd))
    p_mean, p_se, excluded["precision"] = _aggregate_metric(metric(lambda r: r.precision))
    r_mean, r_se, excluded["recall"] = _aggregate_metric(metric(lambda r: r.recall))
    return MethodSummary(
        method=method,
        wd_mean=wd_mean,
        wd_se=wd_se,
        precision_mean=p_mean,
        precision_se=p_se,
        recall_mean=r_mean,
        recall_se=r_se,
        num_seeds=len(reports_by_seed),
        num_pairs=len(pair_keys),
        excluded=excluded,
    )


def relaxation_rows(
    modes_by_seed: dict[int, list[PairModes]],
    grid=DEFAULT_FILTER_GRID,
    cfg: RegroupConfig | None = None,
) -> list[dict]:
    """Precision/recall aggregated at each filtering tolerance of the grid."""
    cfg = cfg or RegroupConfig()
    grid = tuple(grid)
    tols = _tolerances(grid)
    rates = {}  # rates[seed][pair][k]: (precision, recall) at grid[k]
    for seed, pair_modes in modes_by_seed.items():
        counts = [_match_counts(pm.true_modes, pm.learned_modes, cfg, tols) for pm in pair_modes]
        rates[seed] = [[_rates(c, filtered=True) for c in by_tol] for by_tol in counts]
    rows = []
    for k, tol in enumerate(grid):
        p_mean, p_se, p_excl = _aggregate_metric({s: [r[k][0] for r in prs] for s, prs in rates.items()})
        r_mean, r_se, r_excl = _aggregate_metric({s: [r[k][1] for r in prs] for s, prs in rates.items()})
        rows.append(dict(tolerance=tol, precision_mean=p_mean, precision_se=p_se, recall_mean=r_mean,
                         recall_se=r_se, excluded_pairs=max(p_excl, r_excl)))
    return rows


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

RUN_REPORT_HEADER = [
    "method",
    "wd_mean",
    "wd_se",
    "precision_mean",
    "precision_se",
    "recall_mean",
    "recall_se",
]

PAIR_REPORT_HEADER = [
    "treatment",
    "outcome",
    "wd",
    "precision",
    "recall",
    "filtered_precision",
    "filtered_recall",
    "true_modes",
    "learned_modes",
    "tp",
    "fp",
    "fn",
]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_run_report_csv(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_REPORT_HEADER)
        for s in report.summaries:
            writer.writerow(
                [
                    s.method,
                    _fmt(s.wd_mean),
                    _fmt(s.wd_se),
                    _fmt(s.precision_mean),
                    _fmt(s.precision_se),
                    _fmt(s.recall_mean),
                    _fmt(s.recall_se),
                ]
            )


def write_pair_reports_csv(reports: list[PairReport], labels, path) -> None:
    labels = tuple(labels)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PAIR_REPORT_HEADER)
        for r in reports:
            c = r.mode_counts
            writer.writerow(
                [
                    labels[r.query.treatment],
                    labels[r.query.outcome],
                    _fmt(r.wd),
                    _fmt(r.precision),
                    _fmt(r.recall),
                    _fmt(r.filtered_precision),
                    _fmt(r.filtered_recall),
                    c.n_true,
                    c.n_learned,
                    c.tp,
                    c.fp,
                    c.fn,
                ]
            )


def write_modes_csv(pair_modes: list[PairModes], labels, true_tag: str, learned_tag: str, path) -> None:
    """Histogram file: one row per (pair, source, mode), plot-ready."""
    labels = tuple(labels)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MODES_CSV_HEADER)
        for pm in pair_modes:
            t_lab = labels[pm.query.treatment]
            y_lab = labels[pm.query.outcome]
            for tag, ms in ((true_tag, pm.true_modes), (learned_tag, pm.learned_modes)):
                for value, mass in ms.modes:
                    writer.writerow([t_lab, y_lab, tag, repr(value), repr(mass)])


def write_relaxation_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["tolerance", "precision_mean", "precision_se", "recall_mean", "recall_se", "excluded_pairs"]
        )
        for row in rows:
            writer.writerow(
                [
                    _fmt(float(row["tolerance"])),
                    _fmt(row["precision_mean"]),
                    _fmt(row["precision_se"]),
                    _fmt(row["recall_mean"]),
                    _fmt(row["recall_se"]),
                    row["excluded_pairs"],
                ]
            )


def _csv_rows(path, expected_header):
    """Data rows of a CSV, skipping blank and #-comment lines; header checked."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            if header is None:
                header = row
                if header != expected_header:
                    raise SchemaError(f"{path}: expected header {expected_header}, got {header}")
                continue
            yield lineno, row
    if header is None:
        raise SchemaError(f"{path}: missing header row")


def _row_pair(path, lineno, index, t_lab, y_lab) -> tuple[int, int]:
    """Node indices of a row's treatment and outcome labels."""
    if t_lab not in index or y_lab not in index:
        raise SchemaError(f"{path}:{lineno}: unknown node label")
    if t_lab == y_lab:
        raise SchemaError(f"{path}:{lineno}: treatment and outcome must differ")
    return index[t_lab], index[y_lab]


def read_pair_reports_csv(path, labels) -> list[PairReport]:
    """Inverse of write_pair_reports_csv; repr-formatted floats round-trip."""
    labels = tuple(labels)
    index = {lab: k for k, lab in enumerate(labels)}

    def opt(cell):
        return None if cell == "" else float(cell)

    reports = []
    for lineno, row in _csv_rows(path, PAIR_REPORT_HEADER):
        if len(row) != len(PAIR_REPORT_HEADER):
            raise SchemaError(f"{path}:{lineno}: expected {len(PAIR_REPORT_HEADER)} columns")
        t, y = _row_pair(path, lineno, index, row[0], row[1])
        try:
            counts = ModeCounts(*(int(c) for c in row[7:12]))
            reports.append(
                PairReport(
                    AteQuery(t, y),
                    float(row[2]),
                    opt(row[3]),
                    opt(row[4]),
                    opt(row[5]),
                    opt(row[6]),
                    counts,
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: malformed numeric field") from exc
    return reports


MODES_CSV_HEADER = ["treatment", "outcome", "source_tag", "mode_value", "mass"]


def read_modes_csv(path, labels, true_tag: str, learned_tag: str) -> list[PairModes]:
    """Inverse of write_modes_csv: rows regrouped into per-pair ModeSets."""
    labels = tuple(labels)
    index = {lab: k for k, lab in enumerate(labels)}
    tags = (true_tag, learned_tag)
    acc: dict[tuple[int, int], tuple[list, list]] = {}
    for lineno, row in _csv_rows(path, MODES_CSV_HEADER):
        if len(row) != 5:
            raise SchemaError(f"{path}:{lineno}: expected 5 columns")
        t_lab, y_lab, tag, value, mass = row
        pair = _row_pair(path, lineno, index, t_lab, y_lab)
        if tag not in tags:
            raise SchemaError(f"{path}:{lineno}: unexpected source tag {tag!r}")
        try:
            entry = (float(value), float(mass))
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: malformed numeric field") from exc
        acc.setdefault(pair, ([], []))[tags.index(tag)].append(entry)
    out = []
    for (t, y), sides in sorted(acc.items()):
        try:
            modes = [ModeSet([v for v, _ in side], [m for _, m in side]) for side in sides]
        except ParameterError as exc:
            raise SchemaError(f"{path}: pair ({labels[t]}, {labels[y]}): {exc}") from exc
        out.append(PairModes(AteQuery(t, y), *modes))
    return out
