"""References for the pair metrics in ``atebench.metrics``, and builders
for the array pass's types.

Two generations of replaced code, each held equal to its successor:

- The loop reference: regrouping by a per-value anchor loop, low-mass
  filtering that builds a new ModeSet per tolerance, mode matching on the
  filtered sets, and the relaxation table and pair evaluation built from
  them.
- The per-pair reference: one pass per pair, as the package evaluated
  before it took every pair of a seed in one array pass.  Each pair is
  sorted, regrouped by a search per group, matched at every tolerance from
  one closeness matrix, and its WD taken by ``kernels.weighted_wasserstein``.

Tests require the current code to reproduce both exactly.  The references
hold one pair's modes as a ``ModeSet``, a pair's two sides as ``PairModes``,
and one pair's scores as a ``PairReport`` with its ``ModeCounts``, None
marking an undefined rate; they aggregate lists by ``aggregate_metric``, as
the package did before it held its scores in arrays.  ``table_of`` and
``pairs_of`` convert between PairModes and the package's ``ModeTable``, and
``pair_table_of`` and ``reports_of`` between PairReports and its
``PairTable``.  ``atoms_of`` builds the ``AteAtoms`` that the package
evaluates from per-pair samples, ``evaluate_one`` runs the package's array
pass on a single pair, and ``pass_precision_recall`` its mode matcher.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from atebench.ate import AteAtoms, AteQuery, AteSampleSet
from atebench.errors import AggregationError, ParameterError
from atebench.kernels import weighted_wasserstein
from atebench.metrics import (
    DEFAULT_FILTER_GRID,
    DEFAULT_FILTER_TOLERANCE,
    ModeTable,
    PairTable,
    RegroupConfig,
    _match_counts,
    _rates,
    _tolerances,
    evaluate_pair_sets,
)


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


def _none_if_nan(x):
    return None if math.isnan(x) else x


def pair_table_of(reports) -> PairTable:
    """The PairTable of a sequence of PairReports."""
    return PairTable(
        [(r.query.treatment, r.query.outcome) for r in reports],
        [r.wd for r in reports],
        np.array([[math.nan if x is None else x
                   for x in (r.precision, r.recall, r.filtered_precision, r.filtered_recall)]
                  for r in reports], dtype=float).reshape(-1, 4),
        np.array([r.mode_counts for r in reports], dtype=np.int64).reshape(-1, 5),
    )


def reports_of(table: PairTable) -> list[PairReport]:
    """Each row of a PairTable as a PairReport, in table order."""
    return [PairReport(AteQuery(t, y), wd, *map(_none_if_nan, rates), ModeCounts(*counts))
            for (t, y), wd, rates, counts in zip(table.pairs.tolist(), table.wd.tolist(),
                                                 table.rates.tolist(), table.counts.tolist())]


def aggregate_metric(values_by_seed: dict) -> tuple[Optional[float], Optional[float], int]:
    """(mean, spread, excluded_count) of a per-pair metric, given as one list
    per seed.

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


class PairModes(NamedTuple):
    query: AteQuery
    true_modes: ModeSet
    learned_modes: ModeSet


def table_of(pair_modes) -> ModeTable:
    """The ModeTable of a sequence of PairModes."""
    sides = [ms for pm in pair_modes for ms in (pm.true_modes, pm.learned_modes)]
    offsets = np.zeros(len(sides) + 1, dtype=np.int64)
    np.cumsum([len(ms) for ms in sides], out=offsets[1:])
    return ModeTable(
        [(pm.query.treatment, pm.query.outcome) for pm in pair_modes],
        np.concatenate([ms.representatives for ms in sides] or [np.zeros(0)]),
        np.concatenate([ms.masses for ms in sides] or [np.zeros(0)]),
        offsets,
    )


def pairs_of(table: ModeTable) -> list[PairModes]:
    """Each pair of a ModeTable as PairModes, in table order."""
    r, m, o = table.representatives, table.masses, table.offsets.tolist()
    return [PairModes(AteQuery(t, y), ModeSet(r[o[2 * p]:o[2 * p + 1]], m[o[2 * p]:o[2 * p + 1]]),
                      ModeSet(r[o[2 * p + 1]:o[2 * p + 2]], m[o[2 * p + 1]:o[2 * p + 2]]))
            for p, (t, y) in enumerate(table.pairs.tolist())]


def ordered_pairs(d: int) -> list[tuple[int, int]]:
    """The (t, y) pairs of a d-node sweep, in its (t, y) C-order."""
    return [(t, y) for t in range(d) for y in range(d) if t != y]


def atoms_of(labels, samples, tag: str = "x") -> AteAtoms:
    """The AteAtoms over labels whose pair (t, y) holds the (values,
    weights) of samples[(t, y)]; every pair not named holds one 0.0 atom of
    weight 1."""
    pairs = ordered_pairs(len(labels))
    unknown = set(samples) - set(pairs)
    if unknown:
        raise KeyError(sorted(unknown))
    parts = [samples.get(pair, ([0.0], [1.0])) for pair in pairs]
    values = [np.asarray(v, dtype=float).ravel() for v, _ in parts]
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([v.size for v in values], out=offsets[1:])
    weights = [np.asarray(w, dtype=float).ravel() for _, w in parts]
    return AteAtoms(labels, np.concatenate(values or [np.zeros(0)]),
                    np.concatenate(weights or [np.zeros(0)]), offsets, tag)


def pair_report(reports, t: int, y: int) -> PairReport:
    """The report of pair (t, y) among a seed's pair reports."""
    (report,) = [r for r in reports if (r.query.treatment, r.query.outcome) == (t, y)]
    return report


def evaluate_one(true, learned, cfg: RegroupConfig | None = None, filter_tolerance=DEFAULT_FILTER_TOLERANCE):
    """(PairReport, PairModes) of one (values, weights) pair against another,
    by the package's array pass over pair (X0, X1) of two-node sweeps."""
    labels = ("X0", "X1")
    scores, table = evaluate_pair_sets(atoms_of(labels, {(0, 1): true}, "t"),
                                       atoms_of(labels, {(0, 1): learned}, "l"),
                                       cfg or RegroupConfig(), filter_tolerance)
    return pair_report(reports_of(scores), 0, 1), pairs_of(table)[0]


def pass_precision_recall(true_modes: ModeSet, learned_modes: ModeSet, cfg: RegroupConfig, tolerance=None):
    """(precision, recall, ModeCounts) of one pair of ModeSets by the
    package's array matcher: as they are, or after low-mass filtering at
    tolerance.  None marks an undefined rate."""
    table = table_of([PairModes(AteQuery(0, 1), true_modes, learned_modes)])
    counts = _match_counts(table, cfg, _tolerances([tolerance or 0.0]))[..., 0]
    precision, recall = (_none_if_nan(float(x[0])) for x in _rates(counts, filtered=tolerance is not None))
    return precision, recall, ModeCounts(*counts[:, 0].tolist())


def pass_wd(x, y) -> float:
    """WD of the array pass between two (values, weights) samples."""
    return evaluate_one(x, y)[0].wd


def pass_modes(values, weights, cfg: RegroupConfig) -> ModeSet:
    """The modes the array pass finds in one (values, weights) sample."""
    return evaluate_one((values, weights), (values, weights), cfg)[1].true_modes


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


def wasserstein_1d(x, y) -> float:
    return weighted_wasserstein(*_sorted(*_weighted(x)), *_sorted(*_weighted(y)))


def regroup(values, weights, cfg: RegroupConfig) -> ModeSet:
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    v = v[order]
    w = w[order]
    bounds = [0]
    anchor = v[0]
    for k in range(1, v.size):
        if not (abs(v[k] - anchor) <= cfg.atol + cfg.rtol * abs(anchor)):
            bounds.append(k)
            anchor = v[k]
    bounds.append(v.size)
    reps = []
    masses = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mass = w[lo:hi].sum()
        reps.append(float(np.dot(v[lo:hi], w[lo:hi]) / mass))
        masses.append(float(mass))
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


def mode_precision_recall(true_modes: ModeSet, learned_modes: ModeSet, cfg: RegroupConfig):
    t = true_modes.representatives
    l = learned_modes.representatives
    if t.size and l.size:
        found = cfg.close(t[:, None], l[None, :]).any(axis=1)
        tp = int(found.sum())
        fn = int(t.size - tp)
        matched = cfg.close(l[:, None], t[None, :]).any(axis=1)
        fp = int((~matched).sum())
    else:
        tp = 0
        fn = int(t.size)
        fp = int(l.size)
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    return precision, recall, ModeCounts(int(t.size), int(l.size), tp, fp, fn)


def filter_low_mass(modes: ModeSet, tolerance: float) -> ModeSet:
    if not 0 <= tolerance < 1:
        raise ParameterError("tolerance must be in [0, 1)")
    if modes.is_empty:
        return modes
    keep = modes.masses >= tolerance
    if not keep.any():
        return ModeSet([], [])
    masses = modes.masses[keep]
    return ModeSet(modes.representatives[keep], masses / masses.sum())


def evaluate_pair(true_set, learned_set, cfg: RegroupConfig, filter_tolerance=DEFAULT_FILTER_TOLERANCE):
    wd = wasserstein_1d(true_set, learned_set)
    tm = regroup(true_set.values, true_set.weights, cfg)
    lm = regroup(learned_set.values, learned_set.weights, cfg)
    precision, recall, counts = mode_precision_recall(tm, lm, cfg)
    ft = filter_low_mass(tm, filter_tolerance)
    fl = filter_low_mass(lm, filter_tolerance)
    if ft.is_empty or fl.is_empty:
        fprec = frec = None
    else:
        fprec, frec, _ = mode_precision_recall(ft, fl, cfg)
    report = PairReport(true_set.query, wd, precision, recall, fprec, frec, counts)
    return report, PairModes(true_set.query, tm, lm)


def relaxation_rows(modes_by_seed, grid=DEFAULT_FILTER_GRID, cfg: RegroupConfig | None = None):
    cfg = cfg or RegroupConfig()
    rows = []
    for tol in grid:
        prec_by_seed = {}
        rec_by_seed = {}
        for seed, pair_modes in modes_by_seed.items():
            precs = []
            recs = []
            for pm in pair_modes:
                ft = filter_low_mass(pm.true_modes, tol)
                fl = filter_low_mass(pm.learned_modes, tol)
                if ft.is_empty or fl.is_empty:
                    precs.append(None)
                    recs.append(None)
                    continue
                p, r, _ = mode_precision_recall(ft, fl, cfg)
                precs.append(p)
                recs.append(r)
            prec_by_seed[seed] = precs
            rec_by_seed[seed] = recs
        p_mean, p_se, p_excl = aggregate_metric(prec_by_seed)
        r_mean, r_se, r_excl = aggregate_metric(rec_by_seed)
        rows.append(
            {
                "tolerance": tol,
                "precision_mean": p_mean,
                "precision_se": p_se,
                "recall_mean": r_mean,
                "recall_se": r_se,
                "excluded_pairs": max(p_excl, r_excl),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# per-pair reference: one pass per pair
# ---------------------------------------------------------------------------


def regroup_sorted(v, w, cfg: RegroupConfig) -> ModeSet:
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


def match_counts(true_modes: ModeSet, learned_modes: ModeSet, cfg: RegroupConfig, tols) -> list[ModeCounts]:
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


def rates(c: ModeCounts, filtered: bool = False):
    """(precision, recall); after filtering, undefined when a side kept no mode."""
    if filtered and not (c.n_true and c.n_learned):
        return None, None
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else None
    return precision, (c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None)


def one_pass_mode_precision_recall(true_modes: ModeSet, learned_modes: ModeSet, cfg: RegroupConfig):
    """Match mode representatives under the regrouping closeness predicate.

    A true mode is found when some learned mode is close to it (learned value
    as the reference); a learned mode is spurious when it is close to no true
    mode (true value as the reference).  Precision and recall are None when
    their denominator is zero.
    """
    (counts,) = match_counts(true_modes, learned_modes, cfg, np.zeros(1))
    return (*rates(counts), counts)


def one_pass_evaluate_pair(true_set, learned_set, cfg: RegroupConfig, filter_tolerance=DEFAULT_FILTER_TOLERANCE):
    """Full stage-3 evaluation of one pair: WD on the weighted values, then mode
    precision/recall before and after low-mass filtering."""
    if true_set.query != learned_set.query:
        raise ParameterError("sample sets answer different queries")
    tols = _tolerances((0.0, filter_tolerance))
    ts, ls = (_sorted(s.values, s.weights) for s in (true_set, learned_set))
    tm, lm = regroup_sorted(*ts, cfg), regroup_sorted(*ls, cfg)
    counts, filtered = match_counts(tm, lm, cfg, tols)
    wd = weighted_wasserstein(*ts, *ls)
    report = PairReport(true_set.query, wd, *rates(counts), *rates(filtered, filtered=True), counts)
    return report, PairModes(true_set.query, tm, lm)


def one_pass_evaluate_pair_sets(true_sets, learned_sets, cfg: RegroupConfig, filter_tolerance=DEFAULT_FILTER_TOLERANCE):
    """one_pass_evaluate_pair on every pair, in (treatment, outcome) order."""
    if set(true_sets) != set(learned_sets):
        raise AggregationError("true and learned sweeps cover different pairs")
    reports = []
    modes = []
    for q in sorted(true_sets, key=lambda q: (q.treatment, q.outcome)):
        report, pm = one_pass_evaluate_pair(true_sets[q], learned_sets[q], cfg, filter_tolerance)
        reports.append(report)
        modes.append(pm)
    return reports, modes


def one_pass_relaxation_rows(modes_by_seed, grid=DEFAULT_FILTER_GRID, cfg: RegroupConfig | None = None):
    """Precision/recall aggregated at each filtering tolerance of the grid."""
    cfg = cfg or RegroupConfig()
    grid = tuple(grid)
    tols = _tolerances(grid)
    by_seed = {}  # by_seed[seed][pair][k]: (precision, recall) at grid[k]
    for seed, pair_modes in modes_by_seed.items():
        counts = [match_counts(pm.true_modes, pm.learned_modes, cfg, tols) for pm in pair_modes]
        by_seed[seed] = [[rates(c, filtered=True) for c in by_tol] for by_tol in counts]
    rows = []
    for k, tol in enumerate(grid):
        p_mean, p_se, p_excl = aggregate_metric({s: [r[k][0] for r in prs] for s, prs in by_seed.items()})
        r_mean, r_se, r_excl = aggregate_metric({s: [r[k][1] for r in prs] for s, prs in by_seed.items()})
        rows.append(dict(tolerance=tol, precision_mean=p_mean, precision_se=p_se, recall_mean=r_mean,
                         recall_se=r_se, excluded_pairs=max(p_excl, r_excl)))
    return rows
