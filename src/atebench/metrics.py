"""Distribution-level evaluation: regrouping, Wasserstein distance, mode
precision/recall, low-mass filtering, and aggregation across pairs and seeds.

A seed's pairs are scored in one array pass; only regrouping loops in Python,
over the few values close to their successor.  Its scores are a ``PairTable``
and its modes a ``ModeTable``, both keyed by one (P, 2) array of (treatment,
outcome) node indices; NaN marks an undefined rate.  The same tables are
written to and read back from ``pairs/`` and ``modes/``, and aggregated over
pairs and seeds as arrays.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple, Optional

import numpy as np

from .ate import AteAtoms
from .errors import AggregationError, ParameterError, SchemaError

DEFAULT_FILTER_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
DEFAULT_FILTER_TOLERANCE = 0.05


class RegroupConfig:
    """Closeness tolerances for mode grouping: |a - b| <= atol + rtol * |b|."""

    __slots__ = ("rtol", "atol")

    def __init__(self, rtol: float = 1e-5, atol: float = 1e-8):
        if not (math.isfinite(rtol) and math.isfinite(atol)):
            raise ParameterError("tolerances must be finite")
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


def _pair_index(pairs) -> np.ndarray:
    """Pairs as a read-only (P, 2) int64 array of (treatment, outcome) rows."""
    a = np.array(pairs, dtype=np.int64)
    if a.size == 0:
        a = a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ParameterError("pairs must be (treatment, outcome) rows")
    a.setflags(write=False)
    return a


class PairTable:
    """Every pair's scores, one row per pair of ``pairs``, in read-only
    arrays: ``wd``; ``rates``, the precision, recall, filtered precision
    and filtered recall, NaN where a rate is undefined; and ``counts``, the
    true modes, learned modes, tp, fp and fn before filtering."""

    __slots__ = ("pairs", "wd", "rates", "counts")

    def __init__(self, pairs, wd, rates, counts):
        self.pairs = _pair_index(pairs)
        self.wd = np.array(wd, dtype=float)
        self.rates = np.array(rates, dtype=float)
        self.counts = np.array(counts, dtype=np.int64)
        n = len(self.pairs)
        if (self.wd.shape, self.rates.shape, self.counts.shape) != ((n,), (n, 4), (n, 5)):
            raise ParameterError("pair scores must hold one row per pair")
        if (self.wd < 0).any():
            raise ParameterError("wd must be nonnegative")
        for a in (self.wd, self.rates, self.counts):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"PairTable(pairs={len(self)})"


class ModeTable:
    """Every pair's true and learned modes, in flat arrays.

    Pair p is ``pairs[p]``.  Its true modes are
    ``representatives[offsets[2p]:offsets[2p + 1]]`` and its learned modes
    run on to ``offsets[2p + 2]``; ``masses`` holds their masses at the same
    positions.
    """

    __slots__ = ("pairs", "representatives", "masses", "offsets")

    def __init__(self, pairs, representatives, masses, offsets):
        self.pairs = _pair_index(pairs)
        self.representatives = np.array(representatives, dtype=float)
        self.masses = np.array(masses, dtype=float)
        self.offsets = np.array(offsets, dtype=np.int64)
        if self.offsets.shape != (2 * len(self.pairs) + 1,):
            raise ParameterError("mode offsets must bound two sides per pair")
        for a in (self.representatives, self.masses, self.offsets):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"ModeTable(pairs={len(self)}, modes={self.representatives.size})"


# ---------------------------------------------------------------------------
# segmented array kernels: a flat array cut into segments by offsets, each
# segment computed as the same numpy calls would compute it alone
# ---------------------------------------------------------------------------

# (mode, other-side mode) cells compared per pass of the mode matcher: bounds
# each pass's index and value arrays at 2 MB apiece
_MATCH_CELLS = 1 << 18


def _rows_by_length(offsets):
    """(segments, gather index) per nonzero segment length; the index lays
    those segments out as the rows of one C-contiguous block."""
    lengths = np.diff(offsets)
    if not lengths.size:
        return
    order = np.argsort(lengths, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        n = lengths[rows[0]]
        if n:
            yield rows, offsets[rows, None] + np.arange(n)


def _segment_sums(x, offsets) -> np.ndarray:
    """Each segment's ``np.sum``: numpy's pairwise grouping depends only on
    the count, so rows of one length summed as a block add alike."""
    out = np.zeros(offsets.size - 1)
    for rows, idx in _rows_by_length(offsets):
        out[rows] = x[idx].sum(axis=1)
    return out


def _segment_cumsums(x, offsets) -> np.ndarray:
    """Each segment's ``np.cumsum``, laid out like x."""
    out = np.empty_like(x)
    for _, idx in _rows_by_length(offsets):
        out[idx] = np.cumsum(x[idx], axis=1)
    return out


def _sort_segments(values, weights, segment, count):
    """Values sorted within each segment, stably as ``argsort(kind="stable")``
    sorts it alone, with their weights, and the segment offsets."""
    order = np.lexsort((values, segment))
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(segment, minlength=count), out=offsets[1:])
    return values[order], weights[order], offsets


def _regroup(v, w, offsets, cfg: RegroupConfig):
    """Modes of every segment of sorted values: (representatives, masses,
    group offsets), masses normalized within each segment.

    Within a segment, a value joins the current group while it is close to
    the group's anchor (its first, smallest value); each group's
    representative is its weighted mean and its mass the summed weight.

    Only a value close to its successor can anchor a group of more than one,
    and a sweep has one atom per distinct (t, pa(t)), so the loop visits few.
    """
    n = v.size
    lengths = np.diff(offsets)
    reach = cfg.atol + cfg.rtol * np.abs(v)
    # an anchor at k is a group of its own unless its successor is close to it
    joins = np.zeros(n, dtype=bool)
    joins[:-1] = v[1:] - v[:-1] <= reach[:-1]
    joins[offsets[1:][lengths > 0] - 1] = False
    heads = np.flatnonzero(joins)
    ends = offsets[np.searchsorted(offsets, heads, side="right")]
    start = np.ones(n, dtype=bool)
    anchors, tails, hi = [], [], 0
    for k, end in zip(heads.tolist(), ends.tolist()):
        if k < hi:
            continue
        # v[k:end] - v[k] rises, so one search finds the first value of the
        # segment not close to the anchor
        hi = k + int((v[k:end] - v[k]).searchsorted(reach[k], side="right"))
        start[k + 1:hi] = False
        anchors.append(k)
        tails.append(hi)
    first = np.flatnonzero(start)
    mass = w[first]
    rep = v[first] * mass / mass
    for g, lo, hi in zip(np.searchsorted(first, anchors).tolist(), anchors, tails):
        mass[g] = w[lo:hi].sum()
        rep[g] = np.dot(v[lo:hi], w[lo:hi]) / mass[g]
    group_offsets = np.searchsorted(first, offsets)
    # float rounding of weighted means could in principle collapse two
    # adjacent groups onto one value; such segments merge them defensively
    later = np.ones(first.size, dtype=bool)
    later[group_offsets[:-1][lengths > 0]] = False
    if (later[1:] & (rep[1:] <= rep[:-1])).any():
        rep, mass, group_offsets = _merge_clashes(rep, mass, group_offsets)
    segment = np.repeat(np.arange(offsets.size - 1), np.diff(group_offsets))
    return rep, mass / _segment_sums(mass, group_offsets)[segment], group_offsets


def _merge_clashes(rep, mass, group_offsets):
    """Merge, one segment at a time, every group whose representative does
    not exceed its predecessor's into that predecessor."""
    reps, masses, offsets = [], [], [0]
    for lo, hi in zip(group_offsets[:-1].tolist(), group_offsets[1:].tolist()):
        r, m = [], []
        for x, y in zip(rep[lo:hi].tolist(), mass[lo:hi].tolist()):
            if r and x <= r[-1]:
                total = m[-1] + y
                r[-1] = (r[-1] * m[-1] + x * y) / total
                m[-1] = total
            else:
                r.append(x)
                m.append(y)
        reps += r
        masses += m
        offsets.append(len(reps))
    return np.array(reps), np.array(masses), np.array(offsets, dtype=np.int64)


def _wasserstein(v, w, offsets) -> np.ndarray:
    """First Wasserstein distance between segments 2p and 2p + 1 of sorted
    values, for every p, as ``kernels.weighted_wasserstein`` computes it for
    the two alone: the CDF gap at each point of their merged grid, times the
    step to the next point, summed."""
    n = v.size
    segment = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    pair = segment >> 1
    # the merged grid of a pair; among equal values, the first segment's
    # points come first, as in a stable sort of the two concatenated
    order = np.lexsort((v, pair))
    grid = v[order]
    first_side = (segment[order] & 1) == 0
    block_start, block_end = offsets[0:-1:2], offsets[2::2]
    last = np.ones(n, dtype=bool)
    last[:-1] = grid[1:] != grid[:-1]
    last[block_end - 1] = True
    # a grid point's CDF counts every atom <= it: up to its last equal point
    run_end = np.minimum.accumulate(np.where(last, np.arange(n), n)[::-1])[::-1]
    seen_first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(first_side, out=seen_first[1:])
    p = pair[order]
    ix = seen_first[run_end + 1] - seen_first[block_start[p]]
    iy = run_end + 1 - block_start[p] - ix
    cum = _segment_cumsums(w, offsets)
    cx = np.where(ix > 0, cum[np.maximum(offsets[2 * p] + ix - 1, 0)], 0.0)
    cy = np.where(iy > 0, cum[np.maximum(offsets[2 * p + 1] + iy - 1, 0)], 0.0)
    inner = np.ones(n, dtype=bool)
    inner[block_end - 1] = False
    k = np.flatnonzero(inner)
    terms = np.abs(cx[k] - cy[k]) * (grid[k + 1] - grid[k])
    term_offsets = np.zeros(block_start.size + 1, dtype=np.int64)
    np.cumsum(block_end - block_start - 1, out=term_offsets[1:])
    return _segment_sums(terms, term_offsets)


def _heaviest_close(table: ModeTable, cfg: RegroupConfig) -> np.ndarray:
    """For every mode, the largest mass among the modes on the other side of
    its pair that it is close to (the other mode as the reference), or -1
    when it is close to none."""
    r, m, offsets = table.representatives, table.masses, table.offsets
    lengths = np.diff(offsets)
    other = np.repeat(np.arange(lengths.size), lengths) ^ 1
    width, first = lengths[other], offsets[other]
    ends = np.cumsum(width)
    out = np.full(r.size, -1.0)
    lo = 0
    while lo < r.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - width[lo] + _MATCH_CELLS, side="right")))
        rows = np.arange(lo, hi)[width[lo:hi] > 0]
        lo = hi
        if not rows.size:
            continue
        wid = width[rows]
        row_start = np.cumsum(wid) - wid
        cells = np.arange(row_start[-1] + wid[-1])
        mode = np.repeat(rows, wid)
        partner = np.repeat(first[rows] - row_start, wid) + cells
        close = cfg.close(r[mode], r[partner])
        out[rows] = np.maximum.reduceat(np.where(close, m[partner], -1.0), row_start)
    return out


def _tolerances(tolerances) -> np.ndarray:
    tols = np.asarray(tolerances, dtype=float)
    if tols.ndim != 1 or not np.all((tols >= 0) & (tols < 1)):
        raise ParameterError("tolerance must be in [0, 1)")
    return tols


def _match_counts(table: ModeTable, cfg: RegroupConfig, tols) -> np.ndarray:
    """Mode-match counts of every pair after low-mass filtering at each
    (validated) tolerance: a (5, pairs, tolerances) integer array of the
    true modes, learned modes, tp, fp and fn.  Filtering keeps the modes of
    raw mass >= tol, so a kept true mode is found when its heaviest close
    learned mode is kept, and a kept learned mode is spurious when its
    heaviest close true mode is not."""
    offsets = table.offsets
    kept = table.masses[:, None] >= tols
    matched = kept & (_heaviest_close(table, cfg)[:, None] >= tols)

    def per_side(flags):
        c = np.zeros((flags.shape[0] + 1, tols.size), dtype=np.int64)
        np.cumsum(flags, axis=0, out=c[1:])
        return c[offsets[1:]] - c[offsets[:-1]]

    kept, matched = per_side(kept), per_side(matched)
    n_true, n_learned, tp = kept[0::2], kept[1::2], matched[0::2]
    return np.stack([n_true, n_learned, tp, n_learned - matched[1::2], n_true - tp])


def _rates(counts, filtered: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(precision, recall) arrays from the five count arrays of
    ``_match_counts``; NaN where undefined, and after filtering also where a
    side kept no mode."""
    n_true, n_learned, tp, fp, fn = counts
    out = []
    for den in (tp + fp, tp + fn):
        ok = den > 0
        if filtered:
            ok &= (n_true > 0) & (n_learned > 0)
        out.append(np.where(ok, tp / np.where(ok, den, 1), np.nan))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------


def evaluate_pair_sets(
    true_sets: AteAtoms,
    learned_sets: AteAtoms,
    cfg: RegroupConfig,
    filter_tolerance: float = DEFAULT_FILTER_TOLERANCE,
) -> tuple[PairTable, ModeTable]:
    """Stage-3 evaluation of every pair of two sweeps' ``AteAtoms``, the
    true class's and a method's, in (treatment, outcome) order: WD on each
    pair's atoms, then mode precision/recall before and after low-mass
    filtering.  All pairs are computed in one array pass, each with the
    arithmetic it would get alone; the scores come back as one ``PairTable``
    and the modes as one ``ModeTable``."""
    tols = _tolerances((0.0, filter_tolerance))
    # a pair is named by its place in the labels' ordered pairs
    if (true_sets.labels, true_sets.treatment_value_b, true_sets.reference_value_a) != (
        learned_sets.labels, learned_sets.treatment_value_b, learned_sets.reference_value_a
    ):
        raise AggregationError("true and learned sweeps cover different pairs")
    pairs = np.argwhere(~np.eye(len(true_sets.labels), dtype=bool))
    to, lo = true_sets.offsets, learned_sets.offsets
    pair = np.arange(len(pairs))
    segment = np.concatenate([2 * np.repeat(pair, np.diff(to)), 2 * np.repeat(pair, np.diff(lo)) + 1])
    v, w, offsets = _sort_segments(
        np.concatenate([true_sets.atom_values, learned_sets.atom_values]),
        np.concatenate([true_sets.atom_weights, learned_sets.atom_weights]),
        segment,
        2 * pair.size,
    )
    table = ModeTable(pairs, *_regroup(v, w, offsets, cfg))
    counts = _match_counts(table, cfg, tols)
    rates = _rates(counts[..., 0]) + _rates(counts[..., 1], filtered=True)
    scores = PairTable(pairs, _wasserstein(v, w, offsets), np.stack(rates, axis=1), counts[..., 0].T)
    return scores, table


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
    """(mean, spread, excluded_count) of a per-pair metric, given as one
    array per seed.

    Multi-seed: mean of per-seed means +- standard error over seeds.  Single
    seed: mean over pairs +- standard deviation over pairs.  NaN entries are
    excluded and counted.
    """
    excluded = 0
    per_seed = {}
    for seed, vals in values_by_seed.items():
        defined = vals[~np.isnan(vals)]
        excluded += vals.size - defined.size
        if defined.size:
            per_seed[seed] = defined
    if not per_seed:
        return None, None, excluded
    if len(values_by_seed) == 1:
        vals = next(iter(per_seed.values()))
        mean = float(np.mean(vals))
        spread = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        return mean, spread, excluded
    means = [float(np.mean(per_seed[s])) for s in sorted(per_seed)]
    mean = float(np.mean(means))
    spread = float(np.std(means, ddof=1) / math.sqrt(len(means))) if len(means) > 1 else 0.0
    return mean, spread, excluded


def aggregate(tables_by_seed: dict[int, PairTable], method: str) -> MethodSummary:
    """Aggregate one method's pair scores: pair means within each seed, then
    mean and standard error across seeds (single seed: sd across pairs)."""
    if not tables_by_seed:
        raise AggregationError("no seeds to aggregate")
    pair_keys = None
    for seed, table in tables_by_seed.items():
        keys = table.pairs[np.lexsort(table.pairs.T[::-1])]
        if pair_keys is None:
            pair_keys = keys
        elif not np.array_equal(keys, pair_keys):
            raise AggregationError(f"seed {seed} covers a different pair set")
    if not len(pair_keys):
        raise AggregationError("empty pair reports")

    def metric(column):
        return _aggregate_metric({seed: column(table) for seed, table in tables_by_seed.items()})

    excluded = {}
    wd_mean, wd_se, excluded["wd"] = metric(lambda t: t.wd)
    p_mean, p_se, excluded["precision"] = metric(lambda t: t.rates[:, 0])
    r_mean, r_se, excluded["recall"] = metric(lambda t: t.rates[:, 1])
    return MethodSummary(
        method=method,
        wd_mean=wd_mean,
        wd_se=wd_se,
        precision_mean=p_mean,
        precision_se=p_se,
        recall_mean=r_mean,
        recall_se=r_se,
        num_seeds=len(tables_by_seed),
        num_pairs=len(pair_keys),
        excluded=excluded,
    )


def relaxation_rows(
    modes_by_seed: dict[int, ModeTable],
    grid=DEFAULT_FILTER_GRID,
    cfg: RegroupConfig | None = None,
) -> list[dict]:
    """Precision/recall aggregated at each filtering tolerance of the grid,
    from each seed's ``ModeTable``."""
    cfg = cfg or RegroupConfig()
    grid = tuple(grid)
    tols = _tolerances(grid)
    # rates[seed]: (precisions, recalls), a pair per row and a tolerance per column
    rates = {seed: _rates(_match_counts(table, cfg, tols), filtered=True) for seed, table in modes_by_seed.items()}
    rows = []
    for k, tol in enumerate(grid):
        p_mean, p_se, p_excl = _aggregate_metric({s: p[:, k] for s, (p, _) in rates.items()})
        r_mean, r_se, r_excl = _aggregate_metric({s: r[:, k] for s, (_, r) in rates.items()})
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

MODES_CSV_HEADER = ["treatment", "outcome", "source_tag", "mode_value", "mass"]

RELAXATION_HEADER = ["tolerance", "precision_mean", "precision_se", "recall_mean", "recall_se", "excluded_pairs"]


def _write_csv(path, header, rows) -> None:
    """A CSV file of the header row, then the rows: ``csv`` writes a float
    by its repr and None as an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_run_report_csv(report: RunReport, path) -> None:
    _write_csv(path, RUN_REPORT_HEADER, ([getattr(s, k) for k in RUN_REPORT_HEADER] for s in report.summaries))


def write_pair_reports_csv(table: PairTable, labels, path) -> None:
    labels = tuple(labels)
    # an undefined (NaN) rate is an empty cell
    rates = np.where(np.isnan(table.rates), None, table.rates).tolist()
    rows = ([labels[t], labels[y], wd, *r, *counts] for (t, y), wd, r, counts in zip(
        table.pairs.tolist(), table.wd.tolist(), rates, table.counts.tolist()))
    _write_csv(path, PAIR_REPORT_HEADER, rows)


def write_modes_csv(table: ModeTable, labels, true_tag: str, learned_tag: str, path) -> None:
    """Histogram file of a ``ModeTable``: one row per (pair, source, mode),
    plot-ready."""
    labels = tuple(labels)
    reps, masses, offsets = (a.tolist() for a in (table.representatives, table.masses, table.offsets))
    rows = ([labels[t], labels[y], tag, reps[i], masses[i]]
            for p, (t, y) in enumerate(table.pairs.tolist())
            for s, tag in ((2 * p, true_tag), (2 * p + 1, learned_tag))
            for i in range(offsets[s], offsets[s + 1]))
    _write_csv(path, MODES_CSV_HEADER, rows)


def write_relaxation_csv(rows: list[dict], path) -> None:
    _write_csv(path, RELAXATION_HEADER,
               ([float(row["tolerance"])] + [row[k] for k in RELAXATION_HEADER[1:]] for row in rows))


def _csv_rows(path, expected_header) -> list[tuple[int, list]]:
    """(line, row) of a CSV's data rows, skipping blank and #-comment lines;
    header checked."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(n, row) for n, row in enumerate(csv.reader(fh), start=1) if row and not row[0].startswith("#")]
    if not rows:
        raise SchemaError(f"{path}: missing header row")
    header = rows[0][1]
    if header != expected_header:
        raise SchemaError(f"{path}: expected header {expected_header}, got {header}")
    return rows[1:]


def _row_pair(path, lineno, index, t_lab, y_lab) -> tuple[int, int]:
    """Node indices of a row's treatment and outcome labels."""
    if t_lab not in index or y_lab not in index:
        raise SchemaError(f"{path}:{lineno}: unknown node label")
    if t_lab == y_lab:
        raise SchemaError(f"{path}:{lineno}: treatment and outcome must differ")
    return index[t_lab], index[y_lab]


def _finite(cell: str) -> float:
    """A finite float cell; ValueError otherwise."""
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"non-finite {cell!r}")
    return x


def read_pair_reports_csv(path, labels) -> PairTable:
    """Inverse of write_pair_reports_csv; repr-formatted floats round-trip
    and empty rate cells read as NaN.  A row whose mode counts contradict
    each other or its unfiltered rates is refused."""
    labels = tuple(labels)
    index = {lab: k for k, lab in enumerate(labels)}
    pairs, scores, counts = [], [], []
    for lineno, row in _csv_rows(path, PAIR_REPORT_HEADER):
        if len(row) != len(PAIR_REPORT_HEADER):
            raise SchemaError(f"{path}:{lineno}: expected {len(PAIR_REPORT_HEADER)} columns")
        pairs.append(_row_pair(path, lineno, index, row[0], row[1]))
        try:
            scores.append([_finite(row[2])] + [_finite(c) if c else math.nan for c in row[3:7]])
            counts.append([int(c) for c in row[7:12]])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: malformed numeric field") from exc
        if scores[-1][0] < 0:
            raise SchemaError(f"{path}:{lineno}: negative wd {row[2]}")
        if any(r < 0 or r > 1 for r in scores[-1][1:]):
            raise SchemaError(f"{path}:{lineno}: rate outside [0, 1]")
        if min(counts[-1]) < 0:
            raise SchemaError(f"{path}:{lineno}: negative mode count")
        # the identities by which _match_counts and _rates make the row
        n_true, n_learned, tp, fp, fn = counts[-1]
        if not (n_true >= 1 and n_learned >= 1 and tp <= n_true and fp <= n_learned and fn == n_true - tp):
            raise SchemaError(f"{path}:{lineno}: mode counts contradict each other")
        for rate, den in zip(scores[-1][1:3], (tp + fp, n_true)):
            if not (rate == tp / den if den else math.isnan(rate)):
                raise SchemaError(f"{path}:{lineno}: rates contradict the mode counts")
    scores = np.reshape(scores, (-1, 5))
    return PairTable(pairs, scores[:, 0], scores[:, 1:], np.reshape(counts, (-1, 5)))


def read_modes_csv(path, labels, true_tag: str, learned_tag: str) -> ModeTable:
    """Inverse of write_modes_csv: the rows of each pair and side, in file
    order, as one ModeTable."""
    labels = tuple(labels)
    index = {lab: k for k, lab in enumerate(labels)}
    sides = {learned_tag: 1, true_tag: 0}
    keys, values, masses = [], [], []
    for lineno, row in _csv_rows(path, MODES_CSV_HEADER):
        if len(row) != 5:
            raise SchemaError(f"{path}:{lineno}: expected 5 columns")
        t_lab, y_lab, tag, value, mass = row
        t, y = _row_pair(path, lineno, index, t_lab, y_lab)
        if tag not in sides:
            raise SchemaError(f"{path}:{lineno}: unexpected source tag {tag!r}")
        try:
            values.append(_finite(value))
            masses.append(_finite(mass))
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: malformed numeric field") from exc
        keys.append((t * len(labels) + y) * 2 + sides[tag])
    # each pair's true rows, then its learned rows, each in file order
    keys = np.array(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    key, values, masses = keys[order], np.array(values)[order], np.array(masses)[order]
    pairs = np.unique(key >> 1)
    segment = 2 * np.searchsorted(pairs, key >> 1) + (key & 1)
    offsets = np.zeros(2 * pairs.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(segment, minlength=2 * pairs.size), out=offsets[1:])
    # each side has modes, its representatives strictly increase and its
    # masses are positive and sum to 1; the first bad side names its pair
    # and first rule
    same = segment[1:] == segment[:-1]
    bad = np.abs(_segment_sums(masses, offsets) - 1.0) > 1e-9
    bad[segment[1:][same & ~(values[1:] > values[:-1])]] = True
    bad[segment[masses <= 0]] = True
    if bad.any():
        s = int(np.argmax(bad))
        t, y = divmod(int(pairs[s // 2]), len(labels))
        r, m = values[offsets[s]:offsets[s + 1]], masses[offsets[s]:offsets[s + 1]]
        if not r.size:
            rule = f"no {(true_tag, learned_tag)[s % 2]} modes"
        elif not (r[1:] > r[:-1]).all():
            rule = "representatives must be strictly increasing"
        elif (m <= 0).any():
            rule = "masses must be strictly positive"
        else:
            rule = f"masses must sum to 1, got {m.sum()!r}"
        raise SchemaError(f"{path}: pair ({labels[t]}, {labels[y]}): {rule}")
    return ModeTable(np.column_stack(np.divmod(pairs, len(labels))), values, masses, offsets)
