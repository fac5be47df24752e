"""Loop reference for the mode metrics in ``atebench.metrics``.

These are the bodies the one-pass code replaced: regrouping by a per-value
anchor loop, low-mass filtering that builds a new ModeSet per tolerance, mode
matching on the filtered sets, and the relaxation table and pair evaluation
built from them.  Tests require the current code to reproduce them exactly.
"""

from __future__ import annotations

import numpy as np

from atebench.metrics import (
    DEFAULT_FILTER_GRID,
    DEFAULT_FILTER_TOLERANCE,
    ModeCounts,
    ModeSet,
    PairModes,
    PairReport,
    RegroupConfig,
    _aggregate_metric,
    wasserstein_1d,
)
from atebench.errors import ParameterError


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
        p_mean, p_se, p_excl = _aggregate_metric(prec_by_seed)
        r_mean, r_se, r_excl = _aggregate_metric(rec_by_seed)
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
