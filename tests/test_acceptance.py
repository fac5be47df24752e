"""Acceptance gate: one test per release criterion.

Every test prints a single PASS/FAIL line with the measured quantity and the
bound it was held to, so a verbose pytest run doubles as the acceptance
report.  Budgeted runtimes are asserted where a criterion states one.
"""

import time

import numpy as np
import pytest

from atebench.ate import AteQuery
from atebench.config import ExperimentConfig
from atebench.discovery import save_posterior, structure_mcmc, uniform_posterior
from atebench.discovery.score import BicScore
from atebench.graphs import Dag, save_graph
from atebench.mec import enumerate_mec
from atebench.metrics import RegroupConfig, evaluate_pair_sets, read_pair_reports_csv
from atebench.pipeline import run_real, run_synthetic
from atebench.scm import (
    default_labels,
    random_er_dag,
    random_scm,
    sample,
    save_dataset,
)

from artifact_digests import check as check_artifact_digests
from ate_reference import analytic_total_effect, estimate_ate
from conftest import brute_force_dags, oracle_mec_classes
from metrics_reference import atoms_of, pair_report, pass_modes, pass_wd, reports_of
from score_reference import graph_score


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _summary(report, method: str):
    for s in report.summaries:
        if s.method == method:
            return s
    raise AssertionError(f"no summary row for {method}")


# ---------------------------------------------------------------------------
# A1: MEC enumeration agrees with brute force on every DAG up to 4 nodes
# ---------------------------------------------------------------------------


def test_a01_mec_enumeration_matches_brute_force():
    t0 = time.monotonic()
    checked = 0
    counts = {}
    for d in (1, 2, 3, 4):
        labels = default_labels(d)
        classes = oracle_mec_classes(d)
        counts[d] = sum(len(v) for v in classes.values())
        for members in classes.values():
            expected = {m.tobytes() for m in members}
            for adj in members:
                got = {m.adjacency.tobytes() for m in enumerate_mec(Dag(labels, adj))}
                assert got == expected
                checked += 1
    elapsed = time.monotonic() - t0
    assert counts[4] == 543
    _verdict(
        "A1",
        checked == 1 + 3 + 25 + 543 and elapsed < 120.0,
        f"{checked} DAGs (d<=4) match brute-force classes exactly, {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# A2: backdoor estimate on the true DAG approaches the analytic effect
# ---------------------------------------------------------------------------


def test_a02_estimator_consistency():
    t0 = time.monotonic()
    worst = 0.0
    for rep in range(20):
        g = random_er_dag(6, 6, seed=rep)
        scm = random_scm(g, seed=100 + rep)
        data = sample(scm, 100_000, seed=200 + rep)
        for t in range(6):
            for y in range(6):
                if t == y:
                    continue
                est = estimate_ate(g, data, AteQuery(t, y))
                worst = max(worst, abs(est - analytic_total_effect(scm, t, y)))
    elapsed = time.monotonic() - t0
    _verdict(
        "A2",
        worst <= 0.05 and elapsed < 60.0,
        f"max |estimate - analytic| = {worst:.4f} <= 0.05 over 20 SCMs "
        f"(d=6, n=1e5, all pairs), {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# A3: feeding the uniform true MEC back in scores perfectly on every pair
# ---------------------------------------------------------------------------


def test_a03_true_mec_posterior_is_exact(tmp_path):
    g = random_er_dag(5, 5, seed=3)
    scm = random_scm(g, seed=3)
    data = sample(scm, 400, seed=3)
    save_graph(g, tmp_path / "truth.txt")
    save_dataset(data, tmp_path / "data.csv")
    ps = uniform_posterior(enumerate_mec(g).members, "oracle-mec", seed=0)
    save_posterior(ps, tmp_path / "oracle.txt")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "data.csv"),
        graph_path=str(tmp_path / "truth.txt"),
        posterior_path=str(tmp_path / "oracle.txt"),
        output_root=str(tmp_path / "out"),
    )
    run_real(cfg)
    (pairs_csv,) = sorted((tmp_path / "out" / "seeds").glob("*/pairs/oracle-mec.csv"))
    scores = read_pair_reports_csv(pairs_csv, g.labels)
    worst_wd = float(scores.wd.max())
    exact = bool((scores.rates[:, :2] == 1.0).all())
    _verdict(
        "A3",
        len(scores) == 20 and worst_wd <= 1e-12 and exact,
        f"all {len(scores)} pairs: max wd = {worst_wd:.2e} <= 1e-12, "
        f"precision = recall = 1",
    )


# ---------------------------------------------------------------------------
# A4: Wasserstein symmetry / identity / translation, and near-tie regrouping
# ---------------------------------------------------------------------------


def test_a04_metric_properties():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        nx = int(rng.integers(2, 40))
        ny = int(rng.integers(2, 40))
        xv = rng.normal(0.0, 3.0, nx)
        yv = rng.normal(0.0, 3.0, ny)
        xw = rng.random(nx)
        yw = rng.random(ny)
        xw /= xw.sum()
        yw /= yw.sum()
        c = float(rng.uniform(-5.0, 5.0))
        x = (xv, xw)
        y = (yv, yw)
        worst = max(worst, abs(pass_wd(x, y) - pass_wd(y, x)))
        worst = max(worst, pass_wd(x, x))
        worst = max(worst, abs(pass_wd((xv + c, xw), x) - abs(c)))
    merged = pass_modes([1.000000001, 1.0], [0.5, 0.5], RegroupConfig())
    _verdict(
        "A4",
        worst <= 1e-12 and len(merged) == 1,
        f"100 weighted pairs: max symmetry/identity/translation deviation "
        f"= {worst:.2e} <= 1e-12; (1.000000001, 1.0) regroups to "
        f"{len(merged)} mode",
    )


# ---------------------------------------------------------------------------
# A5: low-mass filtering lifts precision without touching recall
# ---------------------------------------------------------------------------


def test_a05_filtering_effect():
    labels = ("X0", "X1")
    true_set = atoms_of(labels, {(0, 1): ([0.0, 2.0], [0.5, 0.5])}, "truth")
    learned = atoms_of(labels, {(0, 1): ([0.0, 2.0, 9.0], [0.495, 0.495, 0.01])}, "learned")
    scores, _ = evaluate_pair_sets(true_set, learned, RegroupConfig(), filter_tolerance=0.05)
    rep = pair_report(reports_of(scores), 0, 1)
    ok = (
        rep.precision == 2 / 3
        and rep.filtered_precision == 1.0
        and rep.recall == 1.0
        and rep.filtered_recall == 1.0
    )
    _verdict(
        "A5",
        ok,
        f"precision {rep.precision:.4f} -> {rep.filtered_precision:.4f} at "
        f"tolerance 0.05, recall {rep.recall:.0f} -> {rep.filtered_recall:.0f}",
    )


# ---------------------------------------------------------------------------
# A6: MCMC visit frequencies track the exhaustive BIC posterior
# ---------------------------------------------------------------------------


def test_a06_mcmc_matches_exhaustive_posterior():
    t0 = time.monotonic()
    g = random_er_dag(3, 2, seed=5)
    scm = random_scm(g, seed=5)
    data = sample(scm, 500, seed=6)
    score = BicScore(data)
    adjs = brute_force_dags(3)
    assert len(adjs) == 25
    scores = np.array([graph_score(score, a) for a in adjs])
    p = np.exp(scores - scores.max())
    p /= p.sum()
    target = {a.tobytes(): float(pi) for a, pi in zip(adjs, p)}
    ps = structure_mcmc(data, steps=200_000, burn_in=50_000, thin=1, seed=7)
    emp = {}
    for dag, w in zip(ps.dags, ps.weights):
        k = dag.adjacency.tobytes()
        emp[k] = emp.get(k, 0.0) + float(w)
    tv = 0.5 * sum(
        abs(target.get(k, 0.0) - emp.get(k, 0.0)) for k in set(target) | set(emp)
    )
    elapsed = time.monotonic() - t0
    _verdict(
        "A6",
        tv < 0.05 and elapsed < 120.0,
        f"total variation = {tv:.4f} < 0.05 over all 25 DAGs "
        f"(d=3, n=500, 2e5 steps), {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# A7/A8/A9 share one experiment: d=10, 5 seeds, 128 posterior draws,
# bootstrap-pc and bootstrap-ges, run at n=20 and n=100
# ---------------------------------------------------------------------------

TREND = dict(
    d=10,
    num_seeds=5,
    posterior_size=128,
    methods=("bootstrap-pc", "bootstrap-ges"),
    master_seed=7,
)


def _trend_cfg(root, n: int, workers: int) -> ExperimentConfig:
    return ExperimentConfig(output_root=str(root), n=n, workers=workers, **TREND)


@pytest.fixture(scope="module")
def trend_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("trend")
    t0 = time.monotonic()
    runs = {}
    for n in (20, 100):
        root = base / f"n{n:03d}"
        runs[n] = (root, run_synthetic(_trend_cfg(root, n, workers=1)))
    runs["elapsed"] = time.monotonic() - t0
    return runs


def test_a07_sample_size_trend(trend_runs):
    root20, rep20 = trend_runs[20]
    root100, rep100 = trend_runs[100]
    # same truth graphs on both arms
    for sd in sorted((root20 / "seeds").iterdir()):
        small = (sd / "truth_graph.txt").read_bytes()
        assert small == (root100 / "seeds" / sd.name / "truth_graph.txt").read_bytes()
    wd20 = _summary(rep20, "bootstrap-pc").wd_mean
    wd100 = _summary(rep100, "bootstrap-pc").wd_mean
    elapsed = trend_runs["elapsed"]
    _verdict(
        "A7",
        wd100 < wd20 and elapsed < 900.0,
        f"bootstrap-pc mean WD {wd100:.4f} (n=100) < {wd20:.4f} (n=20) "
        f"on shared truth graphs, {elapsed:.1f}s < 900s",
    )


def test_a08_recall_dominates_precision_for_ges(trend_runs):
    root20, _ = trend_runs[20]
    labels = default_labels(TREND["d"])
    total = defined = ok = 0
    for f in sorted((root20 / "seeds").glob("*/pairs/bootstrap-ges.csv")):
        rates = read_pair_reports_csv(f, labels).rates
        precision, recall = rates[~np.isnan(rates[:, :2]).any(axis=1), :2].T
        total += len(rates)
        defined += len(recall)
        ok += int((recall >= precision).sum())
    frac = ok / defined
    _verdict(
        "A8",
        frac >= 0.8,
        f"recall >= precision on {ok}/{defined} defined pairs "
        f"({frac:.1%} >= 80%, {total} pairs total, n=20 arm)",
    )


def test_a09_reports_are_byte_identical_across_worker_counts(trend_runs, tmp_path):
    mismatches = []
    for n in (20, 100):
        root1, _ = trend_runs[n]
        root8 = tmp_path / f"w8_n{n:03d}"
        run_synthetic(_trend_cfg(root8, n, workers=8))
        a = (root1 / "report" / "run_report.csv").read_bytes()
        b = (root8 / "report" / "run_report.csv").read_bytes()
        if a != b:
            mismatches.append(n)
    _verdict(
        "A9",
        not mismatches,
        "run_report.csv byte-identical for workers in {1, 8} at n=20 and n=100"
        if not mismatches
        else f"byte mismatch at n in {mismatches}",
    )


def test_a07_a09_artifacts_match_the_record(trend_runs):
    # both arms' roots, n020 and n100, are the fixture's only directories
    check_artifact_digests("a07-a09", trend_runs[20][0].parent)


# ---------------------------------------------------------------------------
# A10: d=11 real-data run reports exactly 11 * 10 ordered pairs
# ---------------------------------------------------------------------------


def test_a10_pair_count_arithmetic(tmp_path):
    g = random_er_dag(11, 12, seed=10)
    scm = random_scm(g, seed=10)
    data = sample(scm, 300, seed=10)
    save_graph(g, tmp_path / "truth.txt")
    save_dataset(data, tmp_path / "data.csv")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "data.csv"),
        graph_path=str(tmp_path / "truth.txt"),
        output_root=str(tmp_path / "out"),
        methods=("bootstrap-pc",),
        posterior_size=16,
        master_seed=10,
    )
    report = run_real(cfg)
    (pairs_csv,) = sorted((tmp_path / "out" / "seeds").glob("*/pairs/bootstrap-pc.csv"))
    rows = read_pair_reports_csv(pairs_csv, g.labels)
    s = _summary(report, "bootstrap-pc")
    _verdict(
        "A10",
        len(rows) == 110 and s.num_pairs == 110,
        f"real-data run with d=11 emitted {len(rows)} pair reports "
        f"(expected 11 * 10 = 110)",
    )
