"""The benchmark's tracer patches pipeline names and reads call arguments.

perfbench/tracing.py wraps attributes of the package by name and reads the
size of the file at a fixed argument position of the ATE save/load calls.
These tests keep those names and positions from drifting silently.
"""

import importlib
import logging
import sys
import time
from pathlib import Path

from atebench import kernels, pipeline
from atebench.config import ExperimentConfig
from atebench.discovery import save_posterior, uniform_posterior
from atebench.discovery.citest import FisherZTester
from atebench.graphs import save_graph
from atebench.mec import enumerate_mec
from atebench.scm import random_er_dag, random_scm, sample, save_dataset

from pc_reference import ReferenceFisherZ, reference_skeleton

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_traced_target_exists():
    for owner, attr, *_ in tracing._targets():
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


def test_traced_external_run_counts_the_npz_bytes_and_restores_everything(tmp_path):
    g = random_er_dag(4, 4, seed=5)
    save_graph(g, tmp_path / "truth.txt")
    save_dataset(sample(random_scm(g, seed=5), 200, seed=5), tmp_path / "data.csv")
    save_posterior(uniform_posterior(enumerate_mec(g).members, "ext", seed=0),
                   tmp_path / "post.txt")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "data.csv"),
        graph_path=str(tmp_path / "truth.txt"),
        output_root=str(tmp_path / "run"),
    )
    owners = (pipeline, kernels, tracing.bootstrap_module, FisherZTester)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(0)
    t0 = time.perf_counter()
    with tracing.installed(tracer):
        patched = {
            (owner, attr)
            for owner, snapshot in zip(owners, before)
            for attr, value in vars(owner).items()
            if snapshot.get(attr) is not value
        }
        pipeline.evaluate_external(tmp_path / "post.txt", tmp_path / "data.csv",
                                   tmp_path / "truth.txt", cfg)
    layers = tracing.layer_metrics(tracer, time.perf_counter() - t0)
    assert {(owner, attr) for owner, attr, *_ in tracing._targets()} <= patched
    for owner, snapshot in zip(owners, before):
        for attr, value in snapshot.items():
            assert vars(owner)[attr] is value, f"{owner.__name__}.{attr} not restored"
    written = sorted((tmp_path / "run" / "seeds").glob("*/ates/*.npz"))
    assert [p.name for p in written] == ["ext.npz", "true-mec.npz"]
    assert layers["ate.save_bytes"] == sum(p.stat().st_size for p in written)
    # the true class is written by one traced `save_mec` call per seed flush
    saves = [s for s in tracer.spans if s["name"] == "mec.save_mec"]
    assert len(saves) == cfg.num_seeds == 1
    assert tracer.spans[saves[0]["parent"]]["name"] == "pipeline.flush"
    # the true class is a posterior sample too, tagged true-mec, but its sweep
    # belongs to the truth stage
    sweeps = [s["stage"] for s in tracer.spans if s["name"] == "ate.sweep"]
    assert sorted(sweeps) == ["ates:ext", "truth"]
    # the tracer reads the learned sweep (second argument) and the pair
    # count (length of the first result) of the evaluation
    d = len(g.labels)
    assert layers["metrics.pairs"] == d * (d - 1) == 12
    evaluations = [s["stage"] for s in tracer.spans if s["name"] == "metrics.evaluate_pair_sets"]
    assert evaluations == ["evaluate:ext"]


def test_traced_bootstrap_pc_counts_the_tests_of_the_reference_loop(monkeypatch, caplog):
    # citest.tests is read from the `pc: ci_tests=` line, so it must equal the
    # per-test loop's count although the stacked skeleton calls no wrapped test
    data = sample(random_scm(random_er_dag(8, 12, seed=2), seed=2), 200, seed=2)

    def traced():
        tracer = tracing.Tracer(0)
        t0 = time.perf_counter()
        with caplog.at_level(logging.INFO, logger="atebench"), tracing.installed(tracer):
            tracing.bootstrap_module.bootstrap(data, "pc", num_replicates=4, seed=0)
        return tracing.layer_metrics(tracer, time.perf_counter() - t0)

    layers = traced()
    pc_module = importlib.import_module("atebench.discovery.pc")
    with monkeypatch.context() as m:
        m.setattr(pc_module, "FisherZTester", ReferenceFisherZ)
        m.setattr(pc_module, "_skeleton", reference_skeleton)
        expected = traced()
    assert layers["pc.fits"] > 0 and layers["pc.fits"] == expected["pc.fits"]
    assert layers["citest.tests"] > 0
    assert layers["citest.tests"] == expected["citest.tests"]


def test_a_traced_staged_run_records_every_posterior_and_mec_span(tmp_path):
    # the tracer times posterior and MEC work only through the pipeline names
    # it wraps; a call that bypassed them would leave these layers at zero
    import workloads

    study = workloads.build("pc-staged", 3, tmp_path / "inputs", toy=True)
    tracer = tracing.Tracer(0)
    t0 = time.perf_counter()
    with tracing.installed(tracer):
        workloads.run(study, tmp_path / "run")
    layers = tracing.layer_metrics(tracer, time.perf_counter() - t0)
    names = {s["name"] for s in tracer.spans}
    for name in ("posterior.save_posterior", "posterior.load_external_posterior",
                 "mec.enumerate_mec", "mec.save_mec"):
        assert name in names, name
    for layer in ("posterior.save_s", "posterior.load_s", "mec.members", "mec.enumerate_s"):
        assert layers[layer] > 0, layer
    assert (tmp_path / "run" / "report" / "run_report.csv").is_file()
