import json
import logging
import os
import shutil

import numpy as np
import pytest

from atebench import errors, pipeline
from atebench.config import ExperimentConfig
from atebench.errors import (
    AggregationError,
    AteBenchError,
    ConfigError,
    MecCapacityError,
    SchemaError,
    ValidationError,
)
from atebench.graphs import Dag, format_edgelist, load_dag, save_graph
from atebench.mec import TRUE_MEC_TAG, enumerate_mec
from atebench.pipeline import evaluate_external, run_pipeline, run_real, run_synthetic
from atebench.discovery import load_external_posterior, save_posterior, uniform_posterior
from atebench.scm import (
    Dataset,
    random_er_dag,
    random_scm,
    sample,
    save_dataset,
)

from artifact_digests import tree_hashes


def tiny_cfg(root, **kw):
    base = dict(
        d=4,
        n=150,
        num_seeds=2,
        master_seed=11,
        posterior_size=6,
        methods=("bootstrap-pc",),
        output_root=str(root),
        workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# --- synthetic runs --------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    cfg = tiny_cfg(root)
    report = run_synthetic(cfg)
    return cfg, root, report


def test_synthetic_run_produces_the_artifact_tree(synthetic_run):
    _, root, report = synthetic_run
    assert (root / "run_config.txt").exists()
    assert (root / "run_manifest.json").exists()
    assert (root / "report" / "run_report.csv").exists()
    assert (root / "report" / "relaxation_bootstrap-pc.csv").exists()
    for k in range(2):
        sd = root / "seeds" / f"seed_{k:03d}"
        for rel in (
            "truth_graph.txt",
            "scm.json",
            "data.npz",
            "mec.txt",
            "ates/true-mec.npz",
            "posteriors/bootstrap-pc.txt",
            "ates/bootstrap-pc.npz",
            "pairs/bootstrap-pc.csv",
            "modes/bootstrap-pc.csv",
            "manifest.json",
        ):
            assert (sd / rel).exists(), rel
        assert not list((sd / "ates").glob("*.csv"))
        assert not (sd / "mec").exists()
    assert [s.method for s in report.summaries] == ["bootstrap-pc"]


def test_the_config_digest_is_only_in_the_manifests(synthetic_run):
    cfg, root, _ = synthetic_run
    digest = cfg.digest()
    holders = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        texts = [path.read_bytes().decode("latin-1")]
        if path.suffix == ".npz":
            with np.load(path, allow_pickle=False) as npz:
                texts += [f"{key}={npz[key].tolist()!r}" for key in npz.files]
        if any(digest in text for text in texts):
            holders.append(path.relative_to(root).as_posix())
    assert holders == ["run_config.txt", "run_manifest.json",
                       "seeds/seed_000/manifest.json", "seeds/seed_001/manifest.json"]


def test_true_class_is_saved_as_a_uniform_posterior_file(synthetic_run):
    _, root, _ = synthetic_run
    for sd in sorted((root / "seeds").iterdir()):
        members = enumerate_mec(load_dag(sd / "truth_graph.txt")).members
        ps = load_external_posterior(sd / "mec.txt")
        assert ps.dags == members
        assert ps.method_tag == TRUE_MEC_TAG
        assert ps.seed == 0
        assert ps.weights.tolist() == [1 / len(members)] * len(members)


def test_run_manifest_records_shared_truth_note_and_stages(synthetic_run):
    _, root, _ = synthetic_run
    doc = json.loads(read_text(root / "run_manifest.json"))
    assert "shared" in doc["note"]
    assert doc["methods"] == ["bootstrap-pc"]
    assert doc["seeds"]["0"]["status"] == "ok"
    seed_doc = json.loads(read_text(root / "seeds" / "seed_000" / "manifest.json"))
    for marker in ("generate", "truth", "discover:bootstrap-pc", "evaluate:bootstrap-pc"):
        assert marker in seed_doc["stages"]


def test_worker_count_never_changes_bytes(synthetic_run, tmp_path):
    cfg, root, _ = synthetic_run
    other = tmp_path / "w2"
    run_synthetic(tiny_cfg(other, workers=2))
    a = tree_hashes(root)
    b = tree_hashes(other)
    assert a == b


def test_resume_reproduces_identical_bytes(synthetic_run, tmp_path):
    cfg, root, _ = synthetic_run
    fresh = tmp_path / "resume"
    run_synthetic(tiny_cfg(fresh))
    before = tree_hashes(fresh)
    manifest_path = fresh / "seeds" / "seed_001" / "manifest.json"
    doc = json.loads(read_text(manifest_path))
    for marker in ("ates:bootstrap-pc", "evaluate:bootstrap-pc"):
        doc["stages"].pop(marker)
    manifest_path.write_text(json.dumps(doc))
    kept = fresh / "seeds" / "seed_001" / "posteriors" / "bootstrap-pc.txt"
    mtime = kept.stat().st_mtime_ns
    run_synthetic(tiny_cfg(fresh))
    assert tree_hashes(fresh) == before
    assert kept.stat().st_mtime_ns == mtime


def test_staged_commands_match_the_one_shot_run(synthetic_run, tmp_path):
    _, root, _ = synthetic_run
    staged = tmp_path / "staged"
    cfg = tiny_cfg(staged)
    for command in ("generate", "discover", "ate-sweep", "evaluate"):
        status = run_pipeline(cfg, command)
        assert all(s["status"] == "ok" for s in status.values())
    run_pipeline(cfg, "report")
    assert tree_hashes(staged) == tree_hashes(root)


def test_report_regeneration_is_idempotent(synthetic_run):
    _, root, _ = synthetic_run
    before = tree_hashes(root)
    run_pipeline(tiny_cfg(root), "report")
    assert tree_hashes(root) == before


def test_a_root_whose_artifacts_carry_the_digest_still_reports_and_resumes(synthetic_run,
                                                                           tmp_path):
    _, root, _ = synthetic_run
    old = tmp_path / "old"
    shutil.copytree(root, old)
    cfg = tiny_cfg(old)
    # the layout written when every artifact repeated the config digest: a
    # first line in each text file and a config_digest array in each npz
    stamp = f"# config_digest={cfg.digest()}\n"
    for sd in sorted((old / "seeds").iterdir()):
        for path in (sd / "truth_graph.txt", sd / "mec.txt", *sd.glob("posteriors/*"),
                     *sd.glob("pairs/*"), *sd.glob("modes/*")):
            path.write_text(stamp + read_text(path))
        for path in (sd / "data.npz", *sd.glob("ates/*.npz")):
            with np.load(path, allow_pickle=False) as npz:
                arrays = dict(npz)
            with open(path, "wb") as fh:
                np.savez(fh, **arrays, config_digest=np.array(cfg.digest()))
    for path in (old / "report").iterdir():
        path.write_text(stamp + read_text(path))
    want = (root / "report" / "run_report.csv").read_bytes()
    run_pipeline(cfg, "report")
    assert (old / "report" / "run_report.csv").read_bytes() == want
    # without seed 1's sweep and evaluation, evaluate reads its stamped
    # dataset, posterior, truth graph and true-class sweep
    man_path = old / "seeds" / "seed_001" / "manifest.json"
    doc = json.loads(read_text(man_path))
    for stage in ("ates:bootstrap-pc", "evaluate:bootstrap-pc"):
        del doc["stages"][stage]
    man_path.write_text(json.dumps(doc))
    assert run_pipeline(cfg, "evaluate")[1] == {"status": "ok", "error": None}
    run_pipeline(cfg, "report")
    assert (old / "report" / "run_report.csv").read_bytes() == want


@pytest.mark.parametrize("level", [logging.NOTSET, logging.DEBUG, logging.WARNING])
def test_a_run_leaves_the_package_log_level_as_it_found_it(synthetic_run, level):
    _, root, _ = synthetic_run
    pkg_logger = logging.getLogger("atebench")
    saved = pkg_logger.level
    pkg_logger.setLevel(level)
    try:
        before = read_text(root / "run.log")
        run_pipeline(tiny_cfg(root), "report")
        assert pkg_logger.level == level
    finally:
        pkg_logger.setLevel(saved)
    added = read_text(root / "run.log")[len(before):].splitlines()
    assert any(" INFO atebench.pipeline: report written: " in line for line in added)


def test_conflicting_config_on_same_root_is_refused(synthetic_run):
    _, root, _ = synthetic_run
    with pytest.raises(ConfigError) as err:
        run_synthetic(tiny_cfg(root, n=151))
    assert "digest" in str(err.value)


def test_missing_output_root_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        run_synthetic(tiny_cfg(None, output_root=None))
    assert "output_root" in str(err.value)


def test_mcmc_method_runs_through_the_pipeline(tmp_path):
    cfg = tiny_cfg(
        tmp_path / "mcmc",
        d=3,
        num_seeds=1,
        methods=("mcmc",),
        mcmc_steps=4000,
        mcmc_burn_in=1000,
        posterior_size=50,
    )
    report = run_synthetic(cfg)
    assert report.summaries[0].method == "mcmc"
    posterior = read_text(tmp_path / "mcmc" / "seeds" / "seed_000" / "posteriors" / "mcmc.txt")
    assert "method=mcmc" in posterior
    # auto thin derives from posterior_size: (4000 - 1000) // 50 = 60 stride
    assert posterior.count("graph ") == 50


def test_failed_seeds_are_isolated_and_reported(tmp_path):
    # GES needs n >= d + 2; every seed fails and aggregation then refuses
    cfg = tiny_cfg(tmp_path / "fail", n=5, methods=("bootstrap-ges",))
    with pytest.raises(AggregationError):
        run_synthetic(cfg)
    doc = json.loads(read_text(tmp_path / "fail" / "run_manifest.json"))
    assert doc["seeds"]["0"]["status"] == "failed"
    assert "SampleSizeError" in doc["seeds"]["0"]["error"]


# --- recorded failures -----------------------------------------------------

STAGED = ("generate", "discover", "ate-sweep", "evaluate")
GES_ERROR = "SampleSizeError: GES needs n >= d + 2 rows, got n=5, d=4"


def count_discoveries(monkeypatch):
    calls = []
    real = pipeline.bootstrap

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "bootstrap", counted)
    return calls


def seed_manifest(root, k):
    return json.loads(read_text(root / "seeds" / f"seed_{k:03d}" / "manifest.json"))


def without_seconds(manifest):
    stages = {name: entry["files"] for name, entry in manifest["stages"].items()}
    return {**manifest, "stages": stages}


def test_a_recorded_discovery_failure_is_reused_by_later_commands(tmp_path, monkeypatch):
    # GES needs n >= d + 2, so discovery fails the same way every time
    calls = count_discoveries(monkeypatch)
    reused = tiny_cfg(tmp_path / "reused", n=5, num_seeds=1, methods=("bootstrap-ges",))
    for command in STAGED:
        status = run_pipeline(reused, command)
    assert calls == ["ges"]
    assert status == {0: {"status": "failed", "error": GES_ERROR}}
    doc = seed_manifest(tmp_path / "reused", 0)
    assert doc["failed"] == {"stage": "discover:bootstrap-ges", "error": GES_ERROR}
    assert list(doc["stages"]) == ["generate"]
    log = read_text(tmp_path / "reused" / "run.log")
    assert log.count("seed 0: reusing the failure recorded at stage discover:bootstrap-ges") == 2
    assert log.count(f"seed 0 failed: {GES_ERROR}") == 3

    # without the record every command recomputes the failure, and the run
    # manifest ends the same, byte for byte
    calls.clear()
    recomputed = tiny_cfg(tmp_path / "recomputed", n=5, num_seeds=1, methods=("bootstrap-ges",))
    man_path = tmp_path / "recomputed" / "seeds" / "seed_000" / "manifest.json"
    for command in STAGED:
        if man_path.exists():
            doc = json.loads(read_text(man_path))
            doc.pop("failed", None)
            man_path.write_text(json.dumps(doc))
        run_pipeline(recomputed, command)
    assert calls == ["ges"] * 3
    assert ((tmp_path / "reused" / "run_manifest.json").read_bytes()
            == (tmp_path / "recomputed" / "run_manifest.json").read_bytes())


def test_a_failure_is_reused_only_by_commands_that_reach_its_stage(tmp_path):
    # master seed 11 at d=4: seed 0's true class has 4 members, seed 1's has 3
    cfg = tiny_cfg(tmp_path / "cap", mec_cap=3)
    assert run_pipeline(cfg, "generate")[0]["status"] == "ok"
    assert run_pipeline(cfg, "discover")[0]["status"] == "ok"
    status = run_pipeline(cfg, "ate-sweep")
    assert status[0]["error"].startswith("MecCapacityError: ")
    assert status[1]["status"] == "ok"
    recorded = seed_manifest(tmp_path / "cap", 0)["failed"]
    assert recorded == {"stage": "truth", "error": status[0]["error"]}
    assert run_pipeline(cfg, "discover")[0] == {"status": "ok", "error": None}
    assert run_pipeline(cfg, "evaluate")[0] == {"status": "failed", "error": recorded["error"]}
    assert seed_manifest(tmp_path / "cap", 0)["failed"] == recorded


def test_recorded_failures_do_not_depend_on_the_worker_count(tmp_path):
    roots = {w: tmp_path / f"w{w}" for w in (1, 2)}
    for w, root in roots.items():
        cfg = tiny_cfg(root, mec_cap=3, workers=w)
        for command in STAGED + STAGED:
            run_pipeline(cfg, command)
        run_pipeline(cfg, "report")
    assert seed_manifest(roots[1], 0)["failed"]["stage"] == "truth"
    assert (roots[1] / "report" / "run_report.csv").exists()
    assert tree_hashes(roots[1]) == tree_hashes(roots[2])
    for rel in ("run_manifest.json", "report/run_report.csv"):
        assert (roots[1] / rel).read_bytes() == (roots[2] / rel).read_bytes()
    for k in range(2):
        assert without_seconds(seed_manifest(roots[1], k)) == without_seconds(
            seed_manifest(roots[2], k))


def test_a_run_that_fails_at_discovery_keeps_its_earlier_stages(tmp_path):
    cfg = tiny_cfg(tmp_path / "kept", n=5, num_seeds=1, methods=("bootstrap-ges",))
    with pytest.raises(AggregationError):
        run_synthetic(cfg)
    sd = tmp_path / "kept" / "seeds" / "seed_000"
    doc = seed_manifest(tmp_path / "kept", 0)
    assert list(doc["stages"]) == ["generate", "truth"]
    assert doc["failed"]["stage"] == "discover:bootstrap-ges"
    for rel in ("truth_graph.txt", "scm.json", "data.npz", "mec.txt", "ates/true-mec.npz"):
        assert (sd / rel).is_file(), rel
    assert not (sd / "posteriors").exists()


def test_a_failed_seed_is_reported_for_no_method(tmp_path):
    # mcmc completes on every seed, then bootstrap-GES fails on every seed
    cfg = tiny_cfg(tmp_path / "partial", n=5, methods=("mcmc", "bootstrap-ges"),
                   mcmc_steps=400, mcmc_burn_in=100)
    with pytest.raises(AggregationError) as err:
        run_synthetic(cfg)
    assert "'mcmc'" in str(err.value)
    for k in range(2):
        doc = seed_manifest(tmp_path / "partial", k)
        assert "evaluate:mcmc" in doc["stages"]
        assert doc["failed"]["stage"] == "discover:bootstrap-ges"


@pytest.mark.parametrize("cls", [c for c in vars(errors).values()
                                 if isinstance(c, type) and issubclass(c, AteBenchError)])
def test_every_recorded_error_is_rebuilt_from_its_message(cls):
    exc = pipeline._recorded_error(f"{cls.__name__}: seed 0: the message")
    assert type(exc) is cls
    assert exc.args == ("seed 0: the message",)


def test_an_error_that_is_not_an_atebench_error_is_retried(tmp_path, monkeypatch):
    real = pipeline.bootstrap
    raised = []

    def flaky(*args, **kwargs):
        if not raised:
            raised.append(1)
            raise OSError("disk hiccup")
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "bootstrap", flaky)
    cfg = tiny_cfg(tmp_path / "flaky", num_seeds=1)
    run_pipeline(cfg, "generate")
    assert run_pipeline(cfg, "discover")[0] == {"status": "failed", "error": "OSError: disk hiccup"}
    assert "failed" not in seed_manifest(tmp_path / "flaky", 0)
    assert run_pipeline(cfg, "discover")[0] == {"status": "ok", "error": None}
    assert "discover:bootstrap-pc" in seed_manifest(tmp_path / "flaky", 0)["stages"]


def test_a_failed_artifact_read_is_never_recorded(tmp_path):
    cfg = tiny_cfg(tmp_path / "load", num_seeds=1)
    run_pipeline(cfg, "generate")
    run_pipeline(cfg, "discover")
    posterior = tmp_path / "load" / "seeds" / "seed_000" / "posteriors" / "bootstrap-pc.txt"
    saved = posterior.read_bytes()
    posterior.unlink()
    assert run_pipeline(cfg, "ate-sweep")[0]["status"] == "failed"
    assert "failed" not in seed_manifest(tmp_path / "load", 0)
    posterior.write_bytes(saved)
    assert run_pipeline(cfg, "ate-sweep")[0] == {"status": "ok", "error": None}
    assert "ates:bootstrap-pc" in seed_manifest(tmp_path / "load", 0)["stages"]


def test_an_ates_file_in_the_stack_layout_is_refused_by_evaluate(tmp_path):
    cfg = tiny_cfg(tmp_path / "old", num_seeds=1)
    assert run_pipeline(cfg, "ate-sweep")[0] == {"status": "ok", "error": None}
    sd = tmp_path / "old" / "seeds" / "seed_000"
    path = sd / "ates" / "bootstrap-pc.npz"
    with np.load(path, allow_pickle=False) as npz:
        labels = npz["labels"]
    # the layout written before atoms: one (m, d, d) stack of per-DAG
    # effects, without offsets
    with open(path, "wb") as fh:
        np.savez(fh, values=np.zeros((6, 4, 4)), weights=np.full(6, 1 / 6), labels=labels)
    status = run_pipeline(cfg, "evaluate")[0]
    assert status["status"] == "failed"
    assert status["error"].startswith(f"SchemaError: {path}: an (m, d, d) stack of per-DAG effects")
    assert status["error"].endswith("use a new output root or delete that seed's directory")
    assert "failed" not in seed_manifest(tmp_path / "old", 0)
    # and the advice holds: without the seed's directory, evaluate recomputes it
    shutil.rmtree(sd)
    assert run_pipeline(cfg, "evaluate")[0] == {"status": "ok", "error": None}
    assert "evaluate:bootstrap-pc" in seed_manifest(tmp_path / "old", 0)["stages"]


def test_a_seed_whose_dataset_is_a_csv_is_refused_before_anything_is_written(tmp_path):
    root = tmp_path / "old"
    cfg = tiny_cfg(root)
    run_pipeline(cfg, "generate")
    sd = root / "seeds" / "seed_001"
    # the layout written before npz datasets: data.csv, listed under generate
    save_dataset(pipeline.load_dataset(sd / "data.npz"), sd / "data.csv")
    (sd / "data.npz").unlink()
    doc = seed_manifest(root, 1)
    files = doc["stages"]["generate"]["files"]
    files[files.index("data.npz")] = "data.csv"
    (sd / "manifest.json").write_text(json.dumps(doc))
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    for command in ("discover", "evaluate", "report"):
        with pytest.raises(SchemaError) as err:
            run_pipeline(cfg, command)
        assert str(err.value) == (
            f"{sd / 'data.csv'}: a CSV seed dataset, a layout this version no longer reads; "
            "use a new output root or delete that seed's directory"
        )
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before
    # and the advice holds: without the seed's directory, the command recomputes it
    shutil.rmtree(sd)
    assert run_pipeline(cfg, "discover")[1] == {"status": "ok", "error": None}
    assert seed_manifest(root, 1)["stages"]["generate"]["files"][-1] == "data.npz"


def test_a_seed_manifest_under_another_digest_is_refused(tmp_path, monkeypatch):
    calls = count_discoveries(monkeypatch)
    cfg = tiny_cfg(tmp_path / "stale", num_seeds=1)
    run_pipeline(cfg, "generate")
    man_path = tmp_path / "stale" / "seeds" / "seed_000" / "manifest.json"
    doc = json.loads(read_text(man_path))
    doc["config_digest"] = "0" * 12
    doc["failed"] = {"stage": "discover:bootstrap-pc", "error": "SampleSizeError: stale"}
    man_path.write_text(json.dumps(doc))
    before = tree_hashes(tmp_path / "stale")
    saved = man_path.read_bytes()
    with pytest.raises(ConfigError) as err:
        run_pipeline(cfg, "discover")
    assert str(err.value) == (
        f"{man_path}: seed has config digest '000000000000', current config has "
        f"{cfg.digest()!r}; use a new output root or delete that seed's directory"
    )
    assert calls == []
    assert man_path.read_bytes() == saved
    assert tree_hashes(tmp_path / "stale") == before


def test_a_run_manifest_under_another_digest_is_refused(tmp_path):
    root = tmp_path / "left"
    run_pipeline(tiny_cfg(root, num_seeds=1), "generate")
    (root / "run_config.txt").unlink()
    shutil.rmtree(root / "seeds")
    before = tree_hashes(root)
    other = tiny_cfg(root, num_seeds=1, master_seed=12)
    with pytest.raises(ConfigError) as err:
        run_pipeline(other, "generate")
    assert str(err.value).startswith(f"{root / 'run_manifest.json'}: existing run has config ")
    assert str(err.value).endswith("refusing to mix experiments in one output root")
    assert tree_hashes(root) == before
    assert not (root / "run_config.txt").exists()


# --- where each seed's files are written ------------------------------------


def test_an_interrupted_command_keeps_the_stages_it_finished(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(pipeline, "bootstrap", interrupted)
    cfg = tiny_cfg(tmp_path / "stopped", num_seeds=1)
    with pytest.raises(KeyboardInterrupt):
        run_synthetic(cfg)
    sd = tmp_path / "stopped" / "seeds" / "seed_000"
    doc = seed_manifest(tmp_path / "stopped", 0)
    assert {stage: entry["files"] for stage, entry in doc["stages"].items()} == {
        "generate": ["truth_graph.txt", "scm.json", "data.npz"],
        "truth": ["mec.txt", "ates/true-mec.npz"],
    }
    assert "failed" not in doc
    for entry in doc["stages"].values():
        for rel in entry["files"]:
            assert (sd / rel).is_file(), rel
    # the rerun takes generate and truth from disk and computes the rest
    monkeypatch.undo()
    enumerated = []
    real_enumerate = pipeline.enumerate_mec

    def counted(*args, **kwargs):
        enumerated.append(args[0])
        return real_enumerate(*args, **kwargs)
    monkeypatch.setattr(pipeline, "enumerate_mec", counted)
    run_synthetic(cfg)
    assert enumerated == []
    assert "evaluate:bootstrap-pc" in seed_manifest(tmp_path / "stopped", 0)["stages"]

    # an interrupted command leaves the run manifest with no seed statuses,
    # rather than those of the command before it
    monkeypatch.undo()
    root = tmp_path / "statuses"
    cfg = tiny_cfg(root, d=3)
    run_pipeline(cfg, "generate")
    calls = []
    real_bootstrap = pipeline.bootstrap

    def second_interrupted(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_bootstrap(*args, **kwargs)
    monkeypatch.setattr(pipeline, "bootstrap", second_interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(cfg, "discover")
    assert "discover:bootstrap-pc" in seed_manifest(root, 0)["stages"]
    assert "discover:bootstrap-pc" not in seed_manifest(root, 1)["stages"]
    assert "seeds" not in json.loads(read_text(root / "run_manifest.json"))
    run_pipeline(cfg, "discover")
    ok = {"status": "ok", "error": None}
    assert json.loads(read_text(root / "run_manifest.json"))["seeds"] == {"0": ok, "1": ok}


def test_a_run_writes_each_seed_manifest_once(tmp_path, monkeypatch):
    writes = []
    real_write = pipeline._write_json

    def counted(path, payload):
        writes.append(os.path.relpath(path, tmp_path / "once"))
        return real_write(path, payload)
    monkeypatch.setattr(pipeline, "_write_json", counted)
    run_synthetic(tiny_cfg(tmp_path / "once"))
    seeds = [w for w in writes if w.startswith("seeds")]
    assert sorted(seeds) == [os.path.join("seeds", f"seed_{k:03d}", "manifest.json")
                             for k in range(2)]


def test_a_staged_command_reads_the_dataset_only_when_a_stage_uses_it(tmp_path, monkeypatch):
    loads = []
    real_load = pipeline.load_dataset

    def counted(path):
        loads.append(path)
        return real_load(path)
    monkeypatch.setattr(pipeline, "load_dataset", counted)
    cfg = tiny_cfg(tmp_path / "lazy")
    counts = {}
    for command in ("generate", "discover", "ate-sweep", "evaluate", "report"):
        loads.clear()
        run_pipeline(cfg, command)
        counts[command] = len(loads)
    assert counts == {"generate": 0, "discover": 2, "ate-sweep": 2, "evaluate": 0, "report": 0}


def test_a_damaged_dataset_fails_the_seed_unrecorded_and_is_retried(tmp_path):
    cfg = tiny_cfg(tmp_path / "damaged", num_seeds=1)
    run_pipeline(cfg, "generate")
    path = tmp_path / "damaged" / "seeds" / "seed_000" / "data.npz"
    saved = path.read_bytes()
    path.write_bytes(saved[: len(saved) // 2])
    status = run_pipeline(cfg, "discover")[0]
    assert status["status"] == "failed"
    assert status["error"].startswith(f"SchemaError: {path}: ")
    assert "failed" not in seed_manifest(tmp_path / "damaged", 0)
    path.write_bytes(saved)
    assert run_pipeline(cfg, "discover")[0] == {"status": "ok", "error": None}


# --- partial per-seed files ------------------------------------------------


@pytest.fixture(scope="module")
def two_method_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_methods")
    cfg = tiny_cfg(root, num_seeds=1, methods=("bootstrap-pc", "mcmc"),
                   mcmc_steps=400, mcmc_burn_in=100)
    run_synthetic(cfg)
    return cfg, root


def test_report_refuses_a_pairs_file_that_lacks_pairs(two_method_run, tmp_path):
    cfg, root = two_method_run
    shutil.copytree(root, tmp_path / "cut")
    cfg = cfg.with_overrides(output_root=str(tmp_path / "cut"))
    path = tmp_path / "cut" / "seeds" / "seed_000" / "pairs" / "bootstrap-pc.csv"
    # the header and 3 of the 12 pair rows
    path.write_text("".join(read_text(path).splitlines(keepends=True)[:4]))
    with pytest.raises(AggregationError) as err:
        run_pipeline(cfg, "report")
    assert str(err.value).startswith(f"{path}: 3 pairs, not each of the 12 ordered pairs")


def test_report_refuses_a_modes_file_that_lacks_a_pair(two_method_run, tmp_path):
    cfg, root = two_method_run
    shutil.copytree(root, tmp_path / "cut")
    cfg = cfg.with_overrides(output_root=str(tmp_path / "cut"))
    path = tmp_path / "cut" / "seeds" / "seed_000" / "modes" / "bootstrap-pc.csv"
    lines = read_text(path).splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("x1,x2,")]
    assert len(kept) < len(lines)
    path.write_text("".join(kept))
    with pytest.raises(AggregationError) as err:
        run_pipeline(cfg, "report")
    assert str(err.value).startswith(f"{path}: 11 pairs, not each of the 12 ordered pairs")


def test_a_fixed_weight_magnitude_generates(tmp_path):
    cfg = tiny_cfg(tmp_path / "fixed", weight_low=1.0, weight_high=1.0)
    status = run_pipeline(cfg, "generate")
    assert status == {i: {"status": "ok", "error": None} for i in range(cfg.num_seeds)}


def test_truth_graphs_are_shared_across_sample_sizes(tmp_path):
    small = tiny_cfg(tmp_path / "n_small", num_seeds=1)
    big = tiny_cfg(tmp_path / "n_big", num_seeds=1, n=400)
    run_pipeline(small, "generate")
    run_pipeline(big, "generate")
    a = read_text(tmp_path / "n_small" / "seeds" / "seed_000" / "truth_graph.txt")
    b = read_text(tmp_path / "n_big" / "seeds" / "seed_000" / "truth_graph.txt")
    assert a == b


# --- real mode -------------------------------------------------------------


@pytest.fixture(scope="module")
def real_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("real_inputs")
    g = random_er_dag(4, 5, seed=3)
    scm = random_scm(g, seed=3)
    data = sample(scm, 200, seed=3)
    save_graph(g, root / "truth.txt")
    save_dataset(data, root / "data.csv")
    return g, data, root


def test_real_mode_runs_single_seed(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(inputs / "data.csv"),
        graph_path=str(inputs / "truth.txt"),
        posterior_size=6,
        methods=("bootstrap-pc",),
        output_root=str(tmp_path / "real"),
    )
    report = run_real(cfg)
    s = report.summaries[0]
    assert s.num_seeds == 1
    assert s.num_pairs == 12


def test_real_mode_reorders_columns_to_graph_order(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    perm = [2, 0, 3, 1]
    shuffled = Dataset(
        data.values[:, perm], [data.column_labels[k] for k in perm]
    )
    save_dataset(shuffled, tmp_path / "shuffled.csv")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "shuffled.csv"),
        graph_path=str(inputs / "truth.txt"),
        posterior_size=6,
        methods=("bootstrap-pc",),
        output_root=str(tmp_path / "real_shuffled"),
    )
    report = run_real(cfg)
    assert report.summaries[0].num_pairs == 12


def test_real_mode_names_the_mismatched_column(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    renamed = Dataset(data.values, g.labels[:3] + ("Q9",))
    save_dataset(renamed, tmp_path / "renamed.csv")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "renamed.csv"),
        graph_path=str(inputs / "truth.txt"),
        output_root=str(tmp_path / "real_bad"),
    )
    with pytest.raises(SchemaError) as err:
        run_real(cfg)
    assert str(err.value) == (f"{tmp_path / 'renamed.csv'}: dataset is missing column(s) of the "
                              f"graph in {inputs / 'truth.txt'}: {g.labels[3]}")


def test_real_mode_names_extra_columns(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    wide = Dataset(
        np.column_stack([data.values, data.values[:, 0]]),
        g.labels + ("Q9",),
    )
    save_dataset(wide, tmp_path / "wide.csv")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "wide.csv"),
        graph_path=str(inputs / "truth.txt"),
        output_root=str(tmp_path / "real_wide"),
    )
    with pytest.raises(SchemaError) as err:
        run_real(cfg)
    assert str(err.value) == (f"{tmp_path / 'wide.csv'}: dataset has column(s) absent from the "
                              f"graph in {inputs / 'truth.txt'}: Q9")


def test_real_mode_rejects_cyclic_truth_graph(real_inputs, tmp_path):
    _, data, inputs = real_inputs
    cyclic = tmp_path / "cyclic.txt"
    cyclic.write_text("nodes: X0,X1,X2,X3\nX0 -> X1\nX1 -> X2\nX2 -> X0\n")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(inputs / "data.csv"),
        graph_path=str(cyclic),
        output_root=str(tmp_path / "real_cyclic"),
    )
    # the loader wraps the cycle rejection with the offending file's path
    with pytest.raises(ValidationError) as err:
        run_real(cfg)
    assert "cycle" in str(err.value)
    assert "cyclic.txt" in str(err.value)


def test_real_mode_refuses_a_dataset_edited_in_place(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    save_dataset(data, tmp_path / "data.csv")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "data.csv"),
        graph_path=str(inputs / "truth.txt"),
        posterior_size=6,
        methods=("bootstrap-pc",),
        output_root=str(tmp_path / "real_edited"),
    )
    run_real(cfg)
    edited = Dataset(data.values[::-1] * 2.0, data.column_labels)
    save_dataset(edited, tmp_path / "data.csv")
    with pytest.raises(ConfigError) as err:
        run_real(cfg)
    assert "digest" in str(err.value)


# --- external posteriors ---------------------------------------------------


def test_external_true_mec_posterior_is_exact(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    enum = enumerate_mec(g)
    ps = uniform_posterior(enum.members, "oracle-mec", seed=0)
    save_posterior(ps, tmp_path / "oracle.txt")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(inputs / "data.csv"),
        graph_path=str(inputs / "truth.txt"),
        posterior_path=str(tmp_path / "oracle.txt"),
        output_root=str(tmp_path / "ext"),
    )
    report = run_real(cfg)
    s = report.summaries[0]
    assert s.method == "oracle-mec"
    assert s.wd_mean <= 1e-12
    assert s.precision_mean == 1.0
    assert s.recall_mean == 1.0


def test_external_posterior_label_mismatch_is_refused(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    wrong = Dag(("a", "b", "c", "d"), random_er_dag(4, 4, seed=9).adjacency)
    ps = uniform_posterior([wrong], "mislabeled", seed=0)
    save_posterior(ps, tmp_path / "wrong.txt")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(inputs / "data.csv"),
        graph_path=str(inputs / "truth.txt"),
        posterior_path=str(tmp_path / "wrong.txt"),
        output_root=str(tmp_path / "ext_bad"),
    )
    with pytest.raises(SchemaError) as err:
        run_real(cfg)
    assert str(err.value) == (f"{tmp_path / 'wrong.txt'}: external posterior node labels do not "
                              f"match the ground-truth graph in {inputs / 'truth.txt'}")


def test_evaluate_external_refuses_objects(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    ps = uniform_posterior(list(enumerate_mec(g).members), "tag-x", seed=0)
    save_posterior(ps, tmp_path / "obj.txt")
    root = tmp_path / "ext_obj"
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(inputs / "data.csv"),
        graph_path=str(inputs / "truth.txt"),
        output_root=str(root),
    )
    # only paths enter the config, so only paths are covered by its digest
    with pytest.raises(ConfigError) as err:
        evaluate_external(tmp_path / "obj.txt", data, g, cfg)
    assert str(err.value) == "dataset_path must be a file path, got a Dataset"
    with pytest.raises(ConfigError) as err:
        evaluate_external(ps, inputs / "data.csv", inputs / "truth.txt", cfg)
    assert str(err.value) == "posterior_path must be a file path, got a PosteriorSample"
    assert not root.exists()


def test_evaluate_external_of_another_posterior_on_a_scored_root_is_refused(
        real_inputs, tmp_path):
    g, data, inputs = real_inputs
    members = list(enumerate_mec(g).members)
    other = Dag(g.labels, np.zeros((4, 4), dtype=bool))
    assert other not in members
    save_posterior(uniform_posterior(members, "same-tag", seed=0), tmp_path / "a.txt")
    save_posterior(uniform_posterior([other], "same-tag", seed=0), tmp_path / "b.txt")
    cfg = ExperimentConfig(mode="real", dataset_path=str(inputs / "data.csv"),
                           graph_path=str(inputs / "truth.txt"),
                           output_root=str(tmp_path / "shared"))
    paths = (inputs / "data.csv", inputs / "truth.txt")
    assert evaluate_external(tmp_path / "a.txt", *paths, cfg).summaries[0].wd_mean <= 1e-12
    before = tree_hashes(tmp_path / "shared")
    with pytest.raises(ConfigError) as err:
        evaluate_external(tmp_path / "b.txt", *paths, cfg)
    assert "refusing to mix experiments in one output root" in str(err.value)
    assert tree_hashes(tmp_path / "shared") == before
    fresh = cfg.with_overrides(output_root=str(tmp_path / "fresh"))
    assert evaluate_external(tmp_path / "b.txt", *paths, fresh).summaries[0].wd_mean > 0


def test_a_real_run_that_fails_keeps_its_earlier_stages_and_raises(real_inputs, tmp_path,
                                                                   monkeypatch):
    g, data, inputs = real_inputs
    calls = []
    real_enumerate = pipeline.enumerate_mec

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real_enumerate(*args, **kwargs)
    monkeypatch.setattr(pipeline, "enumerate_mec", counted)
    root = tmp_path / "real_cap"
    cfg = ExperimentConfig(mode="real", dataset_path=str(inputs / "data.csv"),
                           graph_path=str(inputs / "truth.txt"), posterior_size=6,
                           mec_cap=1, output_root=str(root))
    with pytest.raises(MecCapacityError) as err:
        run_real(cfg)
    error = f"MecCapacityError: {err.value}"
    doc = seed_manifest(root, 0)
    assert list(doc["stages"]) == ["generate"]
    assert doc["failed"] == {"stage": "truth", "error": error}
    run_doc = json.loads(read_text(root / "run_manifest.json"))
    assert run_doc["seeds"] == {"0": {"status": "failed", "error": error}}
    assert len(calls) == 1
    # a rerun reuses the record: it raises the same error and computes nothing
    with pytest.raises(MecCapacityError) as again:
        run_real(cfg)
    assert str(again.value) == str(err.value)
    assert len(calls) == 1
    assert seed_manifest(root, 0)["failed"] == doc["failed"]


def test_a_real_run_raises_the_error_its_run_manifest_records(real_inputs, tmp_path,
                                                              monkeypatch):
    g, data, inputs = real_inputs

    def broken(*args, **kwargs):
        raise OSError("disk hiccup")
    monkeypatch.setattr(pipeline, "enumerate_mec", broken)
    root = tmp_path / "real_os"
    cfg = ExperimentConfig(mode="real", dataset_path=str(inputs / "data.csv"),
                           graph_path=str(inputs / "truth.txt"), posterior_size=6,
                           output_root=str(root))
    with pytest.raises(AteBenchError) as err:
        run_real(cfg)
    assert type(err.value) is AteBenchError
    run_doc = json.loads(read_text(root / "run_manifest.json"))
    assert str(err.value) == run_doc["seeds"]["0"]["error"] == "OSError: disk hiccup"
    assert "failed" not in seed_manifest(root, 0)


def test_external_posterior_may_not_use_the_true_mec_tag(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    posterior = tmp_path / "reserved.txt"
    save_posterior(uniform_posterior(enumerate_mec(g).members, TRUE_MEC_TAG, seed=0), posterior)
    root = tmp_path / "ext_reserved"
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(inputs / "data.csv"),
        graph_path=str(inputs / "truth.txt"),
        posterior_path=str(posterior),
        output_root=str(root),
    )
    with pytest.raises(SchemaError) as err:
        run_real(cfg)
    assert str(err.value) == (
        f"{posterior}: method tag 'true-mec' is reserved for the true equivalence class"
    )
    assert not root.exists()


@pytest.mark.parametrize("tag", ["../../escaped", ""])
def test_external_method_tag_must_be_a_plain_file_name(real_inputs, tmp_path, tag):
    g, data, inputs = real_inputs
    posterior = tmp_path / "post.txt"
    # such a tag cannot be saved, so the header is written by hand
    posterior.write_text(
        f"posterior method={tag} seed=0\ngraph 0 weight 1.0\n" + format_edgelist(g)
    )
    root = tmp_path / "run"
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(inputs / "data.csv"),
        graph_path=str(inputs / "truth.txt"),
        posterior_path=str(posterior),
        output_root=str(root),
    )
    with pytest.raises(SchemaError) as err:
        run_real(cfg)
    assert str(err.value).startswith(f"{posterior}: method tag {tag!r} must match ")
    assert not root.exists()
    assert [p.name for p in tmp_path.rglob("*")] == ["post.txt"]


def test_evaluate_external_names_a_missing_dataset_or_graph(real_inputs, tmp_path):
    g, data, inputs = real_inputs
    save_posterior(uniform_posterior([g], "one", seed=0), tmp_path / "p.txt")
    present = (str(inputs / "data.csv"), str(inputs / "truth.txt"))
    for k, key in ((0, "dataset_path"), (1, "graph_path")):
        paths = list(present)
        paths[k] = str(tmp_path / "nope")
        cfg = ExperimentConfig(
            mode="real",
            dataset_path=paths[0],
            graph_path=paths[1],
            output_root=str(tmp_path / "ext_missing"),
        )
        with pytest.raises(ConfigError) as err:
            evaluate_external(tmp_path / "p.txt", *paths, cfg)
        assert str(err.value).startswith(f"config key {key!r}: cannot read input {paths[k]}: ")
        assert not (tmp_path / "ext_missing").exists()
