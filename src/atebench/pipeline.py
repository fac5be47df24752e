"""End-to-end orchestration: seeded stages, resumable artifacts, reports.

Layout under output_root:

    run_config.txt            frozen copy of the config, after a config_digest line
    run_manifest.json         methods, per-seed status, report files, version
    run.log                   line-delimited log of the run
    seeds/seed_NNN/           per-seed artifacts (graph, data, MEC, sweeps, ...)
    seeds/seed_NNN/manifest.json
                              seed_index; config_digest; stages, each with its
                              files and seconds; failed, the stage and error
                              of a failure
    report/                   aggregated CSVs

Every bag of DAGs is written in the one posterior multi-graph format of
``atebench.discovery.posterior``: each method's sample as
``posteriors/<method>.txt`` and the true equivalence class as ``mec.txt``
(tag ``true-mec``, uniform weights).  Each seed's dataset is ``data.npz``,
its ``values`` and column ``labels``, and a command reads it only when a
stage it still computes uses the data.  CSV is the format of
real-mode dataset inputs alone: a seed whose manifest lists a ``data.csv``,
the layout before npz datasets, is refused before the command writes anything.

Each seed writes its own files, in the process that computes it (a worker
process when ``workers > 1``), in a deterministic format, so a run's artifact
bytes do not depend on the worker count.  A stage's files are written as soon
as its computation returns, and only then is the stage entered in the seed's
manifest; the manifest file is written once per command, when the seed stops,
so an interrupted command keeps the stages it finished.  The orchestrating
process writes ``run_config.txt``, ``run_manifest.json``, ``run.log`` and
``report/``.  The aggregation stage re-reads the per-seed CSVs from disk
rather than reusing in-memory results, which makes the final report
byte-identical across worker counts and resume points.

The config digest is recorded only in ``run_config.txt``, ``run_manifest.json``
and the seed manifests, never in the artifacts they list.  A command checks
the whole root before it writes anything: a ``run_config.txt``, run manifest
or seed manifest under another config digest is refused, and a damaged
manifest stops the command before any seed advances.  A seed
that fails keeps the stages it completed before the failing one.  When a
stage's own computation raises an ``AteBenchError``, the seed manifest
records it under ``failed``, and a later command whose cut reaches that stage
returns the recorded error without computing anything for the seed.  A
failed artifact read and any other exception are not recorded, so the next
command retries them.  A seed is reported only once every method is
evaluated on it.  Real mode, whose external posterior is one more config
input, follows the same rule; its one seed is the whole run, so its failure,
recorded or not, is also raised to the caller as the run manifest records it.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path

import numpy as np

from . import __version__, errors, kernels
from .ate import load_ate_samples, save_ate_samples, sweep
from .config import KNOWN_METHODS, ExperimentConfig
from .discovery import (
    CiTestConfig,
    bootstrap,
    load_external_posterior,
    save_posterior,
    structure_mcmc,
)
from .errors import AggregationError, AteBenchError, ConfigError, SchemaError
from .graphs import Dag, load_dag, save_graph
from .mec import TRUE_MEC_TAG, enumerate_mec, save_mec
from .metrics import (
    RegroupConfig,
    RunReport,
    aggregate,
    evaluate_pair_sets,
    read_modes_csv,
    read_pair_reports_csv,
    relaxation_rows,
    write_modes_csv,
    write_pair_reports_csv,
    write_relaxation_csv,
    write_run_report_csv,
)
from .scm import (
    Dataset,
    load_dataset,
    random_er_dag,
    random_scm,
    sample,
    save_dataset,
    save_scm,
)

logger = logging.getLogger(__name__)

# independent per-seed randomness streams, all derived from the master seed;
# the data stream does not depend on n, so runs that differ only in sample
# size share their truth graphs and SCMs
_STREAM_GRAPH = 0
_STREAM_SCM = 1
_STREAM_DATA = 2
_STREAM_METHOD_BASE = 10

# how far each CLI command advances every seed
_CUTS = {"generate": 0, "discover": 1, "ate-sweep": 2, "evaluate": 3, "run": 3}
# the cut at which each kind of stage is computed
_STAGE_CUTS = {"generate": 0, "discover": 1, "truth": 2, "ates": 2, "evaluate": 3}

_DIGEST_PREFIX = "# config_digest="


def _stream_seed(master_seed: int, seed_index: int, stream: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(seed_index, stream))
    return int(ss.generate_state(1)[0])


def _method_seed(master_seed: int, seed_index: int, method: str) -> int:
    offset = KNOWN_METHODS.index(method) if method in KNOWN_METHODS else len(KNOWN_METHODS)
    return _stream_seed(master_seed, seed_index, _STREAM_METHOD_BASE + offset)


def _read_json(path, key: str | None = None):
    """The JSON object stored at path, or None when there is no file; with
    ``key``, the object must map it to an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise SchemaError(f"{path}: not a JSON object: {exc}") from None
    if not isinstance(payload, dict) or key and not isinstance(payload.get(key), dict):
        raise SchemaError(f"{path}: not a JSON object" + (f" with a {key!r} object" if key else ""))
    return payload


def _seed_manifest(sd: Path, seed_index: int, digest: str) -> dict:
    """The seed's manifest, or a fresh one when the seed has none; a damaged
    manifest, or one whose dataset is a CSV, raises a SchemaError, and one
    under another digest a ConfigError."""
    path = sd / "manifest.json"
    manifest = _read_json(path, "stages")
    if manifest is None:
        return {"seed_index": seed_index, "config_digest": digest, "stages": {}}
    if manifest.get("config_digest") != digest:
        raise ConfigError(f"{path}: seed has config digest {manifest.get('config_digest')!r}, "
                          f"current config has {digest!r}; use a new output root or delete "
                          "that seed's directory")
    if "data.csv" in manifest["stages"].get("generate", {}).get("files", ()):
        raise SchemaError(f"{sd / 'data.csv'}: a CSV seed dataset, a layout this version no "
                          "longer reads; use a new output root or delete that seed's directory")
    return manifest


def _write_json(path, payload) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# per-seed computation and its files (runs in worker processes)
# ---------------------------------------------------------------------------


def _align_to_graph(data: Dataset, truth: Dag, cfg: ExperimentConfig) -> Dataset:
    if set(data.column_labels) == set(truth.labels):
        if data.column_labels == truth.labels:
            return data
        order = [data.column_labels.index(lab) for lab in truth.labels]
        return Dataset(data.values[:, order], truth.labels)
    missing = sorted(set(truth.labels) - set(data.column_labels))
    if missing:
        raise SchemaError(f"{cfg.dataset_path}: dataset is missing column(s) of the graph in "
                          f"{cfg.graph_path}: {', '.join(missing)}")
    extra = sorted(set(data.column_labels) - set(truth.labels))
    raise SchemaError(f"{cfg.dataset_path}: dataset has column(s) absent from the graph in "
                      f"{cfg.graph_path}: {', '.join(extra)}")


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _stage_cut(stage: str) -> int:
    """The command cut at which a stage is computed."""
    return _STAGE_CUTS[stage.split(":", 1)[0]]


def _flush_seed_result(manifest: dict, stage: str, write, seconds: float) -> None:
    """Write one computed stage's files, then enter the stage, with its
    files and the seconds its computation took, in the in-memory manifest."""
    manifest["stages"][stage] = {"files": write(), "seconds": round(seconds, 6)}


def _seed_compute(cfg: ExperimentConfig, seed_index: int, sd: Path, manifest: dict,
                  cut: int, posterior) -> None:
    """Compute and write this seed's missing stages, reusing completed
    artifacts, and enter each in `manifest`; a stage whose own computation
    raises an AteBenchError is recorded there under ``failed``.  A parsed
    external `posterior` is the seed's only method.
    """
    done = manifest["stages"]

    def timed(name, compute, write):
        t0 = time.perf_counter()
        try:
            result = compute()
        except AteBenchError as exc:
            manifest["failed"] = {"stage": name, "error": _error_text(exc)}
            raise
        _flush_seed_result(manifest, name, lambda: write(result), time.perf_counter() - t0)
        logger.info("seed %d: stage %s done (%d files)", seed_index, name,
                    len(done[name]["files"]))
        return result

    def saved(rel, save):
        path = sd / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        save(path)
        return rel

    def write_base(base):
        g, m, d0 = base
        files = [saved("truth_graph.txt", lambda p: save_graph(g, p))]
        if m is not None:
            files.append(saved("scm.json", lambda p: save_scm(m, p)))
        return files + [saved("data.npz", lambda p: save_dataset(d0, p))]

    def write_ates(rel, samples):
        return saved(rel, lambda p: save_ate_samples(samples, labels, p))

    # stage: generate (synthetic) or ingest (real); artifact names shared
    if "generate" in done:
        truth = load_dag(sd / "truth_graph.txt")
        data = None  # read below, and only if a stage still to compute uses it
    else:
        if cfg.mode == "real":
            # inputs are read like stored artifacts: untimed, a failed read unrecorded
            inputs = load_dataset(cfg.dataset_path), load_dag(cfg.graph_path)

        def build_base():
            if cfg.mode == "real":
                g, m, d0 = inputs[1], None, _align_to_graph(*inputs, cfg)
            else:
                g = random_er_dag(
                    cfg.d, cfg.er_edges(), _stream_seed(cfg.master_seed, seed_index, _STREAM_GRAPH)
                )
                m = random_scm(
                    g,
                    (cfg.weight_low, cfg.weight_high),
                    _stream_seed(cfg.master_seed, seed_index, _STREAM_SCM),
                )
                d0 = sample(m, cfg.n, _stream_seed(cfg.master_seed, seed_index, _STREAM_DATA))
            return g, m, d0.standardized() if cfg.standardize else d0
        truth, _, data = timed("generate", build_base, write_base)
    labels = truth.labels

    if posterior is not None and posterior.labels != labels:
        raise SchemaError(f"{cfg.posterior_path}: external posterior node labels do not match "
                          f"the ground-truth graph in {cfg.graph_path}")
    methods = [posterior.method_tag] if posterior is not None else cfg.methods

    def discover(method):
        if posterior is not None:
            return posterior
        seed = _method_seed(cfg.master_seed, seed_index, method)
        if method == "bootstrap-pc":
            ci = CiTestConfig(cfg.ci_alpha, cfg.max_condition_size)
            return bootstrap(data, "pc", cfg.posterior_size, seed, ci=ci)
        if method == "bootstrap-ges":
            return bootstrap(data, "ges", cfg.posterior_size, seed)
        thin = cfg.mcmc_thin
        if thin is None:
            thin = max((cfg.mcmc_steps - cfg.mcmc_burn_in) // cfg.posterior_size, 1)
        return structure_mcmc(data, cfg.mcmc_steps, cfg.mcmc_burn_in, thin, seed)

    b, a = cfg.treatment_value_b, cfg.treatment_value_a
    needs = {
        m: (cut >= 2 and f"ates:{m}" not in done, cut >= 3 and f"evaluate:{m}" not in done)
        for m in methods
    }
    if data is None and (
        cut >= 2 and "truth" not in done
        or any(need_ates for need_ates, _ in needs.values())
        or cut >= 1 and posterior is None and any(f"discover:{m}" not in done for m in methods)
    ):
        data = load_dataset(sd / "data.npz")
    true_ates = None
    if cut >= 2:
        if "truth" not in done:
            def build_truth():
                enum = enumerate_mec(truth, cap=cfg.mec_cap)
                return enum, sweep(enum, data, treatment_value_b=b, reference_value_a=a)
            _, true_ates = timed("truth", build_truth, lambda r: [
                saved("mec.txt", lambda p: save_mec(r[0], p)),
                write_ates("ates/true-mec.npz", r[1]),
            ])
        elif any(need_eval for _, need_eval in needs.values()):
            true_ates = load_ate_samples(sd / "ates" / "true-mec.npz", labels, TRUE_MEC_TAG, b, a)

    rcfg = RegroupConfig(cfg.regroup_rtol, cfg.regroup_atol)
    for method in methods:
        if cut < 1:
            break
        need_ates, need_eval = needs[method]
        d_stage = f"discover:{method}"
        if d_stage not in done:
            ps = timed(d_stage, lambda: discover(method), lambda r: [
                saved(f"posteriors/{method}.txt", lambda p: save_posterior(r, p)),
            ])
        elif need_ates:
            ps = load_external_posterior(str(sd / "posteriors" / f"{method}.txt"))
        if need_ates:
            learned = timed(
                f"ates:{method}",
                lambda: sweep(ps, data, treatment_value_b=b, reference_value_a=a),
                lambda r: [write_ates(f"ates/{method}.npz", r)],
            )
        elif need_eval:
            learned = load_ate_samples(sd / "ates" / f"{method}.npz", labels, method, b, a)
        if need_eval:
            timed(
                f"evaluate:{method}",
                lambda: evaluate_pair_sets(true_ates, learned, rcfg, cfg.filter_tolerance),
                lambda r: [
                    saved(f"pairs/{method}.csv", lambda p: write_pair_reports_csv(r[0], labels, p)),
                    saved(f"modes/{method}.csv",
                          lambda p: write_modes_csv(r[1], labels, TRUE_MEC_TAG, method, p)),
                ],
            )


def _recorded_error(text: str) -> AteBenchError:
    """The typed error a recorded failure names, made from its message; any
    other error keeps its whole text."""
    name, _, message = text.partition(": ")
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, AteBenchError):
        return cls(message)
    return AteBenchError(text)


def _seed_attempt(task) -> dict:
    """One seed's {status, error}.  A failure recorded at a stage this
    command's cut reaches is returned as it stands, and nothing is computed;
    otherwise a stage's own AteBenchError is recorded, and a failed read or
    any other exception is left for the next command to retry.  However the
    seed stops, its manifest is written once, on the way out."""
    cfg, seed_index, sd, cut, posterior, manifest = task
    sd.mkdir(parents=True, exist_ok=True)
    recorded = manifest.get("failed")
    try:
        if recorded is not None and _stage_cut(recorded["stage"]) <= cut:
            logger.info("seed %d: reusing the failure recorded at stage %s",
                        seed_index, recorded["stage"])
            return {"status": "failed", "error": recorded["error"]}
        _seed_compute(cfg, seed_index, sd, manifest, cut, posterior)
    except Exception as exc:
        return {"status": "failed", "error": _error_text(exc)}
    finally:
        _write_json(sd / "manifest.json", manifest)
    return {"status": "ok", "error": None}


# ---------------------------------------------------------------------------
# orchestrator: run config, run manifest, log and report
# ---------------------------------------------------------------------------


def _prepare_root(cfg: ExperimentConfig, digest: str, command: str) -> tuple[Path, list[dict]]:
    """The output root and every seed's manifest.  The whole root is checked
    before anything is written, so a refused command leaves it as it was."""
    if cfg.output_root is None:
        raise ConfigError(
            "no output root: set the output_root key, the --output-root flag, "
            "or the ATEBENCH_OUTPUT_ROOT environment variable"
        )
    root = Path(cfg.output_root)
    cfg_path = root / "run_config.txt"
    if cfg_path.exists():
        with open(cfg_path, "r", encoding="utf-8") as fh:
            first = fh.readline().strip()
        stored = first[len(_DIGEST_PREFIX):] if first.startswith(_DIGEST_PREFIX) else None
        if stored != digest:
            raise ConfigError(
                f"{cfg_path}: existing run has config digest {stored!r}, current config "
                f"has {digest!r}; refusing to mix experiments in one output root"
            )
    manifests = [_seed_manifest(sd, i, digest) for i, sd in enumerate(_seed_dirs(cfg, root))]
    run_manifest = _read_json(root / "run_manifest.json") or {}
    if run_manifest.get("config_digest", digest) != digest:
        raise ConfigError(f"{root / 'run_manifest.json'}: existing run has config digest "
                          f"{run_manifest['config_digest']!r}, current config has {digest!r}; "
                          "refusing to mix experiments in one output root")
    if command == "report" and not run_manifest.get("methods"):
        raise AggregationError(f"{root}: no run_manifest.json that lists a method; "
                               "run the pipeline first")
    (root / "seeds").mkdir(parents=True, exist_ok=True)
    (root / "report").mkdir(parents=True, exist_ok=True)
    if not cfg_path.exists():
        cfg_path.write_text(f"{_DIGEST_PREFIX}{digest}\n" + cfg.to_text(), encoding="utf-8")
    if command != "report" and "seeds" in run_manifest:
        # the block is the last command's statuses; until this command
        # finishes, no status is better than a stale one
        del run_manifest["seeds"]
        _write_json(root / "run_manifest.json", run_manifest)
    return root, manifests


def _seed_dirs(cfg: ExperimentConfig, root: Path) -> list[Path]:
    width = max(3, len(str(cfg.num_seeds - 1)))
    return [root / "seeds" / f"seed_{i:0{width}d}" for i in range(cfg.num_seeds)]


def _update_run_manifest(root: Path, cfg: ExperimentConfig, digest: str, methods,
                         seed_status) -> None:
    path = root / "run_manifest.json"
    manifest = _read_json(path) or {}
    manifest.update(
        {
            "version": __version__,
            "backend": kernels.backend_name(),
            "config_digest": digest,
            "mode": cfg.mode,
            "methods": list(methods),
            "num_seeds": cfg.num_seeds,
            "note": "one truth graph and dataset are shared by all methods within a seed",
        }
    )
    # every command covers every seed, so its statuses replace the block
    manifest["seeds"] = {str(idx): status for idx, status in seed_status.items()}
    _write_json(path, manifest)


def _attach_run_log(root: Path) -> tuple[logging.Handler, int]:
    """Log the package at INFO or finer into run.log; returns what
    _detach_run_log needs to undo it, the logger's previous level included."""
    handler = logging.FileHandler(root / "run.log", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    pkg_logger = logging.getLogger("atebench")
    pkg_logger.addHandler(handler)
    previous = pkg_logger.level
    if previous > logging.INFO or previous == logging.NOTSET:
        pkg_logger.setLevel(logging.INFO)
    return handler, previous


def _detach_run_log(attached) -> None:
    handler, previous = attached
    pkg_logger = logging.getLogger("atebench")
    pkg_logger.removeHandler(handler)
    pkg_logger.setLevel(previous)
    handler.close()


def _execute_seeds(cfg: ExperimentConfig, root: Path, command: str, digest: str,
                   posterior, manifests: list[dict]) -> dict:
    methods = [posterior.method_tag] if posterior is not None else list(cfg.methods)
    tasks = [(cfg, i, sd, _CUTS[command], posterior, manifests[i])
             for i, sd in enumerate(_seed_dirs(cfg, root))]
    if cfg.workers > 1 and cfg.num_seeds > 1:
        # imported here: multiprocessing is a sizeable part of a cold start
        # that a single-worker command never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.workers, cfg.num_seeds)) as pool:
            statuses = list(pool.map(_seed_attempt, tasks))
    else:
        statuses = [_seed_attempt(t) for t in tasks]
    seed_status = dict(enumerate(statuses))
    for i, status in seed_status.items():
        if status["error"] is not None:
            logger.error("seed %d failed: %s", i, status["error"])
    _update_run_manifest(root, cfg, digest, methods, seed_status)
    if cfg.mode == "real" and statuses[0]["error"] is not None:
        # the one real-data seed is the whole run, so the failure its run
        # manifest records is the caller's error
        raise _recorded_error(statuses[0]["error"])
    return seed_status


def _aggregate(cfg: ExperimentConfig, root: Path, digest: str) -> RunReport:
    run_manifest = _read_json(root / "run_manifest.json")
    methods = run_manifest["methods"]
    # a seed is reported only once every method is evaluated on it, so the
    # methods are compared on the same seeds; a failed seed may keep the
    # stages it completed before failing
    wanted = {f"evaluate:{m}" for m in methods}
    evaluated = [(i, sd) for i, sd in enumerate(_seed_dirs(cfg, root))
                 if wanted <= _seed_manifest(sd, i, digest)["stages"].keys()]
    rcfg = RegroupConfig(cfg.regroup_rtol, cfg.regroup_atol)
    labels = None
    summaries = []
    report_dir = root / "report"
    for method in methods:
        tables_by_seed = {}
        modes_by_seed = {}
        for i, sd in evaluated:
            if labels is None:
                labels = load_dag(sd / "truth_graph.txt").labels
                every_pair = np.argwhere(~np.eye(len(labels), dtype=bool))
            pair_path = sd / "pairs" / f"{method}.csv"
            modes_path = sd / "modes" / f"{method}.csv"
            tables_by_seed[i] = read_pair_reports_csv(pair_path, labels)
            modes_by_seed[i] = read_modes_csv(modes_path, labels, TRUE_MEC_TAG, method)
            for path, table in ((pair_path, tables_by_seed[i]), (modes_path, modes_by_seed[i])):
                if not np.array_equal(table.pairs, every_pair):
                    raise AggregationError(f"{path}: {len(table)} pairs, not each of the "
                                           f"{len(every_pair)} ordered pairs once in (t, y) order")
        if not tables_by_seed:
            raise AggregationError(f"no completed evaluations for method {method!r}")
        summaries.append(aggregate(tables_by_seed, method))
        rows = relaxation_rows(modes_by_seed, cfg.filter_grid, rcfg)
        relax_path = report_dir / f"relaxation_{method}.csv"
        write_relaxation_csv(rows, relax_path)
    report = RunReport(summaries)
    report_path = report_dir / "run_report.csv"
    write_run_report_csv(report, report_path)
    run_manifest["report_files"] = sorted(p.name for p in report_dir.iterdir())
    _write_json(root / "run_manifest.json", run_manifest)
    logger.info("report written: %s", report_path)
    return report


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def run_pipeline(cfg: ExperimentConfig, command: str = "run"):
    """Advance every seed to the stage the command names; `run` also reports.

    Returns the RunReport for `run` and `report`, otherwise the per-seed
    status map.
    """
    if command not in _CUTS and command != "report":
        raise ConfigError(f"unknown pipeline command {command!r}")
    cfg.validate()
    # the digest reads every input file, so a missing or unreadable input
    # fails here, before anything is parsed or created
    digest = cfg.digest()
    posterior = None
    if cfg.posterior_path is not None and command != "report":
        posterior = load_external_posterior(cfg.posterior_path)
        if posterior.method_tag == TRUE_MEC_TAG:
            raise SchemaError(f"{cfg.posterior_path}: method tag {TRUE_MEC_TAG!r} is reserved "
                              "for the true equivalence class")
    root, manifests = _prepare_root(cfg, digest, command)
    run_log = _attach_run_log(root)
    try:
        if command == "report":
            return _aggregate(cfg, root, digest)
        status = _execute_seeds(cfg, root, command, digest, posterior, manifests)
        if command != "run":
            return status
        failed = {i: s["error"] for i, s in status.items() if s["status"] == "failed"}
        if failed:
            logger.warning("%d of %d seeds failed", len(failed), cfg.num_seeds)
        return _aggregate(cfg, root, digest)
    finally:
        _detach_run_log(run_log)


def run_synthetic(cfg: ExperimentConfig) -> RunReport:
    """Full synthetic-protocol run: generate, enumerate, discover, sweep,
    evaluate, aggregate."""
    if cfg.mode != "synthetic":
        raise ConfigError("run_synthetic requires mode=synthetic")
    return run_pipeline(cfg, "run")


def run_real(cfg: ExperimentConfig) -> RunReport:
    """Real-data run: ingest a dataset CSV plus ground-truth edge list, then
    discover (or take the external posterior) and score one seed."""
    if cfg.mode != "real":
        raise ConfigError("run_real requires mode=real")
    return run_pipeline(cfg, "run")


def evaluate_external(posterior_path, dataset_path, graph_path, cfg: ExperimentConfig) -> RunReport:
    """`run_real` with the three paths written into the config, so its digest
    covers them.  The posterior's method tag names the report row and the
    seed's files; a tag that is not a plain file name, or is ``true-mec``, is
    refused before anything is written.
    """
    paths = {"posterior_path": posterior_path, "dataset_path": dataset_path,
             "graph_path": graph_path}
    for key, path in paths.items():
        if not isinstance(path, (str, os.PathLike)):
            raise ConfigError(f"{key} must be a file path, got a {type(path).__name__}")
        paths[key] = os.fspath(path)
    return run_real(cfg.with_overrides(mode="real", **paths))
