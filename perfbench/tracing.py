"""Spans and counters recorded around calls into atebench, from outside it.

`installed(tracer)` swaps each traced public function (and the few
orchestrator boundaries the stage timings need) for a wrapper that records a
span: name, start, end, parent span, plus the pipeline seed and stage the
call belongs to.  Hot inner calls (CI tests, local BIC scores) only bump
counters.  The counters the package already logs (`pc: ci_tests=`,
`ges: moves=`, `bootstrap: ... replicates=`, `structure_mcmc: ... accepted=`,
and one `bootstrap replicate ... redrawn` warning per redraw, which also
covers bootstraps that fail) are read through a logging handler.  Everything is restored on exit, so the
untraced studies of a run execute the unmodified code.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import logging
import os
import re
import time
from collections import Counter
from pathlib import Path

from atebench import kernels, pipeline
from atebench.discovery.citest import FisherZTester
from atebench.mec import MecEnumeration

# the package re-exports the function under the submodule's name
bootstrap_module = importlib.import_module("atebench.discovery.bootstrap")

# spans of the orchestrator itself; everything else is a layer below it
PIPELINE_SPANS = frozenset({
    "pipeline.run_pipeline", "pipeline.evaluate_external", "pipeline.seed",
    "pipeline.flush", "pipeline.aggregate",
})

# a manifest stage's `seconds` may exceed its traced calls by this much glue
STAGE_ABS_TOL_S = 0.003
STAGE_REL_TOL = 0.02

_LOGGED = {
    "pc:": (("ci_tests", "citest.tests"),),
    "ges:": (("moves", "ges.moves"),),
    "bootstrap:": (("replicates", "bootstrap.replicates"),),
    "structure_mcmc:": (("steps", "mcmc.steps"), ("accepted", "mcmc.accepted")),
}


class Tracer:
    """In-memory spans and counters of one study."""

    def __init__(self, study_id: int):
        self.study_id = study_id
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.seed = None
        self._stack: list[int] = []

    def open(self, name: str, kind=None, stage=None) -> dict:
        span = {
            "id": len(self.spans), "study": self.study_id, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "seed": self.seed, "stage": stage, "kind": kind,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)


class _LogCounters(logging.Handler):
    def __init__(self, counters: Counter):
        super().__init__(logging.INFO)
        self.counters = counters

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("bootstrap replicate") and "redrawn" in msg:
            self.counters["bootstrap.redraws"] += 1
            return
        for prefix, fields in _LOGGED.items():
            if msg.startswith(prefix):
                for key, name in fields:
                    m = re.search(rf"\b{key}=(\d+)", msg)
                    if m:
                        self.counters[name] += int(m.group(1))


def _duration(span) -> float:
    return span["end"] - span["start"]


def _stage_of_sweep(args, kwargs):
    bag = args[0] if args else kwargs["dag_bag"]
    if isinstance(bag, MecEnumeration):
        return "truth"
    tag = getattr(bag, "method_tag", None)
    return f"ates:{tag}" if tag is not None else None


def _stage_of_bootstrap(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "pc")
    return f"discover:bootstrap-{method}"


def _stage_of_evaluate(args, kwargs):
    learned = args[1] if len(args) > 1 else kwargs["learned_sets"]
    return f"evaluate:{next(iter(learned.values())).source_tag}"


def _path_bytes(index):
    def after(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}
    return after


# (owner, attribute, span name, kind, stage-of-call, attributes-after-call)
def _targets():
    p, b = pipeline, bootstrap_module
    generate = lambda a, k: "generate"  # noqa: E731
    return [
        (p, "run_pipeline", "pipeline.run_pipeline", None, None, None),
        (p, "evaluate_external", "pipeline.evaluate_external", None, None, None),
        (p, "_flush_seed_result", "pipeline.flush", "write", None, None),
        (p, "_aggregate", "pipeline.aggregate", None, None, None),
        (p, "random_er_dag", "scm.random_er_dag", None, generate, None),
        (p, "random_scm", "scm.random_scm", None, generate, None),
        (p, "sample", "scm.sample", None, generate, None),
        (p, "load_dataset", "scm.load_dataset", "read", None, None),
        (p, "save_dataset", "scm.save_dataset", "write", None, None),
        (p, "save_scm", "scm.save_scm", "write", None, None),
        (p, "load_dag", "graphs.load_dag", "read", None, None),
        (p, "save_graph", "graphs.save_graph", "write", None, None),
        (p, "enumerate_mec", "mec.enumerate_mec", None, lambda a, k: "truth",
         lambda a, k, r: {"members": len(r.members)}),
        (p, "save_mec", "mec.save_mec", "write", None, None),
        (p, "sweep", "ate.sweep", None, _stage_of_sweep,
         lambda a, k, r: {"dags": len(next(iter(r.values())))}),
        (p, "save_ate_samples", "ate.save_ate_samples", "write", None, _path_bytes(2)),
        (p, "load_ate_samples", "ate.load_ate_samples", "read", None, _path_bytes(0)),
        (p, "bootstrap", "discovery.bootstrap", None, _stage_of_bootstrap, None),
        (p, "structure_mcmc", "discovery.structure_mcmc", None,
         lambda a, k: "discover:mcmc", None),
        (p, "save_posterior", "posterior.save_posterior", "write", None, None),
        (p, "load_external_posterior", "posterior.load_external_posterior", "read", None, None),
        (p, "evaluate_pair_sets", "metrics.evaluate_pair_sets", None, _stage_of_evaluate,
         lambda a, k, r: {"pairs": len(r[0])}),
        (p, "aggregate", "metrics.aggregate", None, None, None),
        (p, "relaxation_rows", "metrics.relaxation_rows", None, None, None),
        (p, "write_pair_reports_csv", "metrics.write_pair_reports_csv", "write", None, None),
        (p, "write_modes_csv", "metrics.write_modes_csv", "write", None, None),
        (p, "write_relaxation_csv", "metrics.write_relaxation_csv", "write", None, None),
        (p, "write_run_report_csv", "metrics.write_run_report_csv", "write", None, None),
        (p, "read_pair_reports_csv", "metrics.read_pair_reports_csv", "read", None, None),
        (p, "read_modes_csv", "metrics.read_modes_csv", "read", None, None),
        (b, "pc", "discovery.pc", None, None, None),
        (b, "ges", "discovery.ges", None, None, None),
        (kernels, "mcmc_chain", "kernels.mcmc_chain", None, None, None),
    ]


def _span_wrapper(tracer, orig, name, kind, stage, after):
    def wrapper(*args, **kwargs):
        label = stage(args, kwargs) if stage is not None and tracer.seed is not None else None
        span = tracer.open(name, kind, label)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            span.update(after(args, kwargs, result))
        return result
    return wrapper


def _seed_wrapper(tracer, orig):
    def wrapper(cfg, seed_index, *rest):
        tracer.seed = seed_index
        try:
            return tracer.call("pipeline.seed", orig, cfg, seed_index, *rest)
        finally:
            tracer.seed = None
    return wrapper


def _citest_wrapper(tracer, orig):
    counters = tracer.counters

    def independent(self, i, j, cond):
        t0 = time.perf_counter()
        try:
            return orig(self, i, j, cond)
        finally:
            counters["citest.s"] += time.perf_counter() - t0
    return independent


def _local_bic_wrapper(tracer, orig):
    counters = tracer.counters

    def local_bic(gram, n_rows, node, mask, cache):
        before = len(cache)
        score = orig(gram, n_rows, node, mask, cache)
        counters["score.local_calls"] += 1
        counters["score.local_unique"] += len(cache) - before
        return score
    return local_bic


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route atebench's layer calls through `tracer` until the block exits."""
    patches = [
        (owner, attr, _span_wrapper(tracer, getattr(owner, attr), name, kind, stage, after))
        for owner, attr, name, kind, stage, after in _targets()
    ]
    patches += [
        (pipeline, "_seed_compute", _seed_wrapper(tracer, pipeline._seed_compute)),
        (FisherZTester, "independent", _citest_wrapper(tracer, FisherZTester.independent)),
        (kernels, "_local_bic", _local_bic_wrapper(tracer, kernels._local_bic)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    handler = _LogCounters(tracer.counters)
    pkg_logger = logging.getLogger("atebench")
    pkg_logger.addHandler(handler)
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)
        pkg_logger.removeHandler(handler)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced study."""
    spans = tracer.spans
    c = tracer.counters

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(*names):
        return sum(_duration(s) for s in spans if s["name"] in names)

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in named(name))

    by_id = {s["id"]: s for s in spans}

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    pc_fits, ges_fits = len(named("discovery.pc")), len(named("discovery.ges"))
    steps = c["mcmc.steps"]
    calls = c["score.local_calls"]
    pipeline_child = [
        s for s in spans
        if s["name"] not in PIPELINE_SPANS
        and (s["parent"] is None or parent_name(s) in PIPELINE_SPANS)
    ]
    return {
        "citest.tests": c["citest.tests"],
        "citest.s": c["citest.s"],
        "pc.fits": pc_fits,
        "pc.s": seconds("discovery.pc"),
        "bootstrap.replicates": c["bootstrap.replicates"],
        "bootstrap.redraws": c["bootstrap.redraws"],
        "bootstrap.useful_ratio": (
            c["bootstrap.replicates"] / (pc_fits + ges_fits) if pc_fits + ges_fits else 0.0
        ),
        "ges.fits": ges_fits,
        "ges.s": seconds("discovery.ges"),
        "ges.moves": c["ges.moves"],
        "score.local_calls": calls,
        "score.local_unique": c["score.local_unique"],
        "score.cache_hit_ratio": 1.0 - c["score.local_unique"] / calls if calls else 0.0,
        "mcmc.steps": steps,
        "mcmc.s": seconds("discovery.structure_mcmc"),
        "mcmc.step_us": 1e6 * seconds("kernels.mcmc_chain") / steps if steps else 0.0,
        "mcmc.accept_ratio": c["mcmc.accepted"] / steps if steps else 0.0,
        "mec.members": attr_sum("mec.enumerate_mec", "members"),
        "mec.enumerate_s": seconds("mec.enumerate_mec"),
        "ate.dags_swept": attr_sum("ate.sweep", "dags"),
        "ate.sweep_s": seconds("ate.sweep"),
        "ate.save_s": seconds("ate.save_ate_samples"),
        "ate.save_bytes": attr_sum("ate.save_ate_samples", "bytes"),
        "ate.load_s": seconds("ate.load_ate_samples"),
        "ate.load_bytes": attr_sum("ate.load_ate_samples", "bytes"),
        "posterior.save_s": seconds("posterior.save_posterior"),
        "posterior.load_s": seconds("posterior.load_external_posterior"),
        "metrics.pairs": attr_sum("metrics.evaluate_pair_sets", "pairs"),
        "metrics.evaluate_s": seconds("metrics.evaluate_pair_sets"),
        "metrics.relaxation_s": seconds("metrics.relaxation_rows"),
        "scm.generate_s": seconds("scm.random_er_dag", "scm.random_scm", "scm.sample"),
        # top-most writes and reads below the orchestrator: a flush counts
        # whole, the files written inside it are already part of it
        "pipeline.write_s": sum(
            _duration(s) for s in spans
            if s["kind"] == "write" and parent_name(s) != "pipeline.flush"
        ),
        "pipeline.read_s": sum(_duration(s) for s in spans if s["kind"] == "read"),
        "pipeline.self_s": wall_s - sum(_duration(s) for s in pipeline_child),
    }


def stage_check(tracer: Tracer, output_root) -> list[dict]:
    """Each seed manifest's stage `seconds` against the traced calls made
    inside that stage: never less than them, and more by glue only."""
    traced: Counter = Counter()
    for s in tracer.spans:
        if s["stage"] is not None:
            traced[(s["seed"], s["stage"])] += _duration(s)
    rows = []
    for path in sorted(Path(output_root, "seeds").glob("*/manifest.json")):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        seed = manifest["seed_index"]
        for stage, entry in sorted(manifest["stages"].items()):
            want = float(entry["seconds"])
            got = traced.get((seed, stage), 0.0)
            ok = -1e-5 <= want - got <= STAGE_ABS_TOL_S + STAGE_REL_TOL * want
            rows.append({"seed": seed, "stage": stage, "manifest_s": want,
                         "traced_s": round(got, 6), "ok": ok})
    return rows
