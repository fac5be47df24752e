#!/usr/bin/env python3
"""End-to-end benchmark of atebench studies, plus a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload pc-staged --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run builds the workload's inputs from --seed (see workloads.py), then
runs full studies back to back, each into a fresh output root, for about
--seconds seconds (at least two).  Every study's outputs are checked.  The
last stdout line is one JSON object with `correct`, `attempted` (studies),
`failed` (studies that raised) and `metrics`:

- --trace 0: the end-to-end metrics, measured with tracing off:
  study_s (median study wall time), setup_s (median over fresh interpreters
  of importing atebench and building the inputs), peak_rss_mb and
  artifact_mb (bytes written under one study's output root).
- --trace 1: the per-layer metrics.  Traced and untraced studies alternate;
  the layers are read from the traced ones (median per study) and the
  tracing overhead is their study time minus the untraced one.

The line before it is an `info` object: environment, quartiles and sample
counts, seed_fail_frac (failed (seed, method) units over units attempted; a
study that raises counts all of its units), report sha256 and mean
WD/precision/recall.  A traced run also writes its spans to
.perfbench_runs/trace-<workload>-seed<N>.json.  MB means 10^6 bytes.

--smoke runs every workload at toy size, untraced and traced, and fails
unless every run is correct and measures every metric BENCHMARK.json names.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()

# one BLAS thread: all load comes from this process, on at most nproc threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
sys.path.insert(0, str(SRC))

try:
    import checks  # noqa: E402
    import kernel_cases  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402
except ImportError as exc:
    print(f"perfbench: cannot import atebench from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

# script start to atebench imported, as a fresh process sees it
IMPORT_S = time.perf_counter() - _START

MIN_STUDIES = 2
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# count metrics that must be non-zero in the traced run of each workload:
# the layers that workload exercises
_COMMON_LAYERS = ("mec.members", "ate.dags_swept", "ate.save_bytes", "metrics.pairs",
                  "metrics.relaxation_s", "pipeline.write_s", "pipeline.read_s")
EXERCISED = {
    "score-search": _COMMON_LAYERS + (
        "ges.fits", "ges.moves", "score.local_calls", "mcmc.steps",
        "bootstrap.replicates", "posterior.save_s", "scm.generate_s"),
    "pc-staged": _COMMON_LAYERS + (
        "citest.tests", "pc.fits", "bootstrap.replicates", "ate.load_bytes",
        "posterior.save_s", "posterior.load_s", "scm.generate_s"),
    "external-sweep": _COMMON_LAYERS + ("posterior.load_s",),
}


def _quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    from atebench import kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "atebench").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
    }


def _setup_child(workload: str, seed: int, directory: str, toy: bool) -> None:
    workloads.build(workload, seed, directory, toy=toy)
    print(json.dumps({"import_s": IMPORT_S}))


def _measure_setup(workload: str, seed: int, work: Path, toy: bool, repeats: int) -> list:
    """(wall seconds, import seconds) of fresh interpreters that import
    atebench and build the inputs, each into its own directory."""
    out = []
    for k in range(repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               str(work / f"setup{k}"), "--workload", workload, "--seed", str(seed)]
        if toy:
            cmd.append("--toy")
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: setup child exited with {proc.returncode}")
        out.append((wall, json.loads(proc.stdout.splitlines()[-1])["import_s"]))
    return out


def _run_studies(study, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Full studies back to back until the next one would overrun `seconds`;
    with tracing, untraced and traced studies alternate."""
    records = []
    start = time.perf_counter()
    while True:
        k = len(records)
        traced = trace and k % 2 == 1
        out = work / f"study{k}"
        tracer = tracing.Tracer(k) if traced else None
        rec = {"study": k, "traced": traced, "error": None}
        t0 = time.perf_counter()
        try:
            if traced:
                with tracing.installed(tracer):
                    workloads.run(study, out)
            else:
                workloads.run(study, out)
        except Exception:  # a study that raises is counted, and the run goes on
            rec["error"] = traceback.format_exc(limit=3)
        rec["wall_s"] = time.perf_counter() - t0
        if rec["error"] is None:
            rec["bytes"] = workloads.tree_bytes(out)
            rec.update(checks.check_study(study, out))
            if traced:
                rec["layers"] = tracing.layer_metrics(tracer, rec["wall_s"])
                rec["stages"] = tracing.stage_check(tracer, out)
        if traced:
            rec["spans"] = tracer.spans
            rec["counters"] = dict(tracer.counters)
        shutil.rmtree(out, ignore_errors=True)
        records.append(rec)
        done = [r["wall_s"] for r in records]
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_STUDIES and elapsed + statistics.median(done) > seconds:
            return records


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  toy: bool = False) -> tuple[dict, dict]:
    """One run; returns (result line, info line)."""
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = _measure_setup(workload, seed, work, toy, 1 if toy else SETUP_REPEATS)
        study = workloads.build(workload, seed, work / "inputs", toy=toy)
        records = _run_studies(study, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in records if r["error"] is None]
    errors = [e for r in ok for e in r["errors"]]
    errors += [f"study {r['study']} raised: {r['error']}" for r in records if r["error"]]
    shas = sorted({r["report_sha256"] for r in ok})
    if len(shas) > 1:
        errors.append(f"run_report.csv differs across repeats: {shas}")
    failed_units = sum(r["failed_units"] if r["error"] is None else study.units
                       for r in records)
    untraced = [r["wall_s"] for r in ok if not r["traced"]]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "studies": len(records),
        "study_walls_s": [round(r["wall_s"], 4) for r in records],
        "study_s": _quartiles(untraced) if untraced else None,
        "setup_s": _quartiles([s[0] for s in setups]),
        "seed_fail_frac": failed_units / (study.units * len(records)),
        "failed_seeds": ok[0]["failed_seeds"] if ok else None,
        "report_sha256": shas[0] if len(shas) == 1 else shas,
        "report_means": ok[0]["report_means"] if ok else None,
    }
    if not trace:
        metrics = {
            "study_s": statistics.median(untraced) if untraced else 0.0,
            "setup_s": statistics.median(s[0] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "artifact_mb": statistics.median(r["bytes"] for r in ok) / 1e6 if ok else 0.0,
        }
    else:
        traced = [r for r in ok if r["traced"]]
        metrics = _trace_metrics(traced, untraced, setups, kernel_cases.measure(),
                                 info["seed_fail_frac"])
        stage_rows = [row for r in traced for row in r["stages"]]
        bad = [row for row in stage_rows if not row["ok"]]
        if not stage_rows or bad:
            errors.append(f"stage seconds disagree with the manifests: {bad[:5] or 'none checked'}")
        missing = [m for m in EXERCISED[workload] if not metrics.get(m, 0) > 0]
        if missing or not traced:
            errors.append(f"traced layers not exercised: {missing or 'no traced study'}")
        info["stage_check"] = {"checked": len(stage_rows), "mismatched": len(bad),
                               "max_gap_s": max((r["manifest_s"] - r["traced_s"]
                                                 for r in stage_rows), default=None)}
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "info": info,
            "studies": [{k: v for k, v in r.items() if k != "errors"} for r in records],
        }))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    unmeasured = [m["name"] for m in wanted if m["name"] not in metrics]
    if unmeasured:
        errors.append(f"metrics not measured: {unmeasured}")
    info["errors"] = errors[:10]
    result = {
        "correct": bool(ok) and not errors,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    return result, info


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _trace_metrics(traced, untraced, setups, kernel_metrics, seed_fail_frac) -> dict:
    values = dict(kernel_metrics)
    for name in traced[0]["layers"] if traced else ():
        values[name] = statistics.median(r["layers"][name] for r in traced)
    traced_s = statistics.median(r["wall_s"] for r in traced) if traced else 0.0
    values["import.s"] = statistics.median(s[1] for s in setups)
    values["pipeline.seed_fail_frac"] = seed_fail_frac
    values["trace.study_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(untraced) if untraced else 0.0
    return values


def smoke() -> int:
    """Every workload at toy size, untraced and traced; 0 when all pass."""
    status = 0
    for workload in (w["name"] for w in _spec()["workloads"]):
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, info = run_benchmark(workload, 0, 0, bool(trace), toy=True)
            passed = result["correct"] and not result["failed"]
            print(f"smoke {workload} trace={trace}: {'ok' if passed else 'FAIL'} "
                  f"({time.perf_counter() - t0:.1f} s)")
            for problem in info["errors"]:
                print(f"  {problem}")
            status |= not passed
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size run of every workload")
    ap.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    workloads = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    if args.setup_child:
        _setup_child(args.workload, args.seed, args.setup_child, args.toy)
        return 0
    result, info = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
