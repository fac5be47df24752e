"""Output checks on one finished study, read straight from its files."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Study


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the header, skipping blank and #-comment lines."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def check_study(study: Study, root) -> dict:
    """Failure accounting, pair-row counts and report values of one study.

    `errors` lists every violated expectation; failed seeds are counted in
    `failed_units`, never skipped or treated as errors.
    """
    root = Path(root)
    errors = []
    run_manifest = json.loads((root / "run_manifest.json").read_text(encoding="utf-8"))
    methods = tuple(run_manifest["methods"])
    if methods != study.methods:
        errors.append(f"run manifest methods {methods} != {study.methods}")
    statuses = run_manifest["seeds"]
    if len(statuses) != study.num_seeds:
        errors.append(f"{len(statuses)} seed statuses for {study.num_seeds} seeds")
    failed_seeds = sorted(int(i) for i, s in statuses.items() if s["status"] != "ok")
    pairs = study.d * (study.d - 1)
    seed_dirs = {
        json.loads(p.read_text(encoding="utf-8"))["seed_index"]: p.parent
        for p in (root / "seeds").glob("*/manifest.json")
    }
    for i, status in sorted(statuses.items(), key=lambda kv: int(kv[0])):
        if status["status"] != "ok":
            continue
        for method in methods:
            path = seed_dirs.get(int(i), root / "missing") / "pairs" / f"{method}.csv"
            if not path.exists():
                errors.append(f"seed {i}: no pairs/{method}.csv")
                continue
            n_rows = len(_data_rows(path))
            if n_rows != pairs:
                errors.append(f"seed {i} {method}: {n_rows} pair rows, want {pairs}")

    report_path = root / "report" / "run_report.csv"
    report_bytes = report_path.read_bytes()
    means = {}
    rows = _data_rows(report_path)
    if sorted(r[0] for r in rows) != sorted(methods):
        errors.append(f"report rows {[r[0] for r in rows]} != methods {list(methods)}")
    for row in rows:
        method, wd, _, precision, _, recall, _ = row
        values = {}
        for name, cell in (("wd", wd), ("precision", precision), ("recall", recall)):
            if cell == "":
                if name == "wd":
                    errors.append(f"report {method}: mean WD missing")
                continue
            values[name] = float(cell)
        for cell in row[1:]:
            if cell != "" and not math.isfinite(float(cell)):
                errors.append(f"report {method}: non-finite value {cell}")
        means[method] = values
    return {
        "errors": errors,
        "failed_units": len(failed_seeds) * len(methods),
        "failed_seeds": failed_seeds,
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
        "report_means": means,
    }
