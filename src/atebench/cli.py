"""Command-line entry point: stage subcommands over a key=value config."""

from __future__ import annotations

import argparse
import os
import sys

from .config import _FIELDS, _PARSERS, ExperimentConfig, read_config_values
from .errors import AteBenchError
from .pipeline import run_pipeline

OUTPUT_ROOT_ENV = "ATEBENCH_OUTPUT_ROOT"

_KEY_HELP = {
    "mode": "synthetic or real",
    "d": "number of variables",
    "n": "sample size per dataset",
    "num_seeds": "independent seeds (synthetic mode)",
    "master_seed": "root seed for every stream",
    "posterior_size": "DAG samples kept per posterior",
    "methods": "comma-separated: bootstrap-pc, bootstrap-ges, mcmc",
    "er_expected_edges": "expected edge count of sampled truth graphs (default d; at most d(d-1)/2)",
    "weight_low": "minimum |edge weight|",
    "weight_high": "maximum |edge weight|",
    "ci_alpha": "Fisher-z test level for PC",
    "max_condition_size": "cap on PC conditioning-set size (default none)",
    "mcmc_steps": "structure-MCMC proposals",
    "mcmc_burn_in": "discarded initial proposals",
    "mcmc_thin": "keep every k-th sample (default derived from posterior_size)",
    "regroup_rtol": "relative tolerance when merging near-equal ATE values",
    "regroup_atol": "absolute tolerance when merging near-equal ATE values",
    "filter_grid": "comma-separated mass thresholds for the relaxation table",
    "filter_tolerance": "mass threshold used for the headline mode metrics",
    "treatment_value_a": "reference treatment level",
    "treatment_value_b": "active treatment level",
    "mec_cap": "abort if the true MEC exceeds this many members",
    "workers": "process count for the per-seed stages",
    "output_root": "run directory (or set " + OUTPUT_ROOT_ENV + ")",
    "dataset_path": "real mode: observations CSV",
    "graph_path": "real mode: ground-truth edge list",
    "posterior_path": "real mode: an external posterior, one multi-graph text file",
    "standardize": "z-score each column before discovery",
}

_COMMANDS = [
    ("generate", "sample truth graphs, SCMs, and datasets (or ingest real data)"),
    ("discover", "additionally fit one posterior per configured method"),
    ("ate-sweep", "additionally run the true-MEC and per-method ATE sweeps"),
    ("evaluate", "additionally score every pair (WD, mode precision/recall)"),
    ("run", "all stages plus the aggregated report"),
    ("report", "re-aggregate completed per-seed results into the report"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atebench",
        description="Benchmark causal discovery methods by the ATE distributions they imply.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE", help="key=value config file")
        for key in _FIELDS:
            sp.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                metavar="V",
                help=_KEY_HELP[key],
            )
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's keys, then the flags, then the output-root variable,
    validated once as a whole: keys that only make sense together may be
    split between file and flags."""
    values = read_config_values(args.config) if args.config else {}
    for key in _FIELDS:
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _PARSERS[key](key, raw)
    if values.get("output_root") is None and os.environ.get(OUTPUT_ROOT_ENV):
        values["output_root"] = os.environ[OUTPUT_ROOT_ENV]
    return ExperimentConfig(**values).validate()


def _print_report(report, root) -> None:
    def cell(mean, se):
        if mean is None:
            return "undefined"
        if se is None:
            return f"{mean:.4f}"
        return f"{mean:.4f} +- {se:.4f}"

    print(f"report: {os.path.join(root, 'report', 'run_report.csv')}")
    rows = [("method", "wd", "precision", "recall", "seeds", "pairs")]
    for s in report.summaries:
        rows.append(
            (
                s.method,
                cell(s.wd_mean, s.wd_se),
                cell(s.precision_mean, s.precision_se),
                cell(s.recall_mean, s.recall_se),
                str(s.num_seeds),
                str(s.num_pairs),
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())


def _print_status(status: dict) -> int:
    failed = {i: s["error"] for i, s in status.items() if s["status"] == "failed"}
    print(f"seeds completed: {len(status) - len(failed)}/{len(status)}")
    for i in sorted(failed):
        print(f"seed {i} failed: {failed[i]}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _assemble_config(args)
        result = run_pipeline(cfg, args.command)
    except AteBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command in ("run", "report"):
        _print_report(result, cfg.output_root)
        return 0
    return _print_status(result)


if __name__ == "__main__":
    sys.exit(main())
