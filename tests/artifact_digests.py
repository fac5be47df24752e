"""Recorded sha256 digests of every artifact of three fixed studies.

``artifact_digests.json``, next to this file, maps each study to the sha256
of every file its output root holds, keyed by the file's path under the
study's directory, and records the numpy and Python versions it was made
under.  Tier-1 reruns the studies and compares (``test_acceptance.py`` for
the A7-A9 study, ``test_artifact_digests.py`` for the other two), so a
change that moves any artifact byte fails there and names the files.

The studies:

- ``a07-a09``: the A7-A9 study, d=10, 5 seeds, bootstrap-PC and
  bootstrap-GES, at n=20 and n=100;
- ``d6-three-methods``: d=6, 3 seeds, every built-in method, a treatment
  contrast of 1.7, run with two workers; seed 2's true class is over the
  cap, so its manifest records a failure at ``truth``;
- ``real-staged``: a real-mode study of an external posterior, run as the
  staged generate, discover, ate-sweep, evaluate and report commands.

Rewrite the record, and print each file whose digest changed, with::

    PYTHONPATH=src python tests/artifact_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from atebench.config import ExperimentConfig
from atebench.discovery import PosteriorSample, save_posterior
from atebench.graphs import Dag, save_graph
from atebench.mec import enumerate_mec
from atebench.pipeline import run_pipeline
from atebench.scm import random_er_dag, random_scm, sample, save_dataset

RECORD = Path(__file__).with_name("artifact_digests.json")

STAGED = ("generate", "discover", "ate-sweep", "evaluate", "report")


def tree_hashes(root):
    """Hashes of every artifact but the log and the echoed config, which
    record wall-clock times, absolute paths and the volatile workers value.

    The run and seed manifests are in, with each stage's wall-clock
    `seconds` masked.  Every bag of DAGs is in: the methods' posteriors and
    the true class's mec.txt, all in the one multi-graph posterior format.
    """
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if name == "run.log" or name == "run_config.txt":
                continue
            data = open(path, "rb").read()
            if name.endswith("manifest.json"):
                data = re.sub(rb'"seconds": [-+.0-9eE]+', b'"seconds": null', data)
            out[rel] = hashlib.sha256(data).hexdigest()
    return out


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def differences(recorded: dict, found: dict) -> list[str]:
    """One line per file whose digest changed, appeared or disappeared."""
    lines = [f"changed: {rel}" for rel in sorted(recorded.keys() & found.keys())
             if recorded[rel] != found[rel]]
    lines += [f"new: {rel}" for rel in sorted(found.keys() - recorded.keys())]
    return lines + [f"gone: {rel}" for rel in sorted(recorded.keys() - found.keys())]


def check(study: str, root) -> None:
    """Fail unless every file under root has the study's recorded digest,
    under the numpy and Python versions the record was made with."""
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    for key, have in versions().items():
        assert record[key] == have, (
            f"{RECORD.name} was recorded under {key} {record[key]}, this is {key} {have}; "
            "rewrite it with tests/artifact_digests.py"
        )
    lines = differences(record["studies"][study], tree_hashes(root))
    assert not lines, f"study {study!r} differs from {RECORD.name}:\n" + "\n".join(lines)


def d6_study(root) -> None:
    cfg = ExperimentConfig(
        d=6, n=80, num_seeds=3, master_seed=5, posterior_size=12,
        methods=("bootstrap-pc", "bootstrap-ges", "mcmc"),
        mcmc_steps=1500, mcmc_burn_in=300, treatment_value_b=1.7, mec_cap=4,
        workers=2, output_root=str(root),
    )
    run_pipeline(cfg, "run")


def real_inputs(folder) -> ExperimentConfig:
    """Dataset, truth and external posterior files for the real-mode study
    in folder, and a config naming them; the posterior mixes the true class
    with graphs one edge flip away, under unequal weights."""
    folder = Path(folder)
    folder.mkdir(parents=True, exist_ok=True)
    g = random_er_dag(5, 5, seed=4)
    save_graph(g, folder / "truth.txt")
    save_dataset(sample(random_scm(g, seed=4), 120, seed=4), folder / "data.csv")
    members = list(enumerate_mec(g).members)
    flipped = []
    for i, j in zip(*np.nonzero(g.adjacency)):
        adj = g.adjacency.copy()
        adj[i, j], adj[j, i] = False, True
        flipped.append(Dag(g.labels, adj))
    bag = members + flipped
    weights = np.arange(1, len(bag) + 1, dtype=float)
    save_posterior(PosteriorSample(bag, weights / weights.sum(), "ext-sampler", 0),
                   folder / "posterior.txt")
    return ExperimentConfig(
        mode="real", dataset_path=str(folder / "data.csv"),
        graph_path=str(folder / "truth.txt"), posterior_path=str(folder / "posterior.txt"),
        treatment_value_b=1.7,
    )


def real_study(root, cfg: ExperimentConfig, staged: bool = True) -> None:
    cfg = cfg.with_overrides(output_root=str(root))
    for command in STAGED if staged else ("run",):
        run_pipeline(cfg, command)


def _run_all(base: Path) -> dict:
    from test_acceptance import _trend_cfg  # the script's own directory is on sys.path

    for n in (20, 100):
        run_pipeline(_trend_cfg(base / "a07-a09" / f"n{n:03d}", n, workers=1), "run")
    d6_study(base / "d6-three-methods")
    real_study(base / "real-staged", real_inputs(base / "real-inputs"))
    return {s: tree_hashes(base / s) for s in ("a07-a09", "d6-three-methods", "real-staged")}


def main() -> int:
    old = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {"studies": {}}
    with tempfile.TemporaryDirectory() as tmp:
        studies = _run_all(Path(tmp))
    for key, have in versions().items():
        if old.get(key, have) != have:
            print(f"{key}: {old[key]} -> {have}")
    for study, hashes in studies.items():
        for line in differences(old["studies"].get(study, {}), hashes):
            print(f"{study}: {line}")
    RECORD.write_text(json.dumps({**versions(), "studies": studies}, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"{RECORD}: {sum(map(len, studies.values()))} files in {len(studies)} studies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
