"""atebench runs on numpy and the standard library alone: a fresh interpreter
that imports the CLI, or runs a whole single-worker study, loads no scipy and
no process pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import json
import sys


def loaded(*names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))


import atebench.cli
import atebench.pipeline

after_import = loaded("scipy", "concurrent.futures.process", "multiprocessing")
code = atebench.cli.main([
    "run", "--d", "4", "--n", "60", "--num-seeds", "1", "--master-seed", "3",
    "--posterior-size", "4", "--methods", "bootstrap-pc,bootstrap-ges,mcmc",
    "--mcmc-steps", "400", "--mcmc-burn-in", "100", "--workers", "1",
    "--output-root", sys.argv[1],
])
print(json.dumps({"code": code, "after_import": after_import, "after_report": loaded("scipy")}))
"""


def test_a_cold_start_and_a_single_worker_study_import_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "study")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    assert (tmp_path / "study" / "report" / "run_report.csv").is_file()
    assert out["after_import"] == []
    assert out["after_report"] == []
