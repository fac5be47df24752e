#!/usr/bin/env python3
"""Time the numerical kernels, best of several repeats per case.

With numba installed, the cases run twice in subprocesses, once per backend
(selected via the ATEBENCH_DISABLE_NUMBA environment flag), and a comparison
table is printed; compiled timings exclude the one-off jit warm-up.  Without
numba there is only the numpy backend, so the cases run once in-process and
one table is printed.  The MCMC case is reported per chain step.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import json
import os
import subprocess
import sys
import time

MCMC_STEPS = 20_000
MCMC_CASE = "mcmc_chain (d=8, 20k steps)"


def _workload(repeats: int) -> dict:
    import numpy as np

    from atebench import kernels
    from atebench.discovery.score import centered_gram
    from atebench.scm import random_er_dag, random_scm, sample

    rng = np.random.default_rng(0)
    d = 20
    g = random_er_dag(d, 2 * d, seed=0)
    data = sample(random_scm(g, seed=0), 2_000, seed=0)
    gram = centered_gram(data.values)

    # a posterior-sized stack of DAGs to close over and sweep
    stack = np.stack(
        [random_er_dag(d, 2 * d, seed=k).adjacency for k in range(256)]
    )
    closure = kernels.transitive_closure_batch(stack)

    nw = 4_000
    xs = np.sort(rng.normal(0.0, 1.0, nw))
    ys = np.sort(rng.normal(0.5, 1.3, nw))
    wx = rng.random(nw)
    wy = rng.random(nw)
    wx /= wx.sum()
    wy /= wy.sum()

    uniforms = rng.random((MCMC_STEPS, 2))
    small = sample(random_scm(random_er_dag(8, 10, seed=1), seed=1), 1_000, seed=1)
    small_gram = centered_gram(small.values)

    cases = {
        "transitive_closure_batch (256 x d=20)": lambda: kernels.transitive_closure_batch(stack),
        "ate_sweep_kernel (256 x d=20)": lambda: kernels.ate_sweep_kernel(gram, stack, closure),
        "weighted_wasserstein (4000 vs 4000)": lambda: kernels.weighted_wasserstein(xs, wx, ys, wy),
        MCMC_CASE: lambda: kernels.mcmc_chain(
            small_gram, small.n, MCMC_STEPS, 1_000, 10, uniforms
        ),
    }

    out = {}
    for name, fn in cases.items():
        fn()  # warm-up: triggers jit compilation on the compiled backend
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return {"backend": kernels.backend_name(), "timings": out}


def _child(repeats: int) -> None:
    print(json.dumps(_workload(repeats)))


def _run_child(disable: bool, repeats: int) -> dict:
    env = dict(os.environ)
    if disable:
        env["ATEBENCH_DISABLE_NUMBA"] = "1"
    else:
        env.pop("ATEBENCH_DISABLE_NUMBA", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--as-child", str(repeats)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _fmt(name: str, seconds: float) -> str:
    if name == MCMC_CASE:
        text = f"{seconds * 1e6 / MCMC_STEPS:.1f}us/step"
    else:
        text = f"{seconds * 1e3:.2f}ms"
    return f"{text:>14}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--as-child", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.as_child is not None:
        _child(args.as_child)
        return 0

    from atebench import kernels

    if not kernels.HAS_NUMBA:
        only = _workload(args.repeats)
        width = max(len(k) for k in only["timings"])
        print(f"backend: {only['backend']} (numba not installed; best of {args.repeats})")
        print(f"{'kernel':<{width}}  {only['backend']:>14}")
        for name, t in only["timings"].items():
            print(f"{name:<{width}}  {_fmt(name, t)}")
        return 0

    fast = _run_child(disable=False, repeats=args.repeats)
    slow = _run_child(disable=True, repeats=args.repeats)
    width = max(len(k) for k in fast["timings"])
    print(f"backends: {fast['backend']} vs {slow['backend']} "
          f"(best of {args.repeats})")
    print(f"{'kernel':<{width}}  {fast['backend']:>14}  {slow['backend']:>14}  {'speedup':>8}")
    for name, t_fast in fast["timings"].items():
        t_slow = slow["timings"][name]
        print(f"{name:<{width}}  {_fmt(name, t_fast)}  {_fmt(name, t_slow)}  "
              f"{t_slow / t_fast:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
