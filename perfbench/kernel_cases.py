"""The four kernel cases of benchmarks/bench_kernels.py, on fixed inputs, timed
on whichever backend `kernels.backend_name()` reports."""

from __future__ import annotations

import statistics
import time

import numpy as np

from atebench import kernels
from atebench.discovery.score import centered_gram
from atebench.scm import random_er_dag, random_scm, sample

REPEATS = 5
MCMC_STEPS = 1_000


def _median_seconds(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure() -> dict:
    """Median seconds per call of closure, sweep and WD, and microseconds per
    MCMC step; inputs never depend on the workload or its seed."""
    rng = np.random.default_rng(0)
    d = 20
    g = random_er_dag(d, 2 * d, seed=0)
    gram = centered_gram(sample(random_scm(g, seed=0), 2_000, seed=0).values)
    stack = np.stack([random_er_dag(d, 2 * d, seed=k).adjacency for k in range(256)])
    closure = kernels.transitive_closure_batch(stack)

    nw = 4_000
    xs = np.sort(rng.normal(0.0, 1.0, nw))
    ys = np.sort(rng.normal(0.5, 1.3, nw))
    wx = rng.random(nw)
    wy = rng.random(nw)
    wx /= wx.sum()
    wy /= wy.sum()

    small = sample(random_scm(random_er_dag(8, 10, seed=1), seed=1), 1_000, seed=1)
    small_gram = centered_gram(small.values)
    uniforms = rng.random((MCMC_STEPS, 2))

    return {
        "kernels.closure_s": _median_seconds(lambda: kernels.transitive_closure_batch(stack)),
        "kernels.sweep_s": _median_seconds(lambda: kernels.ate_sweep_kernel(gram, stack, closure)),
        "kernels.wd_s": _median_seconds(lambda: kernels.weighted_wasserstein(xs, wx, ys, wy)),
        "kernels.mcmc_step_us": 1e6 / MCMC_STEPS * _median_seconds(
            lambda: kernels.mcmc_chain(small_gram, small.n, MCMC_STEPS, 100, 10, uniforms)
        ),
    }
