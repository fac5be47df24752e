"""Bootstrap posteriors: resample rows, refit a CPDAG, keep one extension each."""

from __future__ import annotations

import logging

import numpy as np

from ..errors import DegenerateDataError, ExtensionError, ParameterError
from ..graphs import consistent_extension
from ..scm import Dataset
from .citest import CiTestConfig
from .ges import ges
from .pc import pc
from .posterior import PosteriorSample, uniform_posterior

logger = logging.getLogger(__name__)

DEFAULT_REPLICATES = 128
# a degenerate resample (or a non-extendable estimate) is redrawn this many
# times before the replicate is declared failed
MAX_REDRAWS = 10


def bootstrap(
    data: Dataset,
    method: str = "pc",
    num_replicates: int = DEFAULT_REPLICATES,
    seed: int = 0,
    ci: CiTestConfig | None = None,
) -> PosteriorSample:
    """Nonparametric bootstrap over rows around a point estimator.

    Each replicate resamples n rows with replacement, fits a CPDAG with the
    base method, and contributes one member DAG drawn as a seeded consistent
    extension.  Weights are uniform.  Sample-size violations propagate
    unchanged (a redraw cannot fix them); degenerate resamples and
    non-extendable estimates are redrawn with a fresh sub-seed.
    """
    if method not in ("pc", "ges"):
        raise ParameterError(f"unknown bootstrap base method {method!r}")
    if num_replicates < 1:
        raise ParameterError("num_replicates must be >= 1")
    fit = (lambda ds: pc(ds, ci)) if method == "pc" else ges
    n = data.n
    dags = []
    redraws = 0
    for k in range(num_replicates):
        member = None
        for attempt in range(MAX_REDRAWS):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, attempt))
            rng = np.random.default_rng(ss)
            rows = rng.integers(0, n, size=n)
            boot = Dataset(data.values[rows], data.column_labels)
            try:
                estimate = fit(boot)
                member = consistent_extension(estimate, seed=int(ss.generate_state(1)[0]))
            except (DegenerateDataError, ExtensionError) as exc:
                redraws += 1
                logger.warning("bootstrap replicate %d attempt %d redrawn: %s", k, attempt, exc)
                continue
            break
        if member is None:
            raise DegenerateDataError(
                f"bootstrap replicate {k} failed {MAX_REDRAWS} times with method {method!r}"
            )
        dags.append(member)
    logger.info(
        "bootstrap: method=%s replicates=%d redraws=%d", method, num_replicates, redraws
    )
    return uniform_posterior(dags, f"bootstrap-{method}", seed)
