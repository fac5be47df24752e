"""Structure MCMC over DAGs targeting the exp(BIC) pseudo-posterior."""

from __future__ import annotations

import logging

import numpy as np

from .. import kernels
from ..errors import ParameterError
from ..scm import Dataset
from .posterior import PosteriorSample
from .score import centered_gram

logger = logging.getLogger(__name__)

DEFAULT_STEPS = 500_000
DEFAULT_BURN_IN = 100_000
# with no explicit thin, pick a stride that keeps about this many samples
TARGET_SAMPLES = 1_000


def structure_mcmc(
    data: Dataset,
    steps: int = DEFAULT_STEPS,
    burn_in: int = DEFAULT_BURN_IN,
    thin: int | None = None,
    seed: int = 0,
) -> PosteriorSample:
    """Metropolis-Hastings over DAG space with add/delete/reverse moves.

    Proposals are uniform over the moves legal in the current state; the
    acceptance ratio corrects for the changing move count.  Kept samples are
    returned with uniform weights.
    """
    if burn_in < 0 or steps <= burn_in:
        raise ParameterError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    if thin is None:
        thin = max((steps - burn_in) // TARGET_SAMPLES, 1)
    if thin < 1:
        raise ParameterError(f"thin must be >= 1, got {thin}")
    gram = centered_gram(data.values)
    rng = np.random.default_rng(seed)
    uniforms = rng.random((steps, 2))
    samples, accepted = kernels.mcmc_chain(gram, data.n, steps, burn_in, thin, uniforms)
    if samples.shape[0] == 0:
        raise ParameterError(
            f"no samples kept: steps={steps}, burn_in={burn_in}, thin={thin}"
        )
    kept = samples.shape[0]
    logger.info(
        "structure_mcmc: d=%d n=%d steps=%d accepted=%d (%.1f%%) kept=%d thin=%d",
        data.d,
        data.n,
        steps,
        accepted,
        100.0 * accepted / steps,
        kept,
        thin,
    )
    # every state the chain visits is acyclic, so the samples need no check
    weights = np.full(kept, 1.0 / kept)
    return PosteriorSample._of_stack(samples, data.column_labels, weights, "mcmc", seed)
