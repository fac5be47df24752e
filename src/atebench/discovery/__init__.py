"""Posterior learners: constraint-based, score-based, bootstrap, MCMC, external."""

from .bootstrap import bootstrap
from .citest import CiTestConfig, FisherZTester
from .ges import ges
from .mcmc import structure_mcmc
from .pc import pc
from .posterior import (
    PosteriorSample,
    load_external_posterior,
    save_posterior,
    uniform_posterior,
)
from .score import BicScore, centered_gram

__all__ = [
    "BicScore",
    "CiTestConfig",
    "FisherZTester",
    "PosteriorSample",
    "bootstrap",
    "centered_gram",
    "ges",
    "load_external_posterior",
    "pc",
    "save_posterior",
    "structure_mcmc",
    "uniform_posterior",
]
