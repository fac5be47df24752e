"""Fisher-z conditional independence testing on partial correlations."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from ..errors import DegenerateDataError, ParameterError, SampleSizeError
from ..scm import Dataset


class CiTestConfig:
    __slots__ = ("alpha", "max_condition_size")

    def __init__(self, alpha: float = 0.05, max_condition_size: int | None = None):
        if not 0 < alpha < 1:
            raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
        if max_condition_size is not None and max_condition_size < 0:
            raise ParameterError("max_condition_size must be >= 0")
        self.alpha = float(alpha)
        self.max_condition_size = max_condition_size

    def __repr__(self) -> str:
        return f"CiTestConfig(alpha={self.alpha}, max_condition_size={self.max_condition_size})"


class FisherZTester:
    """Shares one correlation matrix across the many tests of a PC run."""

    def __init__(self, data: Dataset, alpha: float):
        if not 0 < alpha < 1:
            raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
        sd = data.values.std(axis=0)
        if np.any(sd == 0):
            bad = data.column_labels[int(np.argmin(sd))]
            raise DegenerateDataError(f"constant column {bad!r}")
        self.n = data.n
        self.corr = np.corrcoef(data.values, rowvar=False)
        if not np.all(np.isfinite(self.corr)):
            raise DegenerateDataError("correlation matrix has non-finite entries")
        self.alpha = alpha
        self.threshold = float(ndtri(1.0 - alpha / 2.0))
        self.tests_run = 0

    def independent(self, i: int, j: int, cond) -> bool:
        """True when i and j test independent given the conditioning set."""
        cond = sorted(cond)
        if i == j or i in cond or j in cond:
            raise ParameterError("i, j, and the conditioning set must be disjoint")
        k = len(cond)
        if self.n <= k + 3:
            raise SampleSizeError(f"need n > {k + 3} for |cond|={k}, got n={self.n}")
        self.tests_run += 1
        if k == 0:
            r = self.corr[i, j]
        else:
            idx = [i, j] + cond
            sub = self.corr[np.ix_(idx, idx)]
            try:
                prec = np.linalg.inv(sub)
            except np.linalg.LinAlgError:
                raise DegenerateDataError(
                    f"singular correlation submatrix for ({i}, {j} | {cond})"
                ) from None
            r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
        # |r| can graze 1 numerically; that is maximal dependence
        if abs(r) >= 1.0:
            return False
        stat = math.sqrt(self.n - k - 3) * math.atanh(r)
        return abs(stat) <= self.threshold


def fisher_z_ci_test(data: Dataset, i: int, j: int, cond, alpha: float) -> bool:
    """One-shot Fisher-z test; builds the correlation matrix each call."""
    return FisherZTester(data, alpha).independent(i, j, cond)
