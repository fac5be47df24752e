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
        d = self.corr.shape[0]
        for v in (i, j, *cond):
            if not 0 <= v < d:
                raise ParameterError(f"variable {v} outside 0..{d - 1}")
        if len({i, j, *cond}) != len(cond) + 2:
            raise ParameterError("i, j, and the conditioning set must be distinct")
        k = len(cond)
        self.check_sample_size(k)
        self.tests_run += 1
        try:
            r = self.partial_correlations(
                np.array([[i, j]], dtype=np.intp), np.array([cond], dtype=np.intp).reshape(1, k)
            )
        except np.linalg.LinAlgError:
            raise DegenerateDataError(
                f"singular correlation submatrix for ({i}, {j} | {cond})"
            ) from None
        except ValueError:
            raise DegenerateDataError(
                f"indefinite correlation submatrix for ({i}, {j} | {cond})"
            ) from None
        return self.decide(r[0], k)

    def check_sample_size(self, k: int) -> None:
        """Refuse tests given k variables when the rows are too few for them."""
        if self.n <= k + 3:
            raise SampleSizeError(f"need n > {k + 3} for |cond|={k}, got n={self.n}")

    def partial_correlations(self, pairs: np.ndarray, conds: np.ndarray) -> np.ndarray:
        """Partial correlation of columns pairs[b, 0] and pairs[b, 1] given the
        columns conds[b], for every row b of the (B, 2) and (B, k) index
        arrays: one gather and one inversion of the (B, k+2, k+2) stack.

        Indices are not checked.  Each r equals the single-test value bit for
        bit.  Raises LinAlgError if any submatrix is singular, and ValueError
        if any r would need the square root of a number that is not positive.
        """
        if conds.shape[1] == 0:
            return self.corr[pairs[:, 0], pairs[:, 1]]
        idx = np.concatenate((pairs, conds), axis=1)
        prec = np.linalg.inv(self.corr[idx[:, :, None], idx[:, None, :]])
        den = prec[:, 0, 0] * prec[:, 1, 1]
        if not (den > 0).all():
            # what math.sqrt raises for a negative number; a zero (-0.0
            # included) or NaN product comes from a singular submatrix that
            # the inversion let through, and would give an infinite or NaN r
            raise ValueError("math domain error")
        return -prec[:, 0, 1] / np.sqrt(den)

    def decide(self, r: float, k: int) -> bool:
        """Fisher-z decision for a partial correlation given k variables."""
        # |r| can graze 1 numerically; that is maximal dependence
        if abs(r) >= 1.0:
            return False
        stat = math.sqrt(self.n - k - 3) * math.atanh(r)
        return abs(stat) <= self.threshold

    def decide_many(self, rs: np.ndarray, k: int) -> np.ndarray:
        """`decide` for every entry of rs, as one comparison of |r| with the r
        at which the statistic meets the threshold.  The rounding of
        `decide` (math.atanh, the product) moves its own boundary a few ulps
        from that r, so entries within a relative 1e-9 of it are decided by
        `decide` itself."""
        edge = math.tanh(self.threshold / math.sqrt(self.n - k - 3))
        size = np.abs(rs)
        out = size < edge * (1 - 1e-9)
        for b in np.flatnonzero((size >= edge * (1 - 1e-9)) & (size <= edge * (1 + 1e-9))):
            out[b] = self.decide(float(rs[b]), k)
        return out
