"""Fisher-z conditional independence testing on partial correlations."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateDataError, ParameterError, SampleSizeError
from ..scm import Dataset

# Cephes ndtri (S. L. Moshier), the normal quantile that scipy.special.ndtri
# ships, ported operation for operation so it returns the same doubles
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef) -> float:
    """Horner's rule, highest power first.  A leading 1.0 stands in for
    Cephes' p1evl: its first step, 1.0 * x + c, equals p1evl's x + c."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """The x at which the standard normal CDF equals y0, for y0 in [0, 1]
    (NaN outside it)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    upper = y0 > 1.0 - _EXPM2
    y = 1.0 - y0 if upper else y0
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


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
        bad = data.constant_column()
        if bad is not None:
            raise DegenerateDataError(f"constant column {bad!r}")
        self.n = data.n
        self.corr = np.corrcoef(data.values, rowvar=False)
        if not np.all(np.isfinite(self.corr)):
            raise DegenerateDataError("correlation matrix has non-finite entries")
        self.alpha = alpha
        self.threshold = _ndtri(1.0 - alpha / 2.0)
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
