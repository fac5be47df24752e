"""Gaussian BIC scoring shared by score-based search and exhaustive posteriors."""

from __future__ import annotations

from .. import kernels
from ..errors import DegenerateDataError, ParameterError
from ..kernels import centered_gram
from ..scm import Dataset


class BicScore:
    """Decomposable Gaussian BIC of a DAG: sum of per-node regression scores.

    Local scores are cached by (node, parent set), so repeated queries during
    search are cheap.  Delegates to the same kernel the MCMC sampler
    uses, so scores agree bit for bit across code paths.
    """

    def __init__(self, data: Dataset):
        if data.d > 50:
            raise ParameterError("BIC scoring supports at most 50 variables")
        self.n = data.n
        self.d = data.d
        if self.n < 2:
            raise ParameterError("BIC scoring needs at least 2 rows")
        bad = data.constant_column()
        if bad is not None:
            raise DegenerateDataError(f"column {bad!r} has zero variance")
        self.gram = centered_gram(data.values)
        self._rows = self.gram.tolist()
        self._cache = {}

    def local_mask(self, node: int, mask: int) -> float:
        """Local score of `node` given the parent set whose bits `mask` sets."""
        node = int(node)
        if not 0 <= node < self.d:
            raise ParameterError(f"node {node} outside 0..{self.d - 1}")
        if mask < 0 or mask >> self.d:
            raise ParameterError(f"parent mask {mask:#x} has bits outside 0..{self.d - 1}")
        if (mask >> node) & 1:
            raise ParameterError("node cannot be its own parent")
        return kernels._local_bic(self._rows, self.n, node, mask, self._cache)
