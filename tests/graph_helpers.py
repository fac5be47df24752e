"""Dense-matrix views of the PDAG core in ``atebench.graphs`` that only tests use.

The package runs the Meek rules on int row masks (``graphs._meek``) and
parses CPDAG edge lists only to reject them as DAGs; these helpers give
tests the matrix and ``Cpdag`` forms.
"""

from __future__ import annotations

import numpy as np

from atebench.errors import SchemaError
from atebench.graphs import Cpdag, _dense, _meek, _parse_edgelist_text, _rows, _transpose


def meek_close(directed: np.ndarray, undirected: np.ndarray, on_conflict: str = "raise"):
    """Meek rules R1-R4 to a fixed point on copies; returns (directed,
    undirected, conflicts)."""
    ch, un = _rows(directed), _rows(undirected)
    conflicts = _meek(ch, _transpose(ch), un, on_conflict)
    return _dense(ch), _dense(un), conflicts


def apply_meek_rules(p: Cpdag) -> Cpdag:
    """Fixed point of Meek rules R1-R4; raises on an orientation conflict."""
    D, U, _ = meek_close(p.directed, p.undirected, on_conflict="raise")
    return Cpdag(p.labels, D, U)


def parse_cpdag_edgelist(text: str, source: str = "<string>") -> Cpdag:
    labels, directed, undirected = _parse_edgelist_text(text, source)
    if np.any(directed & directed.T):
        raise SchemaError(f"{source}: edge listed in both directions")
    if np.any((directed | directed.T) & undirected):
        raise SchemaError(f"{source}: edge both directed and undirected")
    return Cpdag(labels, directed, undirected)
