"""Backdoor-adjustment ATE estimation: the full pair sweep and its persistence.

Under a bag of DAGs a pair's effect takes few distinct values, since it
depends on its DAG only through pa(t) and whether y descends from t (the
observation behind IDA, Maathuis, Kalisch & Bühlmann 2009).  A sweep is
therefore each pair's distinct atoms with their summed weights, stored in
flat arrays (``AteAtoms``), in memory and in ``ates/<tag>.npz`` alike.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import DegenerateDataError, ParameterError, SchemaError
from .kernels import ate_table, centered_gram, transitive_closure_batch, unique_rows
from .scm import Dataset, read_npz


class AteQuery:
    """One ordered treatment/outcome pair with the two intervention values."""

    __slots__ = ("treatment", "outcome", "treatment_value_b", "reference_value_a")

    def __init__(
        self,
        treatment: int,
        outcome: int,
        treatment_value_b: float = 1.0,
        reference_value_a: float = 0.0,
    ):
        if treatment == outcome:
            raise ParameterError("treatment and outcome must differ")
        self.treatment = int(treatment)
        self.outcome = int(outcome)
        self.treatment_value_b = float(treatment_value_b)
        self.reference_value_a = float(reference_value_a)

    def _key(self):
        return (self.treatment, self.outcome, self.treatment_value_b, self.reference_value_a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AteQuery):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"AteQuery(t={self.treatment}, y={self.outcome})"


class AteSampleSet:
    """The weighted ATE values one DAG bag induces for a single query."""

    __slots__ = ("query", "values", "weights", "source_tag")

    def __init__(self, query: AteQuery, values, weights, source_tag: str):
        v = np.asarray(values, dtype=float).copy()
        w = np.asarray(weights, dtype=float).copy()
        if v.ndim != 1 or v.shape != w.shape or v.size == 0:
            raise ParameterError("values and weights must be equal-length non-empty vectors")
        if np.any(w <= 0.0):
            raise ParameterError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ParameterError(f"weights must sum to 1, got {w.sum()!r}")
        if not np.all(np.isfinite(v)):
            raise DegenerateDataError("non-finite ATE values in sample set")
        v.setflags(write=False)
        w.setflags(write=False)
        self.query = query
        self.values = v
        self.weights = w
        self.source_tag = source_tag

    @classmethod
    def _view(cls, query: AteQuery, values, weights, source_tag: str) -> "AteSampleSet":
        """A set over read-only arrays that were validated elsewhere."""
        s = cls.__new__(cls)
        s.query, s.values, s.weights, s.source_tag = query, values, weights, source_tag
        return s

    def __len__(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"AteSampleSet({self.query!r}, m={len(self)}, tag={self.source_tag!r})"


class AteAtoms(Mapping):
    """Every ordered pair's distinct ATE values with their summed weights.

    Pair p is the p-th ordered pair (t, y), t != y, in (t, y) C-order.  Its
    atoms are ``atom_values[offsets[p]:offsets[p + 1]]``, weighted by
    ``atom_weights`` at the same positions.  The flat arrays are validated
    once, here.  As a mapping, the object gives each pair's ``AteQuery`` an
    ``AteSampleSet`` of read-only views into them.
    """

    __slots__ = (
        "labels", "atom_values", "atom_weights", "offsets",
        "source_tag", "treatment_value_b", "reference_value_a",
    )

    def __init__(
        self,
        labels,
        atom_values,
        atom_weights,
        offsets,
        source_tag: str,
        treatment_value_b: float = 1.0,
        reference_value_a: float = 0.0,
    ):
        labels = tuple(labels)
        pairs = len(labels) * (len(labels) - 1)
        v = np.array(atom_values, dtype=float)
        w = np.array(atom_weights, dtype=float)
        off = np.array(offsets)
        if v.ndim != 1 or v.shape != w.shape:
            raise ParameterError(f"values {v.shape} and weights {w.shape} must be equal-length vectors")
        if off.shape != (pairs + 1,) or off.dtype.kind not in "iu":
            raise ParameterError(
                f"offsets must be {pairs + 1} integers for {pairs} pairs, got {off.dtype} {off.shape}"
            )
        off = off.astype(np.int64)
        if off[0] != 0 or off[-1] != v.size:
            raise ParameterError(f"offsets must run from 0 to the atom count {v.size}, got {off[0]} to {off[-1]}")
        steps = np.diff(off)
        if (steps < 0).any():
            raise ParameterError("offsets must be nondecreasing")
        self.labels = labels
        if (steps == 0).any():
            raise ParameterError(f"pair {self._name(int(np.argmin(steps)))} has no atom")
        if not (w > 0).all():
            raise ParameterError("weights must be strictly positive")
        if pairs:
            sums = np.add.reduceat(w, off[:-1])
            bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
            if bad.size:
                raise ParameterError(f"pair {self._name(bad[0])}: weights must sum to 1, got {sums[bad[0]]!r}")
        if not np.isfinite(v).all():
            raise DegenerateDataError("non-finite ATE values")
        for a in (v, w, off):
            a.setflags(write=False)
        self.atom_values, self.atom_weights, self.offsets = v, w, off
        self.source_tag = source_tag
        self.treatment_value_b = float(treatment_value_b)
        self.reference_value_a = float(reference_value_a)

    def _name(self, p) -> str:
        t, r = divmod(int(p), len(self.labels) - 1)
        return f"({self.labels[t]}, {self.labels[r + (r >= t)]})"

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self):
        d, b, a = len(self.labels), self.treatment_value_b, self.reference_value_a
        return (AteQuery(t, y, b, a) for t in range(d) for y in range(d) if t != y)

    def __getitem__(self, q: AteQuery) -> AteSampleSet:
        d = len(self.labels)
        if (
            not isinstance(q, AteQuery)
            or (q.treatment_value_b, q.reference_value_a) != (self.treatment_value_b, self.reference_value_a)
            or not (0 <= q.treatment < d and 0 <= q.outcome < d)
        ):
            raise KeyError(q)
        p = q.treatment * (d - 1) + q.outcome - (q.outcome > q.treatment)
        lo, hi = self.offsets[p], self.offsets[p + 1]
        return AteSampleSet._view(q, self.atom_values[lo:hi], self.atom_weights[lo:hi], self.source_tag)

    def __repr__(self) -> str:
        return f"AteAtoms(d={len(self.labels)}, atoms={self.atom_values.size}, tag={self.source_tag!r})"


# (DAG, treatment, outcome) cells accumulated per pass of the sweep: bounds
# each pass's bin and weight arrays at 8 MB apiece
_CHUNK_CELLS = 1 << 20


def _distinct_dags(dag_bag):
    """(stack, first, weights) of the bag's distinct adjacencies in order of
    first appearance: their (u, d, d) bool stack, the bag index of each one's
    first copy, and each one's summed weight, added in bag order."""
    stack = dag_bag.stack
    m = stack.shape[0]
    first, inv = unique_rows(np.packbits(stack.reshape(m, -1), axis=1))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    weights = np.bincount(rank[inv], weights=dag_bag.weights, minlength=order.size)
    first = first[order]
    return (stack[first] if first.size < m else stack), first, weights


def sweep(
    dag_bag,
    data: Dataset,
    treatment_value_b: float = 1.0,
    reference_value_a: float = 0.0,
) -> AteAtoms:
    """The ATE atoms of every ordered pair under a bag of DAGs, a
    ``PosteriorSample`` (the true class's ``MecEnumeration`` is one).

    An effect depends on its DAG only through pa(t) and whether y descends
    from t.  So pair (t, y) has one zero atom, weighted by the DAGs in which
    y does not descend from t (left out when there are none), and one atom
    per distinct (t, pa(t)) among the DAGs in which it does, in the order of
    ``ate_table``'s rows.  Identical DAGs are swept once with their weights
    summed.  Masses are summed in a fixed order, so they depend on neither
    BLAS threads nor worker count; the source tag is the bag's.
    """
    if dag_bag.labels != data.column_labels:
        raise SchemaError("DAG bag labels do not match dataset columns")
    d = len(dag_bag.labels)
    stack, first, weights = _distinct_dags(dag_bag)
    table, keys = ate_table(centered_gram(data.values), stack)
    n_keys = table.shape[0]
    # row r < n_keys of `effects` is table row r, row n_keys + t the zero
    # effects of treatment t; an atom is the bin (row, y) of its DAG's (t, y).
    # The zero atom is +0.0 whatever the sign of the contrast: no regression
    # coefficient is scaled to give it
    effects = np.vstack([table * (treatment_value_b - reference_value_a), np.zeros((d, d))])
    row_t = np.empty(n_keys + d, dtype=np.int64)
    row_t[keys] = np.arange(d)
    row_t[n_keys:] = np.arange(d)
    bad_rows = ~np.isfinite(effects)
    failing = bad_rows.any()
    off = ~np.eye(d, dtype=bool)
    ys = np.arange(d)
    zero_bins = (n_keys + ys)[:, None] * d + ys
    mass = np.zeros(effects.size)
    step = max(1, _CHUNK_CELLS // (d * d))
    for lo in range(0, len(first), step):
        reach = transitive_closure_batch(stack[lo:lo + step])
        row_keys = keys[lo:lo + step]
        if failing:
            hit = np.argwhere(reach & bad_rows[row_keys] & off)
            if hit.size:
                g, t, y = hit[0]
                raise DegenerateDataError(
                    f"ATE solve failed even with ridge for dag={first[lo + g]}, treatment={t}, outcome={y}"
                )
        bins = np.where(reach, row_keys[:, :, None] * d + ys, zero_bins)[:, off].ravel()
        mass += np.bincount(bins, np.repeat(weights[lo:lo + step], d * (d - 1)), minlength=mass.size)
    present = np.flatnonzero(mass)
    rows, y = np.divmod(present, d)
    t = row_t[rows]
    pair = t * (d - 1) + y - (y > t)
    # within a pair: the zero atom first, then table row order
    order = np.lexsort((np.where(rows < n_keys, rows, -1), pair))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(pair, minlength=d * (d - 1)))))
    return AteAtoms(
        dag_bag.labels, effects.ravel()[present[order]], mass[present[order]], offsets,
        dag_bag.method_tag, treatment_value_b, reference_value_a,
    )


# ---------------------------------------------------------------------------
# persistence: the contract between the sweep and the metrics stage
# ---------------------------------------------------------------------------

_ATE_KEYS = ("values", "weights", "offsets", "labels")


def save_ate_samples(samples: AteAtoms, labels, path) -> None:
    """Write one sweep's atoms as an npz: `values` and `weights`, the flat
    atom arrays; `offsets`, the d(d-1) + 1 bounds of each ordered pair's
    atoms in (t, y) C-order; and `labels`, the node labels."""
    if not isinstance(samples, AteAtoms):
        raise ParameterError(f"expected the AteAtoms of one sweep, got {type(samples).__name__}")
    labels = tuple(labels)
    if labels != samples.labels:
        raise ParameterError(f"labels {list(labels)} differ from the sweep's {list(samples.labels)}")
    # np.savez appends .npz to a path without it; writing to an open file does not
    with open(path, "wb") as fh:
        np.savez(
            fh,
            values=samples.atom_values,
            weights=samples.atom_weights,
            offsets=samples.offsets,
            labels=np.array(labels, dtype=str),
        )


def load_ate_samples(
    path,
    labels,
    source_tag: str,
    treatment_value_b: float = 1.0,
    reference_value_a: float = 0.0,
) -> AteAtoms:
    """Inverse of save_ate_samples; a malformed file raises SchemaError."""
    labels = tuple(labels)
    arrays = read_npz(path, _ATE_KEYS)
    missing = [k for k in _ATE_KEYS if k not in arrays]
    if missing == ["offsets"]:
        raise SchemaError(
            f"{path}: an (m, d, d) stack of per-DAG effects, a layout this version no "
            "longer reads; use a new output root or delete that seed's directory"
        )
    if missing:
        raise SchemaError(f"{path}: missing key(s) {', '.join(missing)}")
    values, weights, offsets, stored = (arrays[k] for k in _ATE_KEYS)
    if stored.tolist() != list(labels):
        raise SchemaError(f"{path}: labels {stored.tolist()} differ from {list(labels)}")
    try:
        return AteAtoms(labels, values, weights, offsets, source_tag, treatment_value_b, reference_value_a)
    except (ParameterError, DegenerateDataError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
