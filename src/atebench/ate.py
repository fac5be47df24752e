"""Backdoor-adjustment ATE estimation: the full pair sweep and its persistence."""

from __future__ import annotations

import zipfile

import numpy as np

from .errors import DegenerateDataError, ParameterError, SchemaError
from .kernels import ate_sweep_kernel, centered_gram, transitive_closure_batch
from .scm import Dataset


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

    @property
    def contrast(self) -> float:
        return self.treatment_value_b - self.reference_value_a

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

    def __len__(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"AteSampleSet({self.query!r}, m={len(self)}, tag={self.source_tag!r})"


def sweep(
    dag_bag,
    data: Dataset,
    treatment_value_b: float = 1.0,
    reference_value_a: float = 0.0,
) -> dict[AteQuery, AteSampleSet]:
    """ATE sample sets for every ordered pair under every DAG in the bag, a
    ``PosteriorSample`` (the true class's ``MecEnumeration`` is one).

    One value per (pair, DAG); weights and source tag inherited from the bag.
    """
    if dag_bag.labels != data.column_labels:
        raise SchemaError("DAG bag labels do not match dataset columns")
    d = len(dag_bag.labels)
    stack = np.stack([g.adjacency for g in dag_bag.dags])
    unit = ate_sweep_kernel(centered_gram(data.values), stack, transitive_closure_batch(stack))
    bad = np.argwhere(~np.isfinite(unit))
    if bad.size:
        g0, t0, y0 = bad[0]
        raise DegenerateDataError(
            f"ATE solve failed even with ridge for dag={g0}, treatment={t0}, outcome={y0}"
        )
    contrast = treatment_value_b - reference_value_a
    out: dict[AteQuery, AteSampleSet] = {}
    for t in range(d):
        for y in range(d):
            if t == y:
                continue
            q = AteQuery(t, y, treatment_value_b, reference_value_a)
            out[q] = AteSampleSet(q, unit[:, t, y] * contrast, dag_bag.weights, dag_bag.method_tag)
    return out


# ---------------------------------------------------------------------------
# persistence: the contract between the sweep and the metrics stage
# ---------------------------------------------------------------------------

_ATE_KEYS = ("values", "weights", "labels", "config_digest")


def save_ate_samples(samples: dict[AteQuery, AteSampleSet], labels, path, digest: str) -> None:
    """Write one sweep as an npz: `values` is the (m, d, d) stack whose
    [k, t, y] entry is the effect of t on y under DAG k (diagonal 0),
    `weights` the (m,) DAG weights, `labels` the node labels and
    `config_digest` a 0-d string.  Every ordered pair must be present and
    every sample set must carry the same weights."""
    labels = tuple(labels)
    d = len(labels)
    if not samples:
        raise ParameterError("no ATE sample sets to save")
    first = next(iter(samples.values()))
    values = np.zeros((len(first), d, d))
    for q, s in samples.items():
        if not np.array_equal(s.weights, first.weights):
            raise ParameterError(f"{q!r}: sample sets of one sweep must share their weights")
        values[:, q.treatment, q.outcome] = s.values
    if len(samples) != d * (d - 1):
        raise ParameterError(f"expected {d * (d - 1)} ordered pairs, got {len(samples)}")
    # np.savez appends .npz to a path without it; writing to an open file does not
    with open(path, "wb") as fh:
        np.savez(
            fh,
            values=values,
            weights=first.weights,
            labels=np.array(labels, dtype=str),
            config_digest=np.array(digest, dtype=str),
        )


def load_ate_samples(
    path,
    labels,
    source_tag: str,
    treatment_value_b: float = 1.0,
    reference_value_a: float = 0.0,
) -> dict[AteQuery, AteSampleSet]:
    """Inverse of save_ate_samples; a malformed file raises SchemaError."""
    labels = tuple(labels)
    d = len(labels)
    try:
        npz = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"{path}: not an npz file ({exc})") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise SchemaError(f"{path}: not an npz file (a single array)")
    with npz:
        missing = [k for k in _ATE_KEYS if k not in npz.files]
        if missing:
            raise SchemaError(f"{path}: missing key(s) {', '.join(missing)}")
        try:
            values, weights, stored = npz["values"], npz["weights"], npz["labels"]
        except (ValueError, zipfile.BadZipFile) as exc:
            raise SchemaError(f"{path}: unreadable array ({exc})") from exc
    if stored.tolist() != list(labels):
        raise SchemaError(f"{path}: labels {stored.tolist()} differ from {list(labels)}")
    if weights.ndim != 1 or values.shape != (weights.size, d, d):
        raise SchemaError(
            f"{path}: values {values.shape} and weights {weights.shape} "
            f"do not form an (m, {d}, {d}) stack"
        )
    out: dict[AteQuery, AteSampleSet] = {}
    try:
        for t in range(d):
            for y in range(d):
                if t != y:
                    q = AteQuery(t, y, treatment_value_b, reference_value_a)
                    out[q] = AteSampleSet(q, values[:, t, y], weights, source_tag)
    except (ParameterError, DegenerateDataError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return out
