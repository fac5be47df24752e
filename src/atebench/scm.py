"""Linear-Gaussian ground truth: random graphs, SCMs, sampling, analytic effects."""

from __future__ import annotations

import csv
import json
import math
import os
import zipfile
from pathlib import Path

import numpy as np

from .errors import ParameterError, SchemaError, StructuralError, ValidationError
from .graphs import Dag

DEFAULT_WEIGHT_RANGE = (0.5, 2.0)


class LinearGaussianScm:
    """graph + edge weights + noise variances (+ optional intercepts).

    weights[i, j] is nonzero exactly where the graph has an edge i -> j.
    """

    __slots__ = ("graph", "weights", "noise_variances", "intercepts")

    def __init__(self, graph: Dag, weights, noise_variances, intercepts=None):
        d = graph.num_nodes
        w = np.asarray(weights, dtype=float).copy()
        if w.shape != (d, d):
            raise StructuralError(f"weights must be {d}x{d}")
        if np.any((w != 0.0) != graph.adjacency):
            raise StructuralError("weights must be supported exactly on the graph's edges")
        v = np.asarray(noise_variances, dtype=float).copy()
        if v.shape != (d,) or np.any(v <= 0.0):
            raise StructuralError("noise variances must be length-d and strictly positive")
        c = np.zeros(d) if intercepts is None else np.asarray(intercepts, dtype=float).copy()
        if c.shape != (d,):
            raise StructuralError("intercepts must be length-d")
        for arr in (w, v, c):
            arr.setflags(write=False)
        self.graph = graph
        self.weights = w
        self.noise_variances = v
        self.intercepts = c

    def __repr__(self) -> str:
        return f"LinearGaussianScm(d={self.graph.num_nodes}, edges={self.graph.num_edges})"


class Dataset:
    """An n x d observation matrix with column labels."""

    __slots__ = ("values", "column_labels")

    def __init__(self, values, column_labels):
        x = np.asarray(values, dtype=float).copy()
        if x.ndim != 2 or x.shape[0] < 1:
            raise StructuralError("dataset must be a non-empty 2-D matrix")
        labels = tuple(str(c) for c in column_labels)
        if len(labels) != x.shape[1]:
            raise SchemaError("column label count does not match data width")
        if len(set(labels)) != len(labels):
            raise SchemaError("column labels must be unique")
        x.setflags(write=False)
        self.values = x
        self.column_labels = labels

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def constant_column(self) -> str | None:
        """Label of the first column whose values are all equal, or None.
        Tested by equality: a constant column whose mean is inexact (all 0.1,
        say) has a tiny nonzero standard deviation."""
        const = (self.values == self.values[0]).all(axis=0)
        return self.column_labels[int(np.argmax(const))] if const.any() else None

    def standardized(self) -> "Dataset":
        """Column-wise z-scoring."""
        if self.constant_column() is not None:
            raise SchemaError("cannot standardize a constant column")
        mu = self.values.mean(axis=0)
        sd = self.values.std(axis=0)
        return Dataset((self.values - mu) / sd, self.column_labels)

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


def default_labels(d: int) -> list[str]:
    width = len(str(d - 1)) if d > 1 else 1
    return [f"x{k:0{width}d}" for k in range(d)]


def random_er_dag(d: int, expected_edges: int, seed: int) -> Dag:
    """Erdos-Renyi skeleton with p = expected_edges / C(d, 2), oriented along
    a uniformly random node permutation (acyclic by construction)."""
    if d < 2:
        raise ParameterError("d must be >= 2")
    if expected_edges < 0:
        raise ParameterError("expected_edges must be >= 0")
    max_edges = d * (d - 1) // 2
    p = expected_edges / max_edges
    if p > 1.0:
        raise ParameterError(
            f"expected_edges={expected_edges} exceeds the {max_edges} possible edges at d={d}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    rank = np.empty(d, dtype=int)
    rank[perm] = np.arange(d)
    adj = np.zeros((d, d), dtype=bool)
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < p:
                if rank[i] < rank[j]:
                    adj[i, j] = True
                else:
                    adj[j, i] = True
    return Dag(default_labels(d), adj)


def random_scm(
    g: Dag,
    weight_range: tuple[float, float] = DEFAULT_WEIGHT_RANGE,
    seed: int = 0,
) -> LinearGaussianScm:
    """Edge weights drawn uniformly from +/-[low, high]; unit noise variances.
    low == high gives weights of one fixed magnitude."""
    low, high = weight_range
    if not (0.0 < low <= high):
        raise ParameterError(f"need 0 < low <= high, got ({low}, {high})")
    rng = np.random.default_rng(seed)
    d = g.num_nodes
    weights = np.zeros((d, d))
    for i, j in g.edges():
        magnitude = rng.uniform(low, high)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        weights[i, j] = sign * magnitude
    return LinearGaussianScm(g, weights, np.ones(d))


def _propagate(scm: LinearGaussianScm, noise: np.ndarray) -> np.ndarray:
    """Ancestral propagation of a fixed noise matrix through the SCM."""
    x = np.array(noise, dtype=float)
    w = scm.weights
    for k in scm.graph.topological_order():
        pa = np.flatnonzero(scm.graph.adjacency[:, k])
        x[:, k] += scm.intercepts[k]
        if pa.size:
            x[:, k] += x[:, pa] @ w[pa, k]
    return x


def sample(scm: LinearGaussianScm, n: int, seed: int) -> Dataset:
    """n ancestral draws in topological order; deterministic per seed."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = np.random.default_rng(seed)
    d = scm.graph.num_nodes
    noise = rng.standard_normal((n, d)) * np.sqrt(scm.noise_variances)
    values = _propagate(scm, noise)
    return Dataset(values, scm.graph.labels)


# ---------------------------------------------------------------------------
# SCM + dataset persistence
# ---------------------------------------------------------------------------


def save_scm(scm: LinearGaussianScm, path) -> None:
    payload = {
        "node_labels": list(scm.graph.labels),
        "adjacency": scm.graph.adjacency.astype(int).tolist(),
        "weights": scm.weights.tolist(),
        "noise_variances": scm.noise_variances.tolist(),
        "intercepts": scm.intercepts.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_DATASET_KEYS = ("values", "labels")


def save_dataset(data: Dataset, path) -> None:
    """Write data in the format path's suffix names.  A ``.npz`` path, the
    harness's own artifact, gets `values`, the (n, d) float64 matrix, and
    `labels`, the column labels.  Any other path gets the CSV input format:
    a header row of labels, then one row of exact float reprs per
    observation."""
    if Path(path).suffix != ".npz":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(data.column_labels)
            for row in data.values:
                writer.writerow([repr(float(v)) for v in row])
        return
    # np.savez appends .npz to a path without it; writing to an open file does not
    with open(path, "wb") as fh:
        np.savez(fh, values=data.values, labels=np.array(data.column_labels, dtype=str))


def read_npz(path, keys) -> dict[str, np.ndarray]:
    """The arrays named in keys that the npz at path holds; a file that is
    not an npz, or an array that cannot be read, raises a SchemaError naming
    path."""
    try:
        npz = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"{path}: not an npz file ({exc})") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise SchemaError(f"{path}: not an npz file (a single array)")
    with npz:
        try:
            return {k: npz[k] for k in keys if k in npz.files}
        except (ValueError, zipfile.BadZipFile) as exc:
            raise SchemaError(f"{path}: unreadable array ({exc})") from exc


def _from_npz(path) -> tuple[np.ndarray, list[str]]:
    arrays = read_npz(path, _DATASET_KEYS)
    missing = [k for k in _DATASET_KEYS if k not in arrays]
    if missing:
        raise SchemaError(f"{path}: missing key(s) {', '.join(missing)}")
    values, labels = arrays["values"], arrays["labels"]
    if values.dtype != np.float64 or labels.dtype.kind != "U" or labels.ndim != 1:
        raise SchemaError(f"{path}: expected float64 values and 1-D string labels, "
                          f"got {values.dtype} values and {labels.ndim}-D {labels.dtype} labels")
    return values, labels.tolist()


def _from_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        rows = []
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            if header is None:
                header = row
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: non-numeric value") from exc
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float), header


def load_dataset(path) -> Dataset:
    """Inverse of save_dataset, in the format path's suffix names; a
    malformed file raises a SchemaError that names it."""
    if not os.path.isfile(path):
        raise ValidationError(f"{path}: no such dataset file")
    values, labels = (_from_npz if Path(path).suffix == ".npz" else _from_csv)(path)
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"{path}: non-finite values in dataset")
    try:
        return Dataset(values, labels)
    except (StructuralError, SchemaError) as exc:
        raise SchemaError(f"{path}: {exc}") from None
