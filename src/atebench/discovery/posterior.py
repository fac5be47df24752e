"""Posterior samples over DAGs and their one on-disk format.

Every bag of DAGs is stored as one multi-graph text file: the built-in
methods' samples, the true equivalence class (``mec.txt``, tag ``true-mec``,
uniform weights) and externally produced posteriors alike.  The method tag
names the method's files, so every sample's tag must match
``[A-Za-z0-9][A-Za-z0-9._+-]*``:

    posterior method=bootstrap-pc seed=3
    graph 0 weight 0.5
    nodes: a,b
    a -> b

    graph 1 weight 0.5
    nodes: a,b
"""

from __future__ import annotations

import logging
import os
import re

import numpy as np

from ..errors import ParameterError, SchemaError, ValidationError
from ..graphs import Dag, format_edgelist, parse_dag_edgelist

logger = logging.getLogger(__name__)

WEIGHT_SUM_WARN = 1e-6

# a method tag names the method's files under a seed directory
_METHOD_TAG = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*")


class PosteriorSample:
    """A weighted bag of DAGs approximating P(G | D)."""

    __slots__ = ("dags", "weights", "method_tag", "seed")

    def __init__(self, dags, weights, method_tag: str, seed: int):
        dags = list(dags)
        if not dags:
            raise ParameterError("posterior sample must contain at least one DAG")
        labels = dags[0].labels
        for g in dags:
            if not isinstance(g, Dag):
                raise ParameterError("posterior entries must be DAGs")
            if g.labels != labels:
                raise SchemaError("posterior DAGs disagree on node labels")
        w = np.asarray(weights, dtype=float).copy()
        if w.shape != (len(dags),):
            raise ParameterError("weights length must match DAG count")
        if np.any(w <= 0):
            raise ParameterError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        method_tag = str(method_tag)
        if not _METHOD_TAG.fullmatch(method_tag):
            raise ParameterError(
                f"method tag {method_tag!r} must match {_METHOD_TAG.pattern}, "
                "since it names the method's files"
            )
        w.setflags(write=False)
        self.dags = dags
        self.weights = w
        self.method_tag = method_tag
        self.seed = int(seed)

    @property
    def labels(self):
        return self.dags[0].labels

    def __len__(self) -> int:
        return len(self.dags)

    def __repr__(self) -> str:
        return f"PosteriorSample(m={len(self)}, method={self.method_tag!r}, seed={self.seed})"


def uniform_posterior(dags, method_tag: str, seed: int) -> PosteriorSample:
    dags = list(dags)
    if not dags:
        raise ParameterError("posterior sample must contain at least one DAG")
    return PosteriorSample(dags, np.full(len(dags), 1.0 / len(dags)), method_tag, seed)


def _normalized(weights, source: str) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValidationError(f"{source}: weights must be finite and strictly positive")
    total = w.sum()
    if abs(total - 1.0) <= 1e-12:
        # already valid: keep the exact stored values so a save/load round
        # trip never perturbs downstream bytes
        return w
    if abs(total - 1.0) > WEIGHT_SUM_WARN:
        logger.warning("%s: weights sum to %.6g, normalizing", source, total)
    return w / total


def save_posterior(ps: PosteriorSample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"posterior method={ps.method_tag} seed={ps.seed}\n")
        for k, (g, w) in enumerate(zip(ps.dags, ps.weights)):
            fh.write(f"graph {k} weight {float(w)!r}\n")
            fh.write(format_edgelist(g))
            fh.write("\n")


def _load_posterior_file(path) -> PosteriorSample:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    method_tag = "external"
    seed = 0
    dags: list[Dag] = []
    weights: list[float] = []
    block: list[str] = []

    def flush():
        if block:
            dags.append(parse_dag_edgelist("\n".join(block), source=f"{path}#graph{len(dags)}"))
            block.clear()

    seen_header = False
    for ln in lines:
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("posterior "):
            if seen_header or dags or block:
                raise SchemaError(f"{path}: stray posterior header line")
            seen_header = True
            for part in stripped.split()[1:]:
                if "=" not in part:
                    raise SchemaError(f"{path}: malformed posterior header field {part!r}")
                key, value = part.split("=", 1)
                if key == "method":
                    method_tag = value
                elif key == "seed":
                    try:
                        seed = int(value)
                    except ValueError:
                        raise SchemaError(f"{path}: non-integer seed {value!r}") from None
                else:
                    raise SchemaError(f"{path}: unknown posterior header field {key!r}")
            continue
        if stripped.startswith("graph "):
            flush()
            parts = stripped.split()
            if len(parts) != 4 or parts[2] != "weight":
                raise SchemaError(f"{path}: malformed graph line {stripped!r}")
            try:
                index = int(parts[1])
                weight = float(parts[3])
            except ValueError:
                raise SchemaError(f"{path}: malformed graph line {stripped!r}") from None
            if index != len(weights):
                raise SchemaError(f"{path}: graph indices must run 0..m-1 in order")
            weights.append(weight)
            continue
        if not weights:
            raise SchemaError(f"{path}: edge-list content before any graph line")
        block.append(stripped)
    flush()
    if len(dags) != len(weights):
        raise SchemaError(f"{path}: graph line without an edge list")
    if not dags:
        raise ValidationError(f"{path}: posterior file contains no graphs")
    try:
        return PosteriorSample(dags, _normalized(weights, str(path)), method_tag, seed)
    except ParameterError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def load_external_posterior(path) -> PosteriorSample:
    """Parse and validate a posterior from a multi-graph file."""
    if not os.path.isfile(path):
        raise ValidationError(
            f"{path}: not a posterior file; a posterior is one multi-graph text file"
        )
    return _load_posterior_file(path)
