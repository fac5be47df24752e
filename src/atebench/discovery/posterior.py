"""Posterior samples over DAGs and their one on-disk format.

A bag holds its graphs as one read-only ``(m, d, d)`` bool ``stack`` of
adjacency matrices (entry ``[k, i, j]`` is the edge i -> j of graph k) over
shared node ``labels``, with one weight per graph.  The ATE sweep, the writer
and the loader work on the stack; ``.dags`` builds a ``Dag`` per graph each
time it is read.

Every bag of DAGs is stored as one multi-graph text file: the built-in
methods' samples, the true equivalence class (``mec.txt``, tag ``true-mec``,
uniform weights) and externally produced posteriors alike.  Each graph is
one block of the edge-list format, read and written by the code in
``graphs`` that reads and writes a graph file.  The method tag
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
from ..graphs import Dag, _check_labels, _edge_blocks, _parse_blocks

logger = logging.getLogger(__name__)

WEIGHT_SUM_WARN = 1e-6

# a method tag names the method's files under a seed directory
_METHOD_TAG = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*")


class PosteriorSample:
    """A weighted bag of DAGs approximating P(G | D): a read-only
    ``(m, d, d)`` bool ``stack`` over ``labels``, and ``weights``."""

    __slots__ = ("stack", "labels", "weights", "method_tag", "seed")

    def __init__(self, dags, weights, method_tag: str, seed: int):
        dags = list(dags)
        if not dags:
            raise ParameterError("posterior sample must contain at least one DAG")
        for g in dags:
            if not isinstance(g, Dag):
                raise ParameterError("posterior entries must be DAGs")
            if g.labels != dags[0].labels:
                raise SchemaError("posterior DAGs disagree on node labels")
        self._fill(np.stack([g.adjacency for g in dags]), dags[0].labels, weights, method_tag, seed)

    @classmethod
    def _of_stack(cls, stack: np.ndarray, labels, weights, method_tag: str, seed: int):
        """The bag of a fresh ``(m, d, d)`` bool stack whose rows the caller
        has checked to be DAGs; the stack is frozen, not copied."""
        ps = object.__new__(cls)
        ps._fill(stack, labels, weights, method_tag, seed)
        return ps

    def _fill(self, stack, labels, weights, method_tag, seed) -> None:
        labels = _check_labels(labels)
        if stack.dtype != bool or stack.shape[1:] != (len(labels), len(labels)):
            raise ParameterError("stack must be (m, d, d) bool over the labels")
        w = np.asarray(weights, dtype=float).copy()
        if w.shape != (stack.shape[0],):
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
        stack.setflags(write=False)
        w.setflags(write=False)
        self.stack = stack
        self.labels = labels
        self.weights = w
        self.method_tag = method_tag
        self.seed = int(seed)

    @property
    def dags(self) -> list[Dag]:
        """One ``Dag`` per graph, in bag order, built on each access."""
        return [Dag._of_checked(self.labels, a) for a in self.stack]

    def __len__(self) -> int:
        return self.stack.shape[0]

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
    parts = [f"posterior method={ps.method_tag} seed={ps.seed}\n"]
    blocks = _edge_blocks(ps.labels, ps.stack)
    for g, (w, block) in enumerate(zip(ps.weights.tolist(), blocks)):
        parts += [f"graph {g} weight {w!r}\n", block, "\n"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def _scan(lines, path, weights: list[float], blocks: list[list[str]]) -> tuple[str, int]:
    """(method tag, seed) of a posterior file's lines.  Appends each graph
    line's weight to ``weights`` and its stripped edge-list lines, when it
    has any, to ``blocks``.  Raises SchemaError at the first malformed line,
    with the blocks before it appended (a graph line closes the open one)."""
    method_tag = "external"
    seed = 0
    seen_header = False
    block: list[str] = []
    for ln in lines:
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # an edge line may start with a label "graph" or "posterior"; no
        # header holds "->", since ">" is outside the method-tag alphabet
        edge = "->" in stripped
        if not edge and stripped.startswith("posterior "):
            if seen_header or blocks or block:
                raise SchemaError(f"{path}: stray posterior header line")
            seen_header = True
            keys = set()
            for part in stripped.split()[1:]:
                if "=" not in part:
                    raise SchemaError(f"{path}: malformed posterior header field {part!r}")
                key, value = part.split("=", 1)
                if key in keys:
                    raise SchemaError(f"{path}: duplicate posterior header field {key!r}")
                keys.add(key)
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
        if not edge and stripped.startswith("graph "):
            if block:
                blocks.append(block)
                block = []
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
    if block:
        blocks.append(block)
    return method_tag, seed


def load_external_posterior(path) -> PosteriorSample:
    """Parse and validate a posterior from a multi-graph file."""
    if not os.path.isfile(path):
        raise ValidationError(
            f"{path}: not a posterior file; a posterior is one multi-graph text file"
        )
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    weights: list[float] = []
    blocks: list[list[str]] = []
    try:
        method_tag, seed = _scan(lines, path, weights, blocks)
        failure = None
    except SchemaError as exc:
        failure = exc
    # the graphs before a malformed line raise their own errors first
    labels, stack = _parse_blocks(blocks, lambda k: f"{path}#graph{k}")
    if failure is not None:
        raise failure
    if len(blocks) != len(weights):
        raise SchemaError(f"{path}: graph line without an edge list")
    if not blocks:
        raise ValidationError(f"{path}: posterior file contains no graphs")
    weights = _normalized(weights, str(path))
    for k, lab in enumerate(labels):
        if lab != labels[0]:
            raise SchemaError(f"{path}#graph{k}: node labels differ from graph 0's")
    try:
        return PosteriorSample._of_stack(stack, labels[0], weights, method_tag, seed)
    except ParameterError as exc:
        raise SchemaError(f"{path}: {exc}") from None
