"""Experiment configuration: strict flat key=value files, validation, digest."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .metrics import DEFAULT_FILTER_GRID, DEFAULT_FILTER_TOLERANCE

KNOWN_METHODS = ("bootstrap-pc", "bootstrap-ges", "mcmc")

# keys that relocate or parallelize a run without changing its numbers; they
# stay out of the config digest so artifacts remain mutually aggregatable
VOLATILE_KEYS = frozenset({"workers", "output_root"})

# keys naming input files; the digest covers their contents, not their paths,
# so an input edited in place is a different experiment
INPUT_KEYS = frozenset({"dataset_path", "graph_path", "posterior_path"})


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "synthetic"
    d: int = 10
    n: int = 100
    num_seeds: int = 1
    master_seed: int = 0
    posterior_size: int = 100
    methods: tuple[str, ...] = ("bootstrap-pc",)
    er_expected_edges: int | None = None
    weight_low: float = 0.5
    weight_high: float = 2.0
    ci_alpha: float = 0.05
    max_condition_size: int | None = None
    mcmc_steps: int = 500_000
    mcmc_burn_in: int = 100_000
    mcmc_thin: int | None = None
    regroup_rtol: float = 1e-5
    regroup_atol: float = 1e-8
    filter_grid: tuple[float, ...] = DEFAULT_FILTER_GRID
    filter_tolerance: float = DEFAULT_FILTER_TOLERANCE
    treatment_value_a: float = 0.0
    treatment_value_b: float = 1.0
    mec_cap: int = 100_000
    workers: int = 1
    output_root: str | None = None
    dataset_path: str | None = None
    graph_path: str | None = None
    posterior_path: str | None = None
    standardize: bool = False

    def er_edges(self) -> int:
        return self.d if self.er_expected_edges is None else self.er_expected_edges

    def validate(self) -> "ExperimentConfig":
        def fail(key, why):
            raise ConfigError(f"config key {key!r}: {why}")

        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                fail(key, f"must be finite, got {getattr(self, key)}")
        if self.mode not in ("synthetic", "real"):
            fail("mode", f"must be 'synthetic' or 'real', got {self.mode!r}")
        if not 2 <= self.d <= 50:
            fail("d", f"must be in [2, 50], got {self.d}")
        if self.n < 1:
            fail("n", f"must be >= 1, got {self.n}")
        if self.num_seeds < 1:
            fail("num_seeds", f"must be >= 1, got {self.num_seeds}")
        if self.posterior_size < 1:
            fail("posterior_size", f"must be >= 1, got {self.posterior_size}")
        if not self.methods:
            fail("methods", "must list at least one method")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                fail("methods", f"unknown method {m!r} (known: {', '.join(KNOWN_METHODS)})")
        if len(set(self.methods)) != len(self.methods):
            fail("methods", "duplicate method")
        if self.er_expected_edges is not None and self.er_expected_edges < 0:
            fail("er_expected_edges", "must be >= 0")
        if self.mode == "synthetic" and self.er_edges() > self.d * (self.d - 1) // 2:
            fail("er_expected_edges", f"must be at most the {self.d * (self.d - 1) // 2} possible "
                 f"edges at d={self.d} (it defaults to d), got {self.er_edges()}")
        if not 0 < self.weight_low <= self.weight_high:
            fail("weight_low", f"need 0 < weight_low <= weight_high, got ({self.weight_low}, {self.weight_high})")
        if not 0 < self.ci_alpha < 1:
            fail("ci_alpha", f"must be in (0, 1), got {self.ci_alpha}")
        if self.max_condition_size is not None and self.max_condition_size < 0:
            fail("max_condition_size", "must be >= 0 or none")
        if self.mcmc_burn_in < 0 or self.mcmc_steps <= self.mcmc_burn_in:
            fail("mcmc_steps", f"need mcmc_steps > mcmc_burn_in >= 0, got ({self.mcmc_steps}, {self.mcmc_burn_in})")
        if self.mcmc_thin is not None and self.mcmc_thin < 1:
            fail("mcmc_thin", "must be >= 1 or auto")
        if self.regroup_rtol < 0 or self.regroup_atol < 0:
            fail("regroup_rtol", "tolerances must be >= 0")
        if self.regroup_rtol == 0 and self.regroup_atol == 0:
            fail("regroup_rtol", "rtol and atol cannot both be 0")
        if not self.filter_grid:
            fail("filter_grid", "must list at least one tolerance")
        prev = None
        for v in self.filter_grid:
            if not 0 <= v < 1:
                fail("filter_grid", f"tolerances must be in [0, 1), got {v}")
            if prev is not None and v <= prev:
                fail("filter_grid", "tolerances must be strictly increasing")
            prev = v
        if not 0 <= self.filter_tolerance < 1:
            fail("filter_tolerance", f"must be in [0, 1), got {self.filter_tolerance}")
        if self.treatment_value_a == self.treatment_value_b:
            fail("treatment_value_b", "treatment values a and b must differ")
        if self.mec_cap < 1:
            fail("mec_cap", "must be >= 1")
        if self.workers < 1:
            fail("workers", "must be >= 1")
        if self.mode == "real":
            if self.dataset_path is None:
                fail("dataset_path", "required in real mode")
            if self.graph_path is None:
                fail("graph_path", "required in real mode")
            if self.num_seeds != 1:
                fail("num_seeds", "real mode runs a single seed (the dataset is fixed)")
        elif self.posterior_path is not None:
            fail("posterior_path", "an external posterior needs mode=real")
        return self

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """A copy with non-None overrides applied (CLI flags beat file values)."""
        live = {k: v for k, v in overrides.items() if v is not None}
        for k in live:
            if k not in _FIELDS:
                raise ConfigError(f"unknown config key {k!r}")
        return dataclasses.replace(self, **live).validate()

    def to_text(self) -> str:
        lines = [f"{name}={_format_value(name, getattr(self, name))}" for name in _FIELDS]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """12-hex digest over every result-affecting key and input content."""
        lines = []
        for name in _FIELDS:
            if name in VOLATILE_KEYS:
                continue
            value = getattr(self, name)
            if name in INPUT_KEYS and value is not None:
                value = "sha256:" + _input_sha256(name, value)
            lines.append(f"{name}={_format_value(name, value)}")
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _input_sha256(key, path) -> str:
    """sha256 of a file's bytes."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"config key {key!r}: cannot read input {path}: {exc}") from exc


def _format_value(name, value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {raw!r}") from None


def _parse_opt_int(key, raw):
    if raw.lower() in ("none", "auto"):
        return None
    return _parse_int(key, raw)


def _parse_bool(key, raw):
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key!r}: expected true/false, got {raw!r}")


def _parse_methods(key, raw):
    items = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not items:
        raise ConfigError(f"config key {key!r}: empty method list")
    return items


def _parse_float_list(key, raw):
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"config key {key!r}: empty list")
    return tuple(_parse_float(key, part) for part in items)


def _parse_str(key, raw):
    return raw


def _parse_opt_str(key, raw):
    return None if raw.lower() == "none" else raw


# each key's parser, by its field's annotation
_PARSER_OF_TYPE = {
    "str": _parse_str,
    "str | None": _parse_opt_str,
    "int": _parse_int,
    "int | None": _parse_opt_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "tuple[str, ...]": _parse_methods,
    "tuple[float, ...]": _parse_float_list,
}
_PARSERS = {f.name: _PARSER_OF_TYPE[f.type] for f in dataclasses.fields(ExperimentConfig)}
_FLOAT_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "float")


def parse_config_values(text: str, source: str = "<config>") -> dict:
    """The parsed key=value pairs of a config text, not yet validated as a
    whole, so that keys may be completed by later overrides."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        values[key] = _PARSERS[key](key, raw)
    return values


def read_config_values(path) -> dict:
    """parse_config_values of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_values(text, source=str(path))


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig(**read_config_values(path)).validate()
