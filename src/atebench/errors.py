"""Exception hierarchy shared across the harness."""


class AteBenchError(Exception):
    """Base class for all harness errors."""


class StructuralError(AteBenchError):
    """Malformed graph structure (non-square matrix, bad labels, self-loop)."""


class CyclicGraphError(AteBenchError):
    """A directed cycle where a DAG was required."""


class OrientationConflictError(AteBenchError):
    """Orientation propagation forced an edge in both directions."""


class ExtensionError(AteBenchError):
    """A partially directed graph admits no consistent DAG extension."""


class MecCapacityError(AteBenchError):
    """Equivalence-class enumeration exceeded its member cap."""


class ParameterError(AteBenchError):
    """An argument violates an operation's precondition."""


class DegenerateDataError(AteBenchError):
    """Data too degenerate for the requested computation (singular correlation)."""


class SampleSizeError(AteBenchError):
    """Too few observations for the requested computation."""


class SchemaError(AteBenchError):
    """Mismatched labels/columns or a malformed input file."""


class ValidationError(AteBenchError):
    """An input artifact failed validation (e.g. cyclic graph in a posterior file)."""


class AggregationError(AteBenchError):
    """Per-pair reports are inconsistent and cannot be aggregated."""


class ConfigError(AteBenchError):
    """Invalid or unknown experiment configuration."""
