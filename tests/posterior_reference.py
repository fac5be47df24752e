"""The per-graph posterior loader the batched one replaced: each graph block
is parsed and checked for cycles on its own by the former edge-list parser
(``edgelist_reference.parse_dag_edgelist``), as one ``Dag``, and the bag is
built from that list.  A line holding ``->`` is an edge line, as in the
package loader, whatever word it starts with."""

from atebench.discovery.posterior import PosteriorSample, _normalized
from atebench.errors import ParameterError, SchemaError, ValidationError
from atebench.graphs import Dag

from edgelist_reference import parse_dag_edgelist


def load_posterior_file(path) -> PosteriorSample:
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
        edge = "->" in stripped
        if not edge and stripped.startswith("posterior "):
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
        if not edge and stripped.startswith("graph "):
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
    weights = _normalized(weights, str(path))
    for k, g in enumerate(dags):
        if g.labels != dags[0].labels:
            raise SchemaError(f"{path}#graph{k}: node labels differ from graph 0's")
    try:
        return PosteriorSample(dags, weights, method_tag, seed)
    except ParameterError as exc:
        raise SchemaError(f"{path}: {exc}") from None
