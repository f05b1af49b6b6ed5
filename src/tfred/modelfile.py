"""JSON model files: networks or raw polynomial systems, with exact rationals.

Top-level keys: ``species`` + ``reactions`` for mass-action networks, or
``states`` + ``raw_system`` (polynomial strings per state) for general fields;
``parameters``, ``initial_values`` ({base, eps_order} per state, bases either
rational strings "p/q" or parameter names), optional ``transport`` and
``fast`` (default fast set).  All rational literals are strings, so nothing is
lost to floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .networks import (
    Reaction,
    ReactionNetwork,
    SpeciesTransport,
    TransportSpec,
    build_transport_system,
    compile_network,
)
from .rational import Context
from .systems import GradedSystem, InitialValue, ModelError, raw_system


@dataclass
class ModelSpec:
    """A named graded system with its default fast set, as a model file or builtin gives it."""

    name: str
    system: GradedSystem
    fast: tuple[str, ...]
    description: str


_KIND = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _typed(value, key: str, *kinds: type):
    """value, or ModelError naming key unless it is of one of the JSON kinds (true is no integer)."""
    if isinstance(value, kinds) and not isinstance(value, bool):
        return value
    raise ModelError(f"{key!r} must be {' or '.join(_KIND[k] for k in kinds)}")


def _required(section: Mapping, key: str, where: str):
    """section[key], or ModelError naming key and the section where it is missing."""
    try:
        return section[key]
    except KeyError:
        raise ModelError(f"{where} has no {key!r}") from None


def _names(data: Mapping, key: str) -> list[str]:
    """data[key], empty when absent; ModelError naming key unless it is an array of strings."""
    value = data.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelError(f"{key!r} must be an array of strings")
    return value


def _stoichiometry(r: Mapping, key: str) -> dict[str, int]:
    return {k: int(_typed(v, f"{key}.{k}", int, str)) for k, v in _typed(r.get(key, {}), key, dict).items()}


def _parse_base(text: str | int) -> "Fraction | str":
    try:
        return Fraction(text)
    except ValueError:
        return text  # parameter name
    except ZeroDivisionError:
        raise ModelError(f"initial value base {text!r} divides by zero") from None


def _parse_initial_values(data: Mapping, states) -> dict[str, InitialValue]:
    out = {}
    for name, entry in _typed(data.get("initial_values", {}), "initial_values", dict).items():
        if name not in states:
            raise ModelError(f"initial value for unknown state {name}")
        entry = _typed(entry, f"initial_values.{name}", dict)
        base = _parse_base(_typed(entry.get("base", "0"), "base", str, int))
        out[name] = InitialValue(base, int(_typed(entry.get("eps_order", 0), "eps_order", int, str)))
    return out


def load_model(path: str) -> ModelSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ModelError("model file nested too deeply") from None
    if not isinstance(data, dict):
        raise ModelError("a model file must hold a JSON object")
    return model_from_dict(data, name=_typed(data.get("name", path), "name", str))


def model_from_dict(data: Mapping, name: str = "model") -> ModelSpec:
    """The model a parsed model file describes; ModelError for a section of the wrong JSON type or a missing required key."""
    params = _names(data, "parameters")
    fast = tuple(_names(data, "fast"))
    description = _typed(data.get("description", ""), "description", str)
    if "reactions" in data:
        species = _names(data, "species")
        reactions = []
        for k, r in enumerate(_typed(data["reactions"], "reactions", list)):
            r = _typed(r, f"reactions[{k}]", dict)
            reactions.append(Reaction(
                _stoichiometry(r, "reactants"),
                _stoichiometry(r, "products"),
                _typed(_required(r, "rate", f"reactions[{k}]"), "rate", str),
                int(_typed(r.get("eps_order", 0), "eps_order", int, str)),
            ))
        rates = [r.rate for r in reactions]
        extra = [p for p in params if p not in rates]
        net = ReactionNetwork(species=species, reactions=reactions, extra_params=extra)
        if "transport" in data:
            t = _typed(data["transport"], "transport", dict)
            laws = {}
            for sp, law in _typed(t.get("species", {}), "transport.species", dict).items():
                law = _typed(law, f"transport.species.{sp}", dict)
                matrix = None
                if law.get("matrix") is not None:
                    matrix = tuple(
                        tuple(Fraction(str(v)) for v in _typed(row, "matrix row", list))
                        for row in _typed(law["matrix"], "matrix", list)
                    )
                laws[sp] = SpeciesTransport(
                    _typed(law.get("kind", "laplacian"), "kind", str),
                    int(_typed(law.get("eps_order", 1), "eps_order", int, str)),
                    rate=None if law.get("rate") is None else _typed(law["rate"], "rate", str),
                    matrix=matrix,
                )
            tspec = TransportSpec(int(_typed(_required(t, "N", "transport"), "N", int, str)), laws)
            sys = build_transport_system(net, tspec)
        else:
            sys = compile_network(net)
        sys = sys.with_initial_values(_parse_initial_values(data, sys.states))
        return ModelSpec(name, sys, fast, description)
    if "raw_system" in data:
        states = _names(data, "states")
        ctx = Context(states, params)
        rows = [ctx.parse_poly(expr) for expr in _names(data, "raw_system")]
        sys = raw_system(ctx, rows, _parse_initial_values(data, states))
        return ModelSpec(name, sys, fast, description)
    raise ModelError("model file needs either 'reactions' or 'raw_system'")
