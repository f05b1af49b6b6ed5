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


def _parse_base(text: str | int) -> "Fraction | str":
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(text)
    except ValueError:
        return text  # parameter name
    except ZeroDivisionError:
        raise ModelError(f"initial value base {text!r} divides by zero") from None


def _parse_initial_values(data: Mapping, states) -> dict[str, InitialValue]:
    out = {}
    for name, entry in (data or {}).items():
        if name not in states:
            raise ModelError(f"initial value for unknown state {name}")
        base = _parse_base(entry.get("base", "0"))
        out[name] = InitialValue(base, int(entry.get("eps_order", 0)))
    return out


def load_model(path: str) -> ModelSpec:
    with open(path) as fh:
        data = json.load(fh)
    return model_from_dict(data, name=data.get("name", path))


def model_from_dict(data: Mapping, name: str = "model") -> ModelSpec:
    params = list(data.get("parameters", []))
    fast = tuple(data.get("fast", ()))
    if "reactions" in data:
        species = list(data["species"])
        reactions = [
            Reaction(
                {k: int(v) for k, v in r.get("reactants", {}).items()},
                {k: int(v) for k, v in r.get("products", {}).items()},
                r["rate"],
                int(r.get("eps_order", 0)),
            )
            for r in data["reactions"]
        ]
        rates = [r.rate for r in reactions]
        extra = [p for p in params if p not in rates]
        net = ReactionNetwork(species=species, reactions=reactions, extra_params=extra)
        if "transport" in data:
            t = data["transport"]
            laws = {}
            for sp, law in t.get("species", {}).items():
                kind = law.get("kind", "laplacian")
                matrix = None
                if law.get("matrix") is not None:
                    matrix = tuple(
                        tuple(Fraction(str(v)) for v in row) for row in law["matrix"]
                    )
                laws[sp] = SpeciesTransport(
                    kind,
                    int(law.get("eps_order", 1)),
                    rate=law.get("rate"),
                    matrix=matrix,
                )
            tspec = TransportSpec(int(t["N"]), laws)
            sys = build_transport_system(net, tspec)
        else:
            sys = compile_network(net)
        ivs = _parse_initial_values(data.get("initial_values", {}), sys.states)
        sys = sys.with_initial_values(ivs)
        return ModelSpec(name, sys, fast, data.get("description", ""))
    if "raw_system" in data:
        states = list(data["states"])
        ctx = Context(states, params)
        rows = [ctx.parse_poly(expr) for expr in data["raw_system"]]
        ivs = _parse_initial_values(data.get("initial_values", {}), states)
        sys = raw_system(ctx, rows, ivs)
        return ModelSpec(name, sys, fast, data.get("description", ""))
    raise ModelError("model file needs either 'reactions' or 'raw_system'")
