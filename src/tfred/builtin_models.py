"""Built-in benchmark models: the worked enzyme and transport systems.

Each builder returns a ModelSpec bundling the graded system, the default fast
set for its reduction, and a description.
These are the systems exercised by the golden tests and the validation suite.

Naming: km<i> denotes a reverse rate constant, e0/s0 are initial totals
(eps-order 1 for e0 throughout), delta/theta symbols are degradation and
transport rates, and <name>_star states are the rescaled fast variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .networks import (
    LAPLACIAN,
    Reaction,
    ReactionNetwork,
    SpeciesTransport,
    TransportSpec,
    build_transport_system,
    compile_network,
)
from .rational import Context
from .systems import (
    GradedSystem,
    InitialValue,
    eliminate_with_integral,
    linear_change_of_states,
    raw_system,
)


@dataclass
class ModelSpec:
    name: str
    system: GradedSystem
    fast: tuple[str, ...]
    description: str


def mm3d() -> ModelSpec:
    net = ReactionNetwork(
        species=["s", "e", "c"],
        reactions=[
            Reaction({"e": 1, "s": 1}, {"c": 1}, "k1"),
            Reaction({"c": 1}, {"e": 1, "s": 1}, "km1"),
            Reaction({"c": 1}, {"e": 1}, "k2"),
        ],
        extra_params=["e0", "s0"],
        initial_values={
            "s": InitialValue("s0", 0),
            "e": InitialValue("e0", 1),
            "c": InitialValue(Fraction(0), 0),
        },
    )
    return ModelSpec(
        "mm3d",
        compile_network(net),
        ("e", "c"),
        "three-species substrate/enzyme/complex system, small total enzyme",
    )


def mm2d() -> ModelSpec:
    base = mm3d()
    sys = eliminate_with_integral(base.system, {"e": 1, "c": 1}, "e", "e0", level_order=1)
    return ModelSpec(
        "mm2d",
        sys,
        ("c",),
        "two-dimensional form after conservation elimination of the enzyme",
    )


def mm3d_deg() -> ModelSpec:
    """Variant with slow degradation of free enzyme (rate eps*delta)."""
    base = mm3d()
    ctx = Context(["s", "e", "c"], ["k1", "km1", "k2", "delta", "e0", "s0"])
    rows = [
        ctx.parse_poly("-k1*e*s + km1*c"),
        ctx.parse_poly("-k1*e*s + (km1 + k2)*c - eps*delta*e"),
        ctx.parse_poly("k1*e*s - (km1 + k2)*c"),
    ]
    sys = raw_system(ctx, rows, base.system.initial_values)
    return ModelSpec(
        "mm3d_deg",
        sys,
        ("e", "c"),
        "substrate/enzyme/complex with slow enzyme degradation",
    )


def chain_network() -> ReactionNetwork:
    return ReactionNetwork(
        species=["e", "s", "c1", "c2", "c3"],
        reactions=[
            Reaction({"e": 1, "s": 1}, {"c1": 1}, "k1"),
            Reaction({"c1": 1}, {"e": 1, "s": 1}, "km1"),
            Reaction({"c1": 1}, {"c2": 1}, "k2"),
            Reaction({"c2": 1}, {"c1": 1}, "km2"),
            Reaction({"c2": 1}, {"c3": 1}, "k3"),
            Reaction({"c3": 1}, {"c2": 1}, "km3"),
            Reaction({"c3": 1}, {"e": 1}, "k4"),
        ],
        extra_params=["e0", "s0"],
        initial_values={
            "e": InitialValue("e0", 1),
            "s": InitialValue("s0", 0),
            "c1": InitialValue(Fraction(0), 0),
            "c2": InitialValue(Fraction(0), 0),
            "c3": InitialValue(Fraction(0), 0),
        },
    )


def chain3() -> ModelSpec:
    """Binding chain with three intermediates, all reactions fast.

    Uses conservation of enzyme + intermediates to eliminate the enzyme, with
    the small total e0 at eps-order one; the fast set is the intermediates.
    """
    sys5 = compile_network(chain_network())
    sys = eliminate_with_integral(
        sys5, {"e": 1, "c1": 1, "c2": 1, "c3": 1}, "e", "e0", level_order=1
    )
    return ModelSpec(
        "chain3",
        sys,
        ("c1", "c2", "c3"),
        "three-intermediate chain after conservation elimination",
    )


def chain3_slowk4() -> ModelSpec:
    """Chain with slow last step: k4 at eps-order one, full five-species form."""
    net = chain_network()
    reactions = [
        r if r.rate != "k4" else Reaction(r.reactants, r.products, "k4", eps_order=1)
        for r in net.reactions
    ]
    slow_net = ReactionNetwork(
        species=net.species,
        reactions=reactions,
        extra_params=net.extra_params,
        initial_values=net.initial_values,
    )
    return ModelSpec(
        "chain3_slowk4",
        compile_network(slow_net),
        ("e", "c1", "c2", "c3"),
        "chain with slow final conversion; scaling route required",
    )


def inhibitor() -> ModelSpec:
    """Competitive binding with a slowly degrading second ligand."""
    ctx = Context(
        ["e", "s", "c1", "c2", "y"],
        ["k1", "km1", "k2", "k3", "km3", "k4", "e0", "s0", "y0"],
    )
    rows = [
        ctx.parse_poly("-k1*e*s + (km1 + k2)*c1 - k3*e*y + km3*c2"),
        ctx.parse_poly("-k1*e*s + km1*c1"),
        ctx.parse_poly("k1*e*s - (km1 + k2)*c1"),
        ctx.parse_poly("k3*e*y - km3*c2"),
        ctx.parse_poly("-k3*e*y + km3*c2 - eps*k4*y"),
    ]
    ivs = {
        "e": InitialValue("e0", 1),
        "s": InitialValue("s0", 0),
        "c1": InitialValue(Fraction(0), 0),
        "c2": InitialValue(Fraction(0), 0),
        "y": InitialValue("y0", 0),
    }
    return ModelSpec(
        "inhibitor",
        raw_system(ctx, rows, ivs),
        ("e", "c1", "c2"),
        "binding with inhibitor and slow inhibitor degradation",
    )


def mm_diffusion(N: int = 4) -> ModelSpec:
    """Compartmental substrate/enzyme/complex system with slow diffusion.

    States per compartment are (s, c, w) with w the total enzyme e + c; all
    three species diffuse slowly through the 1-D Neumann stencil.
    """
    net = ReactionNetwork(
        species=["s", "c", "e"],
        reactions=[
            Reaction({"e": 1, "s": 1}, {"c": 1}, "k1"),
            Reaction({"c": 1}, {"e": 1, "s": 1}, "km1"),
            Reaction({"c": 1}, {"e": 1}, "k2"),
        ],
        extra_params=[f"s0_{a}" for a in range(1, N + 1)]
        + [f"w0_{a}" for a in range(1, N + 1)],
    )
    tspec = TransportSpec(
        N,
        {
            "s": SpeciesTransport(LAPLACIAN, 1, rate="theta_s"),
            "c": SpeciesTransport(LAPLACIAN, 1, rate="theta_c"),
            "e": SpeciesTransport(LAPLACIAN, 1, rate="theta_e"),
        },
    )
    sys = build_transport_system(net, tspec)
    # switch to total enzyme per compartment: w_a = e_a + c_a
    n = 3 * N
    B = [[Fraction(0)] * n for _ in range(n)]
    names = list(sys.states)
    for i in range(n):
        B[i][i] = Fraction(1)
    for a in range(1, N + 1):
        B[names.index(f"e{a}")][names.index(f"c{a}")] = Fraction(1)
    new_names = [nm if not nm.startswith("e") else "w" + nm[1:] for nm in names]
    out = linear_change_of_states(sys, B, new_names)
    ivs = {}
    for a in range(1, N + 1):
        ivs[f"s{a}"] = InitialValue(f"s0_{a}", 0)
        ivs[f"c{a}"] = InitialValue(Fraction(0), 0)
        ivs[f"w{a}"] = InitialValue(f"w0_{a}", 1)
    out = out.with_initial_values(ivs)
    fast = tuple(f"c{a}" for a in range(1, N + 1)) + tuple(f"w{a}" for a in range(1, N + 1))
    return ModelSpec(
        "mm_diffusion",
        out,
        fast,
        f"{N}-compartment slow-diffusion system in (s, c, total enzyme) coordinates",
    )


def binding_transport_network() -> ReactionNetwork:
    return ReactionNetwork(
        species=["s", "p", "c"],
        reactions=[
            Reaction({"s": 1, "p": 1}, {"c": 1}, "k1"),
            Reaction({"c": 1}, {"s": 1, "p": 1}, "km1"),
        ],
    )


def _binding_with_transport(N: int, s_order: int, name: str, description: str) -> ModelSpec:
    """The binding network in N compartments; s is transported at eps-order s_order."""
    net = binding_transport_network()
    tspec = TransportSpec(
        N,
        {
            "s": SpeciesTransport(LAPLACIAN, s_order, rate="delta_s"),
            "p": SpeciesTransport(LAPLACIAN, 1, rate="delta_p"),
            "c": SpeciesTransport(LAPLACIAN, 1, rate="delta_c"),
        },
    )
    extra = (
        [f"s0_{a}" for a in range(1, N + 1)]
        + [f"p0_{a}" for a in range(1, N + 1)]
        + [f"c0_{a}" for a in range(1, N + 1)]
    )
    net = ReactionNetwork(
        species=net.species, reactions=net.reactions, extra_params=extra
    )
    sys = build_transport_system(net, tspec)
    ivs = {}
    for a in range(1, N + 1):
        ivs[f"s{a}"] = InitialValue(f"s0_{a}", 1)
        ivs[f"p{a}"] = InitialValue(f"p0_{a}", 0)
        ivs[f"c{a}"] = InitialValue(f"c0_{a}", 1)
    sys = sys.with_initial_values(ivs)
    fast = tuple(f"s{a}" for a in range(1, N + 1)) + tuple(f"c{a}" for a in range(1, N + 1))
    return ModelSpec(name, sys, fast, f"{N}-compartment binding network, {description}")


def transport_binding(N: int = 4) -> ModelSpec:
    """Compartmental bimolecular binding with fast transport of s only."""
    return _binding_with_transport(N, 0, "transport_binding", "fast substrate transport")


def transport_binding_slow(N: int = 3) -> ModelSpec:
    """Same network with slow transport of every species."""
    return _binding_with_transport(N, 1, "transport_binding_slow", "slow transport everywhere")


def linex() -> ModelSpec:
    """Two-dimensional linear benchmark for the initial-value consistency demo."""
    ctx = Context(["x", "y"], ["a", "b", "c", "x0", "y0"])
    rows = [ctx.parse_poly("eps*a*x + b*y"), ctx.parse_poly("c*y")]
    ivs = {"x": InitialValue("x0", 0), "y": InitialValue("y0", 0)}
    return ModelSpec(
        "linex",
        raw_system(ctx, rows, ivs),
        ("y",),
        "linear slow/fast pair illustrating the escaping-initial-value effect",
    )


BUILTINS: dict[str, Callable[[], ModelSpec]] = {
    "mm2d": mm2d,
    "mm3d": mm3d,
    "mm3d_deg": mm3d_deg,
    "chain3": chain3,
    "chain3_slowk4": chain3_slowk4,
    "inhibitor": inhibitor,
    "mm_diffusion": mm_diffusion,
    "transport_binding": transport_binding,
    "transport_binding_slow": transport_binding_slow,
    "linex": linex,
}


def load_builtin(name: str) -> ModelSpec:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}")
