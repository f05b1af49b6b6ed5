"""Mass-action reaction networks and compartmental reaction-transport systems.

Networks compile into graded systems: each reaction contributes
rate * product(concentrations^stoichiometry) * (products - reactants) to the
grade given by the eps-order of its rate constant.  The transport builder
replicates a network over N compartments and adds linear exchange terms, either
through the built-in 1-D Neumann Laplacian or an explicit constant matrix per
species; the transport eps-order distinguishes fast from slow transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .rational import Context, Q
from .systems import GradedSystem, InitialValue, ModelError, raw_system

MAX_COMPARTMENTS = 64


@dataclass(frozen=True)
class Reaction:
    """One irreversible mass-action reaction."""

    reactants: Mapping[str, int]
    products: Mapping[str, int]
    rate: str
    eps_order: int = 0

    def __post_init__(self):
        for stoich in (self.reactants, self.products):
            for sp, k in stoich.items():
                if k < 0 or int(k) != k:
                    raise ModelError(f"stoichiometry of {sp} must be a nonnegative integer")
        if self.eps_order not in (0, 1):
            raise ModelError("rate-constant eps-orders are restricted to 0 and 1")


@dataclass
class ReactionNetwork:
    """Species, reactions, and optional extra parameters / initial values."""

    species: Sequence[str]
    reactions: Sequence[Reaction]
    extra_params: Sequence[str] = ()
    initial_values: Mapping[str, InitialValue] = field(default_factory=dict)

    def __post_init__(self):
        rates = [r.rate for r in self.reactions]
        if len(set(rates)) != len(rates):
            raise ModelError("rate constants must be distinct symbols")
        for r in self.reactions:
            for sp in list(r.reactants) + list(r.products):
                if sp not in self.species:
                    raise ModelError(f"unknown species {sp}")

    def params(self) -> list[str]:
        return [r.rate for r in self.reactions] + list(self.extra_params)


def compile_network(net: ReactionNetwork, ctx: Context | None = None) -> GradedSystem:
    """Mass-action right-hand side, grade = eps-order of each rate constant."""
    if ctx is None:
        ctx = Context(list(net.species), net.params())
    n = len(net.species)
    max_order = max((r.eps_order for r in net.reactions), default=0)
    grades = [[ctx.zero() for _ in range(n)] for _ in range(max_order + 1)]
    for r in net.reactions:
        flux = ctx.sym(r.rate)
        for sp, k in r.reactants.items():
            flux = flux * ctx.sym(sp) ** k
        for i, sp in enumerate(net.species):
            delta = r.products.get(sp, 0) - r.reactants.get(sp, 0)
            if delta:
                grades[r.eps_order][i] = grades[r.eps_order][i] + flux * delta
    return GradedSystem(ctx, grades, dict(net.initial_values))


# ---------------------------------------------------------------------------
# Reaction-transport systems
# ---------------------------------------------------------------------------

LAPLACIAN = "laplacian"
MATRIX = "matrix"


@dataclass(frozen=True)
class SpeciesTransport:
    """Transport law for one species: Neumann Laplacian or explicit matrix."""

    kind: str
    eps_order: int
    rate: str | None = None                     # Laplacian rate symbol
    matrix: tuple[tuple[Fraction, ...], ...] | None = None  # explicit Theta

    def __post_init__(self):
        if self.kind not in (LAPLACIAN, MATRIX):
            raise ModelError(f"unknown transport kind {self.kind}")
        if self.eps_order not in (0, 1):
            raise ModelError("transport eps-orders are restricted to 0 and 1")
        if self.kind == LAPLACIAN and not self.rate:
            raise ModelError("Laplacian transport needs a rate symbol")
        if self.kind == MATRIX and self.matrix is None:
            raise ModelError("matrix transport needs an explicit matrix")


@dataclass(frozen=True)
class TransportSpec:
    """Compartment count plus per-species transport laws (absent = immobile)."""

    N: int
    species: Mapping[str, SpeciesTransport]

    def __post_init__(self):
        if self.N < 1:
            raise ModelError("need at least one compartment")
        if self.N > MAX_COMPARTMENTS:
            raise ModelError(f"compartment count capped at {MAX_COMPARTMENTS}")


def neumann_laplacian(N: int) -> list[list[Fraction]]:
    """1-D discrete Laplacian with reflecting ends (row sums are zero)."""
    D = [[Fraction(0)] * N for _ in range(N)]
    for a in range(N):
        left = a - 1 if a > 0 else a
        right = a + 1 if a < N - 1 else a
        D[a][left] += 1
        D[a][a] -= 2
        D[a][right] += 1
    return D


def compartment_name(species: str, alpha: int) -> str:
    return f"{species}{alpha}"


def build_transport_system(
    net: ReactionNetwork,
    tspec: TransportSpec,
    initial_values: Mapping[str, InitialValue] | None = None,
) -> GradedSystem:
    """Replicate the network over N compartments and add transport terms.

    State order is species-major: all compartments of the first species, then
    the second, and so on.  For N = 1 every transport term vanishes and the
    result is the plain network.
    """
    N = tspec.N
    states = [compartment_name(sp, a) for sp in net.species for a in range(1, N + 1)]
    params = net.params()
    for sp, law in tspec.species.items():
        if sp not in net.species:
            raise ModelError(f"transport for unknown species {sp}")
        if law.kind == LAPLACIAN and law.rate not in params:
            params.append(law.rate)  # type: ignore[arg-type]
    ctx = Context(states, params)
    n = len(states)
    rows = [ctx.zero() for _ in range(n)]
    eps = ctx.sym(ctx.eps.name)

    # reaction part, per compartment
    for a in range(1, N + 1):
        for r in net.reactions:
            flux = ctx.sym(r.rate) * eps ** r.eps_order
            for sp, k in r.reactants.items():
                flux = flux * ctx.sym(compartment_name(sp, a)) ** k
            for sp in net.species:
                delta = r.products.get(sp, 0) - r.reactants.get(sp, 0)
                if delta:
                    i = ctx.index[compartment_name(sp, a)]
                    rows[i] = rows[i] + flux * delta

    # transport part
    for sp, law in tspec.species.items():
        if law.kind == LAPLACIAN:
            theta = neumann_laplacian(N)
            scale = ctx.sym(law.rate)  # type: ignore[arg-type]
        else:
            theta = [list(map(Q, row)) for row in law.matrix]  # type: ignore[union-attr]
            if len(theta) != N or any(len(row) != N for row in theta):
                raise ModelError(f"transport matrix for {sp} must be {N}x{N}")
            scale = ctx.one()
        weight = eps ** law.eps_order
        for a in range(N):
            i = ctx.index[compartment_name(sp, a + 1)]
            acc = ctx.zero()
            for b in range(N):
                if theta[a][b]:
                    acc = acc + ctx.sym(compartment_name(sp, b + 1)) * theta[a][b]
            rows[i] = rows[i] + weight * scale * acc

    return raw_system(ctx, rows, initial_values)
