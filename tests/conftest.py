"""Shared network/system builders for the worked examples used across tests."""

from fractions import Fraction

import pytest

from tfred.matrices import RFMatrix, solve_blocks
from tfred.networks import Reaction, ReactionNetwork, compile_network
from tfred.rational import RationalFunction
from tfred.systems import InitialValue, eliminate_with_integral


def mm_network(extra_params=("e0", "s0")):
    """Irreversible three-species binding/conversion network."""
    return ReactionNetwork(
        species=["s", "e", "c"],
        reactions=[
            Reaction({"e": 1, "s": 1}, {"c": 1}, "k1"),
            Reaction({"c": 1}, {"e": 1, "s": 1}, "km1"),
            Reaction({"c": 1}, {"e": 1}, "k2"),
        ],
        extra_params=list(extra_params),
        initial_values={
            "s": InitialValue("s0", 0),
            "e": InitialValue("e0", 1),
            "c": InitialValue(Fraction(0), 0),
        },
    )


def flattened(sys):
    """The eps-carrying rows sum_g eps^g * h_g of a graded system of nonnegative orders."""
    eps = sys.ctx.sym(sys.ctx.eps.name)
    rows = [sys.ctx.zero()] * sys.n
    for order, g in zip(sys.orders(), sys.grades):
        w = eps ** order
        rows = [r + p * w for r, p in zip(rows, g)]
    return rows


def first_order_psi(dec, h1):
    """Psi0 of the first-order manifold mu + eps*Psi0 = 0: (Dmu P) Psi0 = Dmu h1.

    It is the gamma of ``reduce_with``, read off the solved blocks: entry k
    of a block is its numerator over the block's last pivot, every other
    entry zero.
    """
    h1_rf = [RationalFunction.coerce(dec.ctx, p) for p in h1]
    solved = solve_blocks(dec.dmup(), RFMatrix.column(dec.ctx, dec.dmu().mul_vector(h1_rf)))
    psi = [RationalFunction.of(dec.ctx.zero())] * dec.r
    for unknowns, d, Y in solved:
        for k, y in zip(unknowns, Y):
            psi[k] = RationalFunction(y[0], d)
    return psi


@pytest.fixture
def mm3d():
    return compile_network(mm_network())


@pytest.fixture
def mm2d(mm3d):
    # conservation of e + c with small total e0
    return eliminate_with_integral(mm3d, {"e": 1, "c": 1}, "e", "e0", level_order=1)
