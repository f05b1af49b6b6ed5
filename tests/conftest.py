"""Shared network/system builders for the worked examples used across tests."""

from fractions import Fraction

import pytest

from tfred.networks import Reaction, ReactionNetwork, compile_network
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


@pytest.fixture
def mm3d():
    return compile_network(mm_network())


@pytest.fixture
def mm2d(mm3d):
    # conservation of e + c with small total e0
    return eliminate_with_integral(mm3d, {"e": 1, "c": 1}, "e", "e0", level_order=1)
