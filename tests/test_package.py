"""The package's public names: loaded on first use, the same objects as their submodules'."""

import importlib

import pytest

import tfred

# every name ``tfred`` has re-exported, by the submodule that defines it
PUBLIC = {
    "rational": "Context Polynomial RationalFunction Symbol",
    "matrices": "RFMatrix hadamard_factor",
    "systems": (
        "GradedSystem InitialValue Partition ScaledSystem apply_scaling check_ltc linear_first_integrals"
        " raw_system"
    ),
    "networks": "Reaction ReactionNetwork TransportSpec build_transport_system compile_network",
    "ltc": "candidate_slow_set is_ltc_set minimal_ltc_sets preassigned_conditions",
    "reduction": (
        "Decomposition ReducedSystem eigen_certificate find_decomposition reduce_model reduce_with"
        " reduced_initial_value standard_decomposition standard_reduce transform_first_integral"
    ),
    "sim": "ConvergenceReport Trajectory convergence_study integrate iv_inconsistency_demo",
    "builtin_models": "BUILTINS load_builtin",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_its_submodules_object(module, name):
    assert getattr(tfred, name) is getattr(importlib.import_module(f"tfred.{module}"), name)


def test_public_names_are_listed():
    names = {name for _, name in NAMES}
    assert names <= set(dir(tfred))
    assert set(tfred.__all__) == names


def test_readme_library_import():
    from tfred import Partition, check_ltc, load_builtin, reduce_model

    assert (Partition, check_ltc, load_builtin, reduce_model) == (
        tfred.Partition, tfred.check_ltc, tfred.load_builtin, tfred.reduce_model
    )


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'reduce_everything'"):
        tfred.reduce_everything
