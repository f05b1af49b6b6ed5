"""Degenerate scalings and singular-perturbation reductions of polynomial ODE models.

The names below are loaded on first use (PEP 562): ``import tfred`` imports no
submodule, and ``tfred.reduce_model`` imports ``tfred.reduction`` and what it
needs, not the integrator or the builtin models.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "rational": ("Context", "Polynomial", "RationalFunction", "Symbol"),
    "matrices": ("RFMatrix", "hadamard_factor"),
    "systems": (
        "GradedSystem",
        "InitialValue",
        "Partition",
        "ScaledSystem",
        "apply_scaling",
        "check_ltc",
        "linear_first_integrals",
        "raw_system",
    ),
    "networks": ("Reaction", "ReactionNetwork", "TransportSpec", "build_transport_system", "compile_network"),
    "ltc": ("candidate_slow_set", "is_ltc_set", "minimal_ltc_sets", "preassigned_conditions"),
    "reduction": (
        "Decomposition",
        "ReducedSystem",
        "eigen_certificate",
        "find_decomposition",
        "reduce_model",
        "reduce_with",
        "reduced_initial_value",
        "standard_decomposition",
        "standard_reduce",
        "transform_first_integral",
    ),
    "sim": ("ConvergenceReport", "Trajectory", "convergence_study", "integrate", "iv_inconsistency_demo"),
    "builtin_models": ("BUILTINS", "load_builtin"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
