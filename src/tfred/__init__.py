"""Degenerate scalings and singular-perturbation reductions of polynomial ODE models."""

from .rational import Context, Polynomial, RationalFunction, Symbol
from .matrices import RFMatrix, char_poly, hadamard_factor, linear_solve, rank_and_factor
from .systems import (
    GradedSystem,
    InitialValue,
    Partition,
    ScaledSystem,
    apply_scaling,
    check_ltc,
    epsilon_grade,
    linear_first_integrals,
    raw_system,
    time_rescale,
)
from .networks import Reaction, ReactionNetwork, TransportSpec, build_transport_system, compile_network
from .ltc import candidate_slow_set, is_ltc_set, minimal_ltc_sets, preassigned_conditions
from .reduction import (
    Decomposition,
    ReducedSystem,
    eigen_certificate,
    find_decomposition,
    nonstandard_reduce,
    reduce_model,
    reduce_with,
    reduced_initial_value,
    slow_manifold_first_order,
    standard_decomposition,
    standard_reduce,
    transform_first_integral,
)
from .sim import ConvergenceReport, Trajectory, convergence_study, integrate, iv_inconsistency_demo
from .builtin_models import BUILTINS, load_builtin

__version__ = "0.1.0"
