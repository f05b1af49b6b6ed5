"""Integrator accuracy, conservation, convergence ladders, and the demo harness."""

import json
import math

import numpy as np
import pytest

from tfred.builtin_models import linex, mm2d, mm3d
from tfred.reduction import (
    default_sample,
    find_decomposition,
    reduce_with,
    reduced_initial_value,
    scaled_initial_symbolic,
    standard_reduce,
)
from tfred.rational import RationalFunction
from tfred.sim import (
    EvaluationError,
    StiffnessError,
    compile_rows,
    compile_system,
    convergence_study,
    default_ladder,
    fit_order,
    integrate,
    iv_inconsistency_demo,
    numeric_initial_state,
)
from tfred.systems import Partition, apply_scaling


def test_exponential_decay_accuracy():
    traj = integrate(lambda t, z: [-v for v in z], [1.0], (0.0, 1.0), rtol=1e-10, atol=1e-12)
    assert abs(traj.final()[0] - math.exp(-1)) < 1e-8


def test_linex_reduced_solution():
    # x' = a x with a = -1: matches x0*exp(-tau) everywhere on the grid
    spec = linex()
    ctx = spec.system.ctx
    field = compile_rows([ctx.parse("a*x")], ["x"], {"a": -1.0})
    traj = integrate(field, [2.0], (0.0, 2.0), rtol=1e-10, atol=1e-12)
    grid = np.linspace(0.1, 2.0, 50)
    vals = traj.sample(grid)[:, 0]
    assert np.max(np.abs(vals - 2.0 * np.exp(-grid))) < 1e-7


def test_fixed_step_order_five():
    # halving a fixed step shrinks global error by about 2^5 for a 5th order pair
    errs = []
    for h in (0.1, 0.05):
        traj = integrate(lambda t, z: [-v for v in z], [1.0], (0.0, 1.0), h_fixed=h)
        errs.append(abs(traj.final()[0] - math.exp(-1)))
    ratio = errs[0] / errs[1]
    assert ratio > 2**4, f"observed order ratio {ratio}"


def test_tolerance_tightening_reduces_error():
    errs = []
    for rtol in (1e-6, 1e-10):
        traj = integrate(lambda t, z: [-v for v in z], [1.0], (0.0, 1.0), rtol=rtol, atol=rtol * 1e-2)
        errs.append(abs(traj.final()[0] - math.exp(-1)))
    assert errs[1] < errs[0] / 16


def test_mm_full_system_conserves_total_enzyme():
    spec = mm3d()
    scaled = apply_scaling(spec.system, Partition.from_fast(spec.system, ["e", "c"]))
    params = {"k1": 1, "km1": 1, "k2": 1, "e0": 1, "s0": 1}
    eps = 1e-2
    field = compile_system(scaled.system, params, eps)
    z0 = numeric_initial_state(scaled.system, params, eps)
    traj = integrate(field, z0, (0.0, 2.0), rtol=1e-10, atol=1e-12, names=scaled.system.states)
    i, j = traj.names.index("e_star"), traj.names.index("c_star")
    total = traj.states[:, i] + traj.states[:, j]
    drift = np.max(np.abs(total - total[0]))
    assert drift < 1e-9


def test_stiffness_error_carries_location():
    def nasty(t, z):
        return np.array([1.0 / (0.5 - t) ** 2])

    with pytest.raises((StiffnessError, EvaluationError)) as err:
        integrate(nasty, [0.0], (0.0, 1.0), rtol=1e-8, atol=1e-10, step_floor=1e-10)
    assert err.value.tau == pytest.approx(0.5, abs=0.1)


def test_compiled_pole_gives_nonfinite_row():
    ctx = linex().system.ctx
    field = compile_rows([ctx.parse("1/(x - 1)")], ["x"], {})
    row = field(0.0, [1.0])
    assert len(row) == 1 and not math.isfinite(row[0])


def test_compiled_pole_error_carries_location():
    # x' = 1/(1 - x) from x = 0 reaches its pole x = 1 at tau = 1/2
    ctx = linex().system.ctx
    field = compile_rows([ctx.parse("1/(1 - x)")], ["x"], {})
    with pytest.raises((StiffnessError, EvaluationError)) as err:
        integrate(field, [0.0], (0.0, 1.0), rtol=1e-8, atol=1e-10, step_floor=1e-10)
    assert err.value.tau == pytest.approx(0.5, abs=0.1)


def test_reduced_against_itself_is_exact():
    spec = mm2d()
    red = standard_reduce(spec.system, Partition.from_fast(spec.system, ["c"]))
    params = {"k1": 1, "km1": 1, "k2": 1, "e0": 1, "s0": 1}
    rows = red.field
    field = compile_rows(rows, ["s"], params)
    traj_a = integrate(field, [1.0], (0.0, 2.0), rtol=1e-10, atol=1e-12, names=("s",))
    grid = np.linspace(0.1, 2.0, 101)
    va = traj_a.sample(grid)
    vb = traj_a.sample(grid)
    assert np.max(np.abs(va - vb)) == 0.0


def test_convergence_mm2d_first_order():
    spec = mm2d()
    part = Partition.from_fast(spec.system, ["c"])
    scaled = apply_scaling(spec.system, part)
    red = standard_reduce(spec.system, part)
    params = {"k1": 1, "km1": 1, "k2": 1, "e0": 1, "s0": 1}
    report = convergence_study(
        scaled.system,
        red.field,
        red.states,
        {"s": 1.0},
        params,
        ladder=default_ladder(1e-1, 1e-3),
        t1=0.1,
        t2=2.0,
    )
    assert report.verdict == "converges"
    assert all(a > b for a, b in zip(report.errors, report.errors[1:]))
    assert 0.8 <= report.fitted_order <= 1.2, report.fitted_order


def test_convergence_mm3d_nonstandard_monotone():
    spec = mm3d()
    part = Partition.from_fast(spec.system, ["e", "c"])
    scaled = apply_scaling(spec.system, part)
    sys = scaled.system
    dec = find_decomposition(sys.grade(0), default_sample(sys.ctx, seed=2))
    red = reduce_with(dec, sys.grade(1))
    ctx = sys.ctx
    integrals = [
        RationalFunction.of(ctx.sym("s")),
        RationalFunction.of(ctx.parse_poly("e_star + c_star")),
    ]
    z0sym = scaled_initial_symbolic(scaled)
    sol = reduced_initial_value(integrals, list(dec.mu), z0sym, list(sys.states))
    params = {"k1": 1, "km1": 1, "k2": 1, "e0": 1, "s0": 1, "eps": 0}
    z0red = {n: float(sol[n].eval(params)) for n in sys.states}
    report = convergence_study(
        sys,
        red.field,
        sys.states,
        z0red,
        {k: v for k, v in params.items() if k != "eps"},
        ladder=default_ladder(1e-1, 1e-3),
        t1=0.1,
        t2=2.0,
    )
    assert all(a > b for a, b in zip(report.errors, report.errors[1:]))
    assert report.verdict == "converges"


def test_iv_demo_inconsistent_limit_matches_closed_form():
    report = iv_inconsistency_demo(a=-1, b=1, c=-1, y0=1.0, tau_eval=1.0)
    assert report.verdict == "does_not_converge"
    assert abs(report.extrapolated - math.exp(-1)) < 1e-3
    assert abs(report.closed_form - math.exp(-1)) < 1e-12


def test_iv_demo_zero_initial_datum():
    report = iv_inconsistency_demo(a=-1, b=1, c=-1, y0=0.0, tau_eval=1.0)
    assert all(abs(d) < 1e-8 for d in report.discrepancies)
    assert report.verdict == "converges"


def test_iv_demo_consistent_variant_converges():
    report = iv_inconsistency_demo(a=-1, b=1, c=-1, y0=1.0, tau_eval=1.0, consistent=True)
    assert report.verdict == "converges"
    assert abs(report.extrapolated) < 1e-3


def test_fit_order_recovers_slope():
    ladder = [0.1, 0.05, 0.025, 0.0125]
    errors = [3 * e**1.5 for e in ladder]
    assert abs(fit_order(ladder, errors) - 1.5) < 1e-6


def test_stats_without_a_step_have_no_min_step():
    # a span below the step floor takes no step; inf is not valid JSON
    traj = integrate(lambda t, z: [-z[0]], [1.0], (0.0, 1e-13))
    assert traj.stats.steps == 0
    assert traj.stats.to_json() == {"steps": 0, "rejected": 0, "min_step": None}
    assert json.loads(json.dumps(traj.stats.to_json()))["min_step"] is None


@pytest.mark.parametrize("start, stop, factor", [(1e-1, 1e-3, 1.0), (1e-1, 0.0, 2.0), (1e-3, 1e-1, 2.0)])
def test_default_ladder_refuses_a_ladder_that_never_ends_or_is_empty(start, stop, factor):
    with pytest.raises(ValueError):
        default_ladder(start, stop, factor)
