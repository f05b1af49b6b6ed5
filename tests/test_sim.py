"""Integrator accuracy, conservation, convergence ladders, and the demo harness."""

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfred import sim
from tfred.builtin_models import linex, mm2d, mm3d
from tfred.reduction import (
    default_sample,
    find_decomposition,
    reduce_model,
    reduce_with,
    reduced_initial_value,
    scaled_initial_symbolic,
)
from tfred.rational import Context, RationalFunction
from tfred.sim import (
    EvaluationError,
    IntegratorStats,
    StiffnessError,
    Trajectory,
    compile_rows,
    compile_system,
    convergence_study,
    default_ladder,
    fit_order,
    integrate,
    iv_inconsistency_demo,
    numeric_initial_state,
)
from tfred.systems import GradedSystem, Partition, apply_scaling


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
    step = sim._dp_stepper(1)

    def decay(t, z):
        return [-v for v in z]

    errs = []
    for h in (0.1, 0.05):
        t, y = 0.0, [1.0]
        fy = decay(t, y)
        for _ in range(round(1.0 / h)):
            y, fy, _ = step(decay, t, h, y, fy, 1e-10, 1e-8)
            t += h
        errs.append(abs(y[0] - math.exp(-1)))
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
        integrate(nasty, [0.0], (0.0, 1.0), rtol=1e-8, atol=1e-10)
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
        integrate(field, [0.0], (0.0, 1.0), rtol=1e-8, atol=1e-10)
    assert err.value.tau == pytest.approx(0.5, abs=0.1)


@pytest.mark.parametrize(
    "rate",
    [lambda t: 1.0 / (t <= 0.5), lambda t: 10.0 ** (400 if t > 0.5 else 0)],
    ids=["ZeroDivisionError", "OverflowError"],
)
def test_a_plain_callable_that_raises_in_a_stage_rejects_the_step(rate):
    # python floats raise where a compiled field returns its row of nan; the
    # step is rejected all the same, down to the step floor at tau = 1/2
    with pytest.raises(EvaluationError) as err:
        integrate(lambda t, z: [-rate(t) * z[0]], [1.0], (0.0, 1.0))
    assert err.value.tau == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("t_span", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0)])
def test_integrate_refuses_a_non_finite_window(t_span):
    with pytest.raises(ValueError, match="need a finite t_span"):
        integrate(lambda t, z: [-v for v in z], [1.0], t_span)


def test_reduced_against_itself_is_exact():
    spec = mm2d()
    red = reduce_model(spec.system, ["c"], mode="standard")
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
    red = reduce_model(spec.system, ["c"], mode="standard")
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


@pytest.mark.parametrize(
    "start, stop, factor",
    [
        (1e-1, 1e-3, 1.0),
        (1e-1, 0.0, 2.0),
        (1e-3, 1e-1, 2.0),
        (math.inf, 1e-3, 2.0),
        (1e-1, math.inf, 2.0),
        (1e-1, 1e-3, math.inf),
        (math.nan, 1e-3, 2.0),
    ],
)
def test_default_ladder_refuses_a_ladder_that_never_ends_or_is_empty(start, stop, factor):
    with pytest.raises(ValueError):
        default_ladder(start, stop, factor)


def test_default_ladder_counts_its_rungs_before_building_them():
    # 1e-1 down to 1e-300 by 1.000001 would be about 7e8 rungs
    with pytest.raises(ValueError, match="688473288 rungs"):
        default_ladder(1e-1, 1e-300, 1.000001)
    assert len(default_ladder()) == 10
    assert len(default_ladder(1.0, 2.0 ** -(sim.MAX_RUNGS - 1))) == sim.MAX_RUNGS
    with pytest.raises(ValueError, match="more than"):
        default_ladder(1.0, 2.0**-sim.MAX_RUNGS)


def hermite_per_point(traj, grid):
    """``Trajectory.sample`` as a loop over grid points in python floats, the reference."""
    grid = np.asarray(grid, dtype=float)
    idx = np.searchsorted(traj.taus, grid, side="right") - 1
    idx = np.clip(idx, 0, len(traj.taus) - 2)
    taus, states, derivs = traj.taus, traj.states, traj.derivs
    rows = []
    for g, i in zip(grid.tolist(), idx.tolist()):
        t0, t1 = float(taus[i]), float(taus[i + 1])
        h = t1 - t0
        th = (g - t0) / h if h > 0 else 0.0
        h00 = 2 * th**3 - 3 * th**2 + 1
        h10 = th**3 - 2 * th**2 + th
        h01 = -2 * th**3 + 3 * th**2
        h11 = th**3 - th**2
        x10, x11 = h10 * h, h11 * h
        y0, f0 = states[i].tolist(), derivs[i].tolist()
        y1, f1 = states[i + 1].tolist(), derivs[i + 1].tolist()
        rows.append([h00 * a + x10 * b + h01 * c + x11 * d for a, b, c, d in zip(y0, f0, y1, f1)])
    return np.array(rows, dtype=float).reshape(len(rows), states.shape[1])


values = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def trajectories_and_grids(draw):
    """A trajectory of 2 (one interval) to 7 accepted times, some repeated
    (a zero step), and a grid at, just before, just after and between them."""
    n = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 5.0)), min_size=1, max_size=6))
    taus = [draw(st.floats(-10.0, 10.0))]
    for gap in gaps:
        taus.append(taus[-1] + gap)
    rows = len(taus)
    states = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=rows, max_size=rows)))
    derivs = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=rows, max_size=rows)))
    near = st.builds(
        lambda t, side: math.nextafter(t, side * math.inf) if side else t,
        st.sampled_from(taus),
        st.sampled_from((-1, 0, 1)),
    )
    grid = draw(st.lists(st.one_of(near, st.floats(taus[0] - 1.0, taus[-1] + 1.0)), max_size=40))
    return Trajectory(np.array(taus), states, derivs, (), IntegratorStats()), grid


@settings(max_examples=300, deadline=None)
@given(trajectories_and_grids())
def test_sample_equals_the_per_point_loop_bit_for_bit(case):
    traj, grid = case
    got, want = traj.sample(grid), hermite_per_point(traj, grid)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rhs(t, z):
    return [-z[0] + 0.5 * z[0] * z[1], -3.0 * z[1] + math.sin(t)]


@pytest.mark.parametrize("kind", [list, tuple, np.array])
@pytest.mark.parametrize("t1", [2.0, 1e-13], ids=["steps", "zero-steps"])
def test_trajectory_arrays_are_the_rows_for_any_sequence_field(kind, t1):
    seen = set()

    def field(t, z):
        seen.add(tuple(z))
        return kind(rhs(t, z))

    traj = integrate(field, [1.0, 0.5], (0.0, t1))
    assert (traj.stats.steps == 0) == (t1 < 1.0)
    rows = len(traj.taus)
    for arr in (traj.states, traj.derivs):
        assert arr.dtype == np.float64 and arr.shape == (rows, 2) and arr.flags.c_contiguous
    # every state is one the field was called at, each derivative the field's row there
    assert all(tuple(row) in seen for row in traj.states.tolist())
    want = np.array([rhs(t, z) for t, z in zip(traj.taus.tolist(), traj.states.tolist())], dtype=float)
    assert traj.derivs.tobytes() == want.tobytes()
    reference = integrate(lambda t, z: rhs(t, z), [1.0, 0.5], (0.0, t1))
    assert traj.states.tobytes() == reference.states.tobytes()


# -- the inlined step ---------------------------------------------------------------

# x^300 overflows a float past |x| = 10.65, and an initial 11.0 starts past
# it; a product of floats near 1e100 overflows to inf without raising
exponents = st.sampled_from([0, 0, 1, 2, 3, 300])
starts = st.lists(st.sampled_from([0.0, 0.5, -1.0, 2.0, 11.0, 1e100]), min_size=2, max_size=2)


def run_bytes(field, z0, t1=0.5):
    """A run's arrays as bytes and its stats, or its IntegrationError's type and tau.

    A stiff random field would take millions of steps, so the step budget is cut.
    """
    try:
        with mock.patch.object(sim, "MAX_STEPS", 5_000):
            traj = integrate(field, z0, (0.0, t1))
    except sim.IntegrationError as exc:
        return type(exc), getattr(exc, "tau", None), str(exc)
    return traj.taus.tobytes(), traj.states.tobytes(), traj.derivs.tobytes(), traj.stats


def assert_inlined_step_is_the_called_one(field, z0):
    assert field.dp_step
    # the wrapper hides dp_step, so integrate calls the same rows through _dp_stepper(n)
    assert run_bytes(field, z0) == run_bytes(lambda t, z: field(t, z), z0)


def literal_field(system, params, eps):
    """The full field compiled with every folded coefficient a literal, one source per rung."""
    env = {k: float(v) for k, v in params.items()}
    pos = {n: i for i, n in enumerate(system.states)}
    rows = [[] for _ in system.states]
    for order, grade in zip(system.orders(), system.grades):
        weight = float(eps) ** (order - 1)
        for row, p in zip(rows, grade):
            for e, c in p.monomials().items():
                coeff = float(c) * weight
                factors = []
                for i, k in enumerate(e):
                    name = p.ctx.symbols[i].name
                    if k and name in pos:
                        factors.append(f"_z{pos[name]}" if k == 1 else f"_z{pos[name]}**{k}")
                    elif k:
                        coeff *= env[name] ** k
                if coeff != 0.0:
                    row.append("*".join([repr(coeff), *factors]))
    namespace = {"nan": math.nan}
    exec("\n".join(sim._field_source(["(" + (" + ".join(row) or "0.0") + ")" for row in rows], len(rows))), namespace)
    return namespace["_field"]


@st.composite
def polynomials(draw, ctx):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.sampled_from(["1", "-1", "2", "-3/4", "1/3"]))
        powers = [f"x^{draw(exponents)}", f"y^{draw(exponents)}", f"a^{draw(st.integers(0, 2))}", f"b^{draw(st.integers(0, 2))}"]
        terms.append("*".join([c, *powers]))
    return ctx.parse_poly(" + ".join(terms) or "0")


@st.composite
def graded_systems(draw):
    """Two low grades, and a grade at an order whose eps-weight underflows to 0.0 at eps = 0.05 but not at 0.5."""
    ctx = Context(["x", "y"], ["a", "b"])
    low = [[draw(polynomials(ctx)) for _ in range(2)] for _ in range(2)]
    top = [draw(polynomials(ctx)) + ctx.parse_poly("x*y"), draw(polynomials(ctx))]
    zero = [ctx.zero(), ctx.zero()]
    return GradedSystem(ctx, low + [zero] * draw(st.integers(248, 998)) + [top])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graded_systems(), st.sampled_from([Fraction(0), Fraction(5, 4)]), starts)
def test_inlined_step_equals_the_called_step_over_a_ladder(system, a, z0):
    params = {"a": a, "b": Fraction(-3, 4)}
    for eps in (0.5, 0.1, 0.05):
        field = compile_system(system, params, eps)
        assert_inlined_step_is_the_called_one(field, z0)
        # the bound coefficients are the literals folded in the same float operations
        assert run_bytes(field, z0) == run_bytes(literal_field(system, params, eps), z0)
    # the top grade's x*y term is kept at eps = 0.5 and dropped at 0.05
    (code,) = sim._SYSTEM_CODE[system].values()
    assert len(code.modules) == 2


@st.composite
def rational_rows(draw):
    """Two rows in the coefficient names c0, c1, ..., each a sum or a quotient of sums, and their coefficients."""
    coeffs: list[float] = []

    def poly(least, most):
        terms = []
        for _ in range(draw(st.integers(least, most))):
            # a power raises where it overflows, a product of the same factors does not
            power = draw(st.booleans())
            factors = [f"_z{i}**{k}" if power and k > 1 else "*".join([f"_z{i}"] * k)
                       for i, k in enumerate(draw(st.tuples(exponents, exponents))) if k]
            terms.append("*".join([f"c{len(coeffs)}", *factors]))
            coeffs.append(draw(st.sampled_from([0.0, 1.0, -1.0, 2.5, -0.5, 1e-3])))
        return " + ".join(terms) or "0.0"

    rows = []
    for _ in range(2):
        num = poly(0, 3)
        rows.append(f"({num})/({poly(1, 2)})" if draw(st.booleans()) else f"({num})")
    return rows, coeffs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rational_rows(), st.floats(-4.0, 4.0), starts)
@example((["(c0)/(c1*_z0 + c2)", "(0.0)"], [1.0, -1.0, 1.0]), 1.0, [0.0, 0.0])  # a pole at x = 1
@example((["(c0*_z0**300)", "(c1*_z1)"], [1.0, -1.0]), 1.0, [10.0, 1.0])  # overflows inside the step loop
@example((["(c0*_z0*_z0*_z0)", "(0.0)"], [1.0]), 1.0, [1e100, 0.0])  # a stage goes to inf without raising
def test_inlined_step_equals_the_called_step_on_rational_rows(case, scale, z0):
    rows, coeffs = case
    bind = sim._system_module(rows, len(coeffs))
    first = bind(coeffs)
    want = run_bytes(first, z0)
    second = bind([c * scale for c in coeffs])
    # binding the second field leaves the first one's coefficients
    assert run_bytes(first, z0) == want
    for field in (first, second):
        assert_inlined_step_is_the_called_one(field, z0)
