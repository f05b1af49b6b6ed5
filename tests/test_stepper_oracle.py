"""The float stepper against the numpy stepper it replaced, bit for bit.

The oracle below is the earlier numpy implementation of ``integrate``, the
field compiler and ``Trajectory.sample``: fields evaluated on numpy
scalars into an array, whole-array stage updates, ``np.mean`` norms.  Every
trajectory, derivative, statistic, sample and error location of the float code
must equal it bit for bit, with no tolerance.
"""

import ast
import math
import random
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfred import sim
from tfred.builtin_models import BUILTINS, linex
from tfred.rational import Context
from tfred.reduction import reduce_model
from tfred.sim import (
    IntegrationError,
    IntegratorStats,
    _pairwise_sum,
    compile_rows,
    compile_system,
    default_ladder,
    integrate,
    iv_inconsistency_demo,
    numeric_initial_state,
)

# -- oracle: the numpy stepper ------------------------------------------------

_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
_STEP_FLOOR = 1e-12


def oracle_compile_field(exprs):
    src = "def _field(t, z):\n    return np.array([" + ", ".join(exprs) + "], dtype=float)\n"
    namespace: dict = {"np": np}
    exec(src, namespace)
    return namespace["_field"]


def oracle_integrate(f, z0, t_span, rtol=1e-8, atol=1e-10, max_steps=5_000_000):
    """Returns (taus, states, derivs, stats)."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(z0, dtype=float)
    n = len(y)
    f0 = f(t0, y)
    if not np.all(np.isfinite(f0)):
        raise sim.EvaluationError(t0)
    scale = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, (t1 - t0) / 10)
    taus = [t0]
    states = [y.copy()]
    derivs = [f0.copy()]
    stats = IntegratorStats()
    t = t0
    fcur = f0
    k = [np.zeros(n) for _ in range(7)]
    while t < t1:
        if stats.steps + stats.rejected > max_steps:
            raise IntegrationError("step budget exhausted")
        if t1 - t <= _STEP_FLOOR:
            break
        if h < _STEP_FLOOR:
            raise sim.StiffnessError(t)
        h = min(h, t1 - t)
        k[0] = fcur
        failed = False
        for i in range(1, 7):
            yi = y.copy()
            ai = _DP_A[i]
            for j in range(i):
                if ai[j]:
                    yi = yi + h * ai[j] * k[j]
            k[i] = f(t + _DP_C[i] * h, yi)
            if not np.all(np.isfinite(k[i])):
                failed = True
                break
        if failed:
            stats.rejected += 1
            h *= 0.25
            if h < _STEP_FLOOR:
                raise sim.EvaluationError(t)
            continue
        ynew = y.copy()
        for i in range(7):
            if _DP_B5[i]:
                ynew = ynew + h * _DP_B5[i] * k[i]
        err = np.zeros(n)
        for i in range(7):
            if _DP_E[i]:
                err = err + h * _DP_E[i] * k[i]
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(ynew))
        err_norm = np.sqrt(np.mean((err / scale) ** 2))
        if err_norm <= 1.0:
            t = t + h
            y = ynew
            fcur = k[6] if np.all(np.isfinite(k[6])) else f(t, y)
            taus.append(t)
            states.append(y.copy())
            derivs.append(fcur.copy())
            stats.steps += 1
            stats.min_step = min(stats.min_step, h)
        else:
            stats.rejected += 1
        factor = 0.9 * err_norm ** (-0.2) if err_norm > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    if not np.all(np.isfinite(np.array(states))):
        raise sim.EvaluationError(t)
    return np.array(taus), np.array(states), np.array(derivs), stats


def oracle_sample(taus, states, derivs, grid):
    grid = np.asarray(grid, dtype=float)
    out = np.empty((len(grid), states.shape[1]))
    idx = np.searchsorted(taus, grid, side="right") - 1
    idx = np.clip(idx, 0, len(taus) - 2)
    for row, (g, i) in enumerate(zip(grid, idx)):
        t0, t1 = taus[i], taus[i + 1]
        h = t1 - t0
        th = (g - t0) / h if h > 0 else 0.0
        y0, y1 = states[i], states[i + 1]
        f0, f1 = derivs[i], derivs[i + 1]
        h00 = 2 * th**3 - 3 * th**2 + 1
        h10 = th**3 - 2 * th**2 + th
        h01 = -2 * th**3 + 3 * th**2
        h11 = th**3 - th**2
        out[row] = h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1
    return out


def both_fields(monkeypatch, compile_fn, *args, **kwargs):
    """A compiled field and the same rows compiled the numpy way.

    The rows are read from the ``_field`` source that ``sim._exec`` runs.  In
    compile_system's module each coefficient name is written as the literal
    of the float it binds; a fresh cache makes it generate one.
    """
    seen = []
    real = sim._exec

    def spy(lines, name):
        fn = real(lines, name)
        if name not in ("_field", "bind"):
            return fn
        src = "\n".join(lines)
        (field_def,) = [d for d in ast.walk(ast.parse(src)) if isinstance(d, ast.FunctionDef) and d.name == "_field"]
        (body,) = [d for d in field_def.body if isinstance(d, ast.Try)]
        exprs = [ast.get_source_segment(src, e) for e in body.body[0].value.elts]
        if name == "_field":
            seen.append(exprs)
            return fn

        def spy_bind(c):
            seen.append([re.sub(r"\bc(\d+)\b", lambda m: repr(c[int(m[1])]), e) for e in exprs])
            return fn(c)

        return spy_bind

    monkeypatch.setattr(sim, "_exec", spy)
    monkeypatch.setattr(sim, "_SYSTEM_CODE", weakref.WeakKeyDictionary())
    field = compile_fn(*args, **kwargs)
    monkeypatch.undo()
    (exprs,) = seen
    return field, oracle_compile_field([re.sub(r"\b_z(\d+)\b", r"z[\1]", e) for e in exprs])


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_run(field, oracle, z0, t_span, grid=None, **kwargs):
    traj = integrate(field, z0, t_span, **kwargs)
    with np.errstate(all="ignore"):
        taus, states, derivs, stats = oracle_integrate(oracle, z0, t_span, **kwargs)
    assert same_bits(traj.taus, taus)
    assert same_bits(traj.states, states)
    assert same_bits(traj.derivs, derivs)
    assert traj.stats == stats
    if grid is not None:
        assert same_bits(traj.sample(grid), oracle_sample(taus, states, derivs, grid))
    return traj


# -- the ladder models ------------------------------------------------------------

# heterogeneous transport_binding(4): unequal rates and initial levels
TRANSPORT_SET = {
    "k1": "1.1", "km1": "0.9", "delta_s": "1.2", "delta_p": "0.85", "delta_c": "1.05",
    **{f"{x}0_{a}": v for x, vs in zip("spc", (("0.6", "1.9", "1.2", "0.8"), ("1.5", "0.7", "1.1", "1.8"),
                                                 ("0.9", "1.3", "0.55", "1.6")))
       for a, v in enumerate(vs, 1)},
}
MODELS = {"mm2d": {}, "mm3d": {}, "transport_binding": TRANSPORT_SET}
GRID = np.linspace(0.1, 2.0, 201)


@pytest.fixture(scope="module")
def reduced():
    out = {}
    for name, overrides in MODELS.items():
        spec = BUILTINS[name]()
        params = {p.name: Fraction(1) for p in spec.system.ctx.params}
        params.update({k: Fraction(v) for k, v in overrides.items()})
        red = reduce_model(spec.system, list(spec.fast))
        at_limit = dict(params, eps=Fraction(0))
        z0 = [float(red.initial_values[n].eval(at_limit)) for n in red.states]
        out[name] = (red, params, z0)
    return out


@pytest.mark.parametrize("eps", [1e-1, 7.8e-4])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_full_slow_field_matches_numpy_stepper(monkeypatch, reduced, model, eps):
    red, params, _ = reduced[model]
    system = red.scaled.system
    field, oracle = both_fields(monkeypatch, compile_system, system, params, eps)
    z0 = numeric_initial_state(system, params, eps)
    traj = assert_same_run(field, oracle, z0, (0.0, 2.0), GRID)
    assert traj.stats.steps > (1000 if eps < 1e-2 else 10)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_reduced_field_matches_numpy_stepper(monkeypatch, reduced, model):
    red, params, z0 = reduced[model]
    field, oracle = both_fields(monkeypatch, compile_rows, red.field, list(red.states), params)
    assert_same_run(field, oracle, z0, (0.0, 2.0), GRID)


@pytest.mark.parametrize("consistent", [False, True])
def test_demo_linex_matches_numpy_stepper(consistent):
    a, b, c, x0, y0 = -1.0, 1.0, -1.0, 1.0, 1.0
    report = iv_inconsistency_demo(a, b, c, x0, y0, consistent=consistent)
    expected = []
    for eps in default_ladder(1e-1, 1e-3):
        def f(t, z, eps=eps):
            return np.array([a * z[0] + b * z[1], (c / eps) * z[1]])

        ystar0 = y0 if consistent else y0 / eps
        _, states, _, _ = oracle_integrate(f, [x0, ystar0], (0.0, 1.0), 1e-10, 1e-12)
        expected.append(float(states[-1][0] - x0 * math.exp(a)))
    assert report.discrepancies == expected


# The first two start at a pole and past an overflow; the others run into a
# pole or a blow-up, through rejected steps that hit nan rows on the way.
@pytest.mark.parametrize(
    "expr, x0",
    [("1/(x - 1)", 1.0), ("x^3", 1e103), ("1/(1 - x)", 0.0), ("x^2", 1.0), ("-x^3", 1e100), ("x^2/(1 - x)", 0.5)],
)
def test_pole_matches_numpy_stepper(monkeypatch, expr, x0):
    ctx = linex().system.ctx
    field, oracle = both_fields(monkeypatch, compile_rows, [ctx.parse(expr)], ["x"], {})
    with pytest.raises(IntegrationError) as got:
        integrate(field, [x0], (0.0, 2.0))
    with np.errstate(all="ignore"), pytest.raises(IntegrationError) as want:
        oracle_integrate(oracle, [x0], (0.0, 2.0))
    assert type(got.value) is type(want.value)
    assert got.value.tau == want.value.tau


# -- state counts at the branch points of the pairwise sum -------------------------


def seeded_linear_rows(n, seed):
    """A stable linear field on n states: diagonal rates in [-4, -1], weak coupling."""
    rng = random.Random(seed)
    ctx = Context([f"z{i}" for i in range(n)])
    rows = []
    for i in range(n):
        terms = []
        for j in range(n):
            c = -Fraction(rng.randint(4, 16), 4) if i == j else Fraction(rng.randint(-8, 8), 16 * n)
            if c:
                terms.append(f"({c})*z{j}")
        rows.append(ctx.parse(" + ".join(terms)))
    return rows, [s.name for s in ctx.states]


# below 8 a fold; 8 and 16 whole blocks; 9 and 17 a block and a tail
@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
def test_linear_field_matches_numpy_stepper(monkeypatch, n):
    rows, names = seeded_linear_rows(n, seed=n)
    field, oracle = both_fields(monkeypatch, compile_rows, rows, names, {})
    z0 = [(-1.0) ** i * (i + 1) * 10.0 ** (i % 5 - 2) for i in range(n)]
    traj = assert_same_run(field, oracle, z0, (0.0, 1.0), np.linspace(0.0, 1.0, 11))
    assert traj.stats.steps > 10


def test_convergence_study_compiles_one_module_per_study(monkeypatch, reduced):
    red, params, z0 = reduced["mm2d"]
    system = red.scaled.system
    assert (len(red.states), len(system.states)) == (1, 2)
    built = []
    real = sim._system_module

    def spy(exprs, n_coeffs):
        built.append(n_coeffs)
        return real(exprs, n_coeffs)

    monkeypatch.setattr(sim, "_system_module", spy)
    monkeypatch.setattr(sim, "_SYSTEM_CODE", weakref.WeakKeyDictionary())
    sim._dp_stepper.cache_clear()

    def study():
        return sim.convergence_study(
            system, red.field, list(red.states), dict(zip(red.states, z0)), params, ladder=[1e-1, 5e-2, 2.5e-2], t2=1.0
        )

    report = study()
    assert len(report.ladder) == 3
    # one module for the three rungs, and one generic step, for the reduced flow's one state
    assert len(built) == 1
    assert sim._dp_stepper.cache_info()[:2] == (0, 1)
    # a second study of the same system binds the same module: none per rung
    again = study()
    assert again.errors == report.errors
    assert len(built) == 1
    assert sim._dp_stepper.cache_info()[:2] == (1, 1)
    assert compile_system(system, params, 1e-2).dp_step


# -- numpy's summation order ------------------------------------------------------

mixed = st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-40, 40))


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed, max_size=300))
@example([-0.0] * 3)
@example([-0.0] * 9)
@example([-0.0] * 200)
def test_pairwise_sum_matches_numpy_sum(v):
    assert _pairwise_sum(v).hex() == float(np.sum(np.array(v, dtype=float))).hex()
