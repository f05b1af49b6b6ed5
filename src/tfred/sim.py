"""Numerical integration and eps-ladder convergence studies.

Symbolic fields are compiled to plain float evaluators (parameters and the
small parameter bound at compile time), integrated with an embedded
Dormand-Prince 5(4) pair, and compared on a common grid via cubic Hermite
dense output.  Full systems are integrated in slow time, so the fast block
carries a 1/eps factor and the explicit stepper simply takes small steps;
the ladder bottoms out where that stays feasible.

A field is a callable ``f(t, z)`` that takes a sequence of python floats and
returns a list of them, one per state.  The stepper works on python floats
throughout and builds numpy arrays only for the finished ``Trajectory``.  A
compiled field returns a row of ``nan`` at a pole or where a power overflows,
so the stepper rejects the step just as it does any other non-finite stage.

The Dormand-Prince step is python source generated once per state count and
cached: the state and the stage derivatives live in locals, each stage input
and the error norm are straight-line float expressions, and the field is
called through the same ``f(t, z)`` contract as any other.  The generated
code keeps the numpy stepper's operation order (stage sums left to right,
the norm's sum in numpy's pairwise order), so every float of a trajectory is
bit for bit the one that stepper computed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .rational import Polynomial, Q, RationalFunction
from .systems import GradedSystem


class IntegrationError(Exception):
    pass


class StiffnessError(IntegrationError):
    """Step size underflow; carries the time of failure."""

    def __init__(self, tau: float):
        super().__init__(f"step size underflow at tau = {tau:.6g}")
        self.tau = tau


class EvaluationError(IntegrationError):
    """Field evaluation produced a non-finite value (denominator blow-up)."""

    def __init__(self, tau: float):
        super().__init__(f"field evaluation failed at tau = {tau:.6g}")
        self.tau = tau


# -- field compilation -------------------------------------------------------


Field = Callable[[float, Sequence[float]], Sequence[float]]


def _poly_expr(p: Polynomial, state_pos: Mapping[str, int], env: Mapping[str, float], weight: float) -> list[str]:
    """Terms of a polynomial as python expressions in the state locals _z0, _z1, ..., constants folded."""
    ctx = p.ctx
    parts: list[str] = []
    for e, c in p.terms.items():
        coeff = float(c) * weight
        factors: list[str] = []
        for i, k in enumerate(e):
            if k == 0:
                continue
            name = ctx.symbols[i].name
            if name in state_pos:
                z = f"_z{state_pos[name]}"
                factors.append(z if k == 1 else f"{z}**{k}")
            else:
                if name not in env:
                    raise IntegrationError(f"unbound parameter {name} in numeric field")
                coeff *= env[name] ** k
        if coeff == 0.0:
            continue
        expr = repr(coeff)
        if factors:
            expr += "*" + "*".join(factors)
        parts.append(expr)
    return parts


def _float_env(params: Mapping[str, object]) -> dict[str, float]:
    return {k: float(Fraction(str(v))) if not isinstance(v, (int, float, Fraction)) else float(v) for k, v in params.items()}


def _compile_field(exprs: Sequence[str], n_states: int) -> Field:
    """Compile one python expression per row into a vector field (t, z) -> dz.

    The state is unpacked into the locals _z0, _z1, ... once per call.  Python
    floats raise where numpy would return inf or nan, so a division by zero or
    an overflowing power returns a row of nan instead.
    """
    unpack = "".join(f"_z{i}, " for i in range(n_states))
    src = (
        "def _field(t, z):\n"
        + (f"    {unpack}= z\n" if n_states else "")
        + "    try:\n"
        + "        return [" + ", ".join(exprs) + "]\n"
        + "    except (ZeroDivisionError, OverflowError):\n"
        + "        return [" + ", ".join(["nan"] * len(exprs)) + "]\n"
    )
    namespace: dict = {"nan": math.nan}
    exec(src, namespace)
    return namespace["_field"]


def compile_rows(
    rows: Sequence[RationalFunction | Polynomial],
    state_names: Sequence[str],
    params: Mapping[str, object],
) -> Field:
    """Compile rational-function rows into a float vector field z -> dz.

    Parameter values are folded into the coefficients.
    """
    env = _float_env(params)
    pos = {n: i for i, n in enumerate(state_names)}
    exprs: list[str] = []
    for row in rows:
        rf = row if isinstance(row, RationalFunction) else RationalFunction.of(row)
        num_parts = _poly_expr(rf.num, pos, env, 1.0)
        num = " + ".join(num_parts) if num_parts else "0.0"
        if rf.den.is_one():
            exprs.append(f"({num})")
        else:
            den_parts = _poly_expr(rf.den, pos, env, 1.0)
            den = " + ".join(den_parts) if den_parts else "0.0"
            exprs.append(f"({num})/({den})")
    return _compile_field(exprs, len(state_names))


def compile_system(sys: GradedSystem, params: Mapping[str, object], eps: float) -> Field:
    """Numeric slow-time field of a graded system at a concrete eps value.

    The field is divided by eps, the frame in which the full and the reduced
    flow are compared.
    """
    env = _float_env(params)
    pos = {n: i for i, n in enumerate(sys.states)}
    row_parts: list[list[str]] = [[] for _ in sys.states]
    for order, g in zip(sys.orders(), sys.grades):
        weight = float(eps) ** (order - 1)
        for i, p in enumerate(g):
            row_parts[i].extend(_poly_expr(p, pos, env, weight))
    exprs = ["(" + (" + ".join(parts) if parts else "0.0") + ")" for parts in row_parts]
    return _compile_field(exprs, len(sys.states))


def numeric_initial_state(
    sys: GradedSystem, params: Mapping[str, object], eps: float
) -> np.ndarray:
    vals = []
    env = {k: Fraction(str(v)) if isinstance(v, str) else Q(v) for k, v in params.items()}  # type: ignore[arg-type]
    for name in sys.states:
        iv = sys.initial_values[name]
        base = env[iv.base] if isinstance(iv.base, str) else Q(iv.base)
        vals.append(float(base) * float(eps) ** iv.order)
    return np.array(vals, dtype=float)


# -- Dormand-Prince 5(4) ------------------------------------------------------

# Butcher tableau (Hairer-Norsett-Wanner, Solving ODEs I, Table II.5.2)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
# 5th order weights (b2 = b7 = 0); the 7th stage is evaluated at (t+h, ynew): FSAL
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# difference between the 5th and embedded 4th order weights (e2 = 0)
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40


# Stage rows (c_i, a_i1, ..., a_i,i-1) of stages 2 to 7, zero weights kept in
# place.  c6 = c7 = 1, and the 7th row is the 5th order weights (b2 = 0), so
# the 7th stage input is ynew.
_DP_ROWS = (
    (_C2, _A21),
    (_C3, _A31, _A32),
    (_C4, _A41, _A42, _A43),
    (_C5, _A51, _A52, _A53, _A54),
    (1.0, _A61, _A62, _A63, _A64, _A65),
    (1.0, _B1, 0.0, _B3, _B4, _B5, _B6),
)
_DP_ERR = (_E1, 0.0, _E3, _E4, _E5, _E6, _E7)


def _pairwise(v: Sequence, add: Callable, zero):
    """Fold ``v`` with ``add`` in numpy's pairwise summation order.

    Below 8 terms a left fold from ``zero``; up to 128, eight strided
    accumulators combined as a tree, added to ``zero`` and followed by a fold
    over the tail; above, halves cut at a multiple of 8.
    """
    n = len(v)
    if n < 8:
        s = zero
        for x in v:
            s = add(s, x)
        return s
    if n <= 128:
        m = n - n % 8
        r = list(v[:8])
        for i in range(8, m, 8):
            for j in range(8):
                r[j] = add(r[j], v[i + j])
        # numpy adds its sum to the identity 0.0, which turns a -0.0 into 0.0
        s = add(zero, add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7]))))
        for x in v[m:]:
            s = add(s, x)
        return s
    half = n // 2
    half -= half % 8
    return add(_pairwise(v[:half], add, zero), _pairwise(v[half:], add, zero))


def _pairwise_sum(v: Sequence[float]) -> float:
    """Sum of floats in numpy's pairwise order, bit for bit equal to ``np.sum``."""
    return _pairwise(v, operator.add, 0.0)


def _rms(q: Sequence[float]) -> float:
    """sqrt(mean(q**2)), rounded as numpy rounds it."""
    return math.sqrt(_pairwise_sum([v * v for v in q]) / len(q))


def _dp_source(n: int) -> str:
    """Source of the Dormand-Prince step for ``n`` states, as straight-line code.

    The state, ynew and each stage derivative are unpacked into the locals
    y_i, n_i and k<s>_i.  Each stage input is y + (h*a1)*k1 + (h*a2)*k2 + ...,
    summed left to right with the zero weights skipped; the error starts from
    0.0 and its norm is summed in ``_pairwise_sum``'s order, so every float is
    the one the numpy stepper computed.
    """
    def unpack(prefix: str) -> str:
        return "".join(f"{prefix}{i}, " for i in range(n))

    def combine(start: str, weights: Sequence[float]) -> tuple[list[str], list[str]]:
        """The lines x_j = h*a_j, and start + x_1*k1_i + ... per component i."""
        used = [(j, a) for j, a in enumerate(weights, 1) if a]
        xs = [f"    x{j} = h * {a!r}" for j, a in used]
        return xs, [" + ".join([start.format(i)] + [f"x{j} * k{j}_{i}" for j, _ in used]) for i in range(n)]

    def finite(s: int) -> list[str]:
        return ["    if not (" + " and ".join(f"isfinite(k{s}_{i})" for i in range(n)) + "):", "        return None"]

    last = len(_DP_ROWS) + 1
    lines = ["def _dp_step(f, t, h, y, k1, atol, rtol):", f"    {unpack('y_')}= y", f"    {unpack('k1_')}= k1"]
    for s, (c, *weights) in enumerate(_DP_ROWS, 2):
        xs, rows = combine("y_{}", weights)
        at = "t + h" if c == 1.0 else f"t + {c!r} * h"
        lines += xs
        if s < last:
            lines.append(f"    {unpack(f'k{s}_')}= f({at}, [{', '.join(rows)}])")
        else:
            lines += [f"    ynew = [{', '.join(rows)}]", f"    k{s} = f({at}, ynew)", f"    {unpack(f'k{s}_')}= k{s}"]
        lines += finite(s)
    xs, errors = combine("0.0", _DP_ERR)
    lines += xs + [f"    {unpack('n_')}= ynew"]
    # the scale's max(a, b) by max's own rule: a unless b is larger
    for i, e in enumerate(errors):
        lines += [
            f"    a = abs(y_{i})",
            f"    b = abs(n_{i})",
            f"    q_{i} = ({e}) / (atol + rtol * (b if b > a else a))",
        ]
    total = _pairwise([f"q_{i} * q_{i}" for i in range(n)], "({} + {})".format, "0.0")
    lines.append(f"    return ynew, k{last}, sqrt({total} / {n})")
    return "\n".join(lines) + "\n"


@functools.cache
def _dp_stepper(n: int) -> Callable:
    """The generated Dormand-Prince step for ``n`` states, built once per ``n``.

    ``step(f, t, h, y, k1, atol, rtol)`` returns (ynew, k7, error norm), or
    None at a non-finite stage; k7 is f's value at (t+h, ynew), reused as the
    next step's k1 (FSAL).
    """
    namespace: dict = {"isfinite": math.isfinite, "sqrt": math.sqrt}
    exec(_dp_source(n), namespace)
    return namespace["_dp_step"]


MAX_STEPS = 5_000_000  # accepted plus rejected steps before integrate gives up


@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    min_step: float = math.inf

    def to_json(self) -> dict:
        # no accepted step leaves min_step at inf, which JSON cannot spell
        return {
            "steps": self.steps,
            "rejected": self.rejected,
            "min_step": None if self.min_step == math.inf else self.min_step,
        }


@dataclass
class Trajectory:
    """Accepted grid, states, and derivatives for dense interpolation."""

    taus: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    names: tuple[str, ...]
    stats: IntegratorStats

    def sample(self, grid: Sequence[float]) -> np.ndarray:
        """Cubic Hermite interpolation on the accepted intervals."""
        grid = np.asarray(grid, dtype=float)
        idx = np.searchsorted(self.taus, grid, side="right") - 1
        idx = np.clip(idx, 0, len(self.taus) - 2)
        taus, states, derivs = self.taus, self.states, self.derivs
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

    def final(self) -> np.ndarray:
        return self.states[-1]


def integrate(
    f: Field,
    z0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = 1e-8,
    atol: float = 1e-10,
    names: Sequence[str] = (),
    step_floor: float = 1e-12,
    h_fixed: "float | None" = None,
) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) with per-component error control.

    ``f(t, z)`` takes the state as a list of floats and returns the derivative
    as a sequence of floats, one per state; a non-finite entry (a compiled
    field gives nan at a pole or an overflow) rejects the step and quarters
    it.  Each step runs the generated step for ``len(z0)`` states, built on
    the first call for that count and cached; trajectories are bit for bit
    those of the numpy stepper it replaced.  ``atol`` must be
    positive wherever a component can be zero.  ``h_fixed`` disables
    adaptivity (every step accepted at that size); used for order
    measurements.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    y = [float(v) for v in z0]
    fcur = f(t0, y)
    if not all(map(math.isfinite, fcur)):
        raise EvaluationError(t0)
    d0 = _rms([v / (atol + rtol * abs(v)) for v in y])
    d1 = _rms([d / (atol + rtol * abs(v)) for d, v in zip(fcur, y)])
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, (t1 - t0) / 10)
    if h_fixed is not None:
        h = float(h_fixed)

    taus = [t0]
    states = [y]
    derivs = [fcur]
    stats = IntegratorStats()
    step = _dp_stepper(len(y))
    t = t0
    while t < t1:
        if stats.steps + stats.rejected > MAX_STEPS:
            raise IntegrationError("step budget exhausted")
        if t1 - t <= step_floor:
            break  # endpoint reached up to float residue
        if h < step_floor:
            raise StiffnessError(t)
        h = min(h, t1 - t)
        out = step(f, t, h, y, fcur, atol, rtol)
        if out is None:
            stats.rejected += 1
            h *= 0.25
            if h < step_floor:
                raise EvaluationError(t)
            continue
        ynew, k7, err_norm = out
        if err_norm <= 1.0 or h_fixed is not None:
            t = t + h
            y = ynew
            fcur = k7
            taus.append(t)
            states.append(y)
            derivs.append(fcur)
            stats.steps += 1
            stats.min_step = min(stats.min_step, h)
        else:
            stats.rejected += 1
        if h_fixed is None:
            factor = 0.9 * err_norm ** (-0.2) if err_norm > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
        else:
            h = float(h_fixed)
    state_arr = np.array(states, dtype=float)
    if not np.all(np.isfinite(state_arr)):
        raise EvaluationError(t)
    return Trajectory(
        np.array(taus), state_arr, np.array(derivs, dtype=float), tuple(names), stats
    )


# -- convergence studies ---------------------------------------------------------


EPS_FLOOR = 1e-4  # smallest eps the explicit stepper is expected to handle
GRID_POINTS = 201  # points of the comparison grid in [t1, t2]


def default_ladder(start: float = 1e-1, stop: float = 1e-4, factor: float = 2.0) -> list[float]:
    """start, start/factor, ... down to stop."""
    if not (start >= stop > 0 and factor > 1):
        raise ValueError("need start >= stop > 0 and a factor > 1")
    out = []
    e = start
    while e >= stop * (1 - 1e-12):
        out.append(e)
        e /= factor
    return out


@dataclass
class ConvergenceReport:
    """The study's result; ``rung_stats`` runs along ``ladder``, one per compared rung."""

    ladder: list[float]
    errors: list[float]
    per_state: dict[str, list[float]]
    fitted_order: float
    t_window: tuple[float, float]
    observed: tuple[str, ...]
    verdict: str
    failures: list[str] = field(default_factory=list)
    reduced_stats: IntegratorStats = field(default_factory=IntegratorStats)
    rung_stats: list[IntegratorStats] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ladder": self.ladder,
            "sup_errors": self.errors,
            "per_state": self.per_state,
            "integrator": {
                "reduced": self.reduced_stats.to_json(),
                "full": [{"eps": e, **st.to_json()} for e, st in zip(self.ladder, self.rung_stats)],
            },
            "fitted_order": self.fitted_order,
            "window": list(self.t_window),
            "observed": list(self.observed),
            "verdict": self.verdict,
            "failures": self.failures,
        }


def fit_order(ladder: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(err) vs log(eps) over the lower ladder half."""
    pairs = [(e, v) for e, v in zip(ladder, errors) if v > 0]
    if len(pairs) < 2:
        return float("nan")
    half = max(2, len(pairs) // 2)
    tail = pairs[-half:]
    xs = np.log([p[0] for p in tail])
    ys = np.log([p[1] for p in tail])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def convergence_study(
    full: GradedSystem,
    reduced_rows: Sequence[RationalFunction],
    reduced_names: Sequence[str],
    reduced_z0: Mapping[str, float],
    params: Mapping[str, object],
    ladder: Sequence[float] | None = None,
    t1: float = 0.1,
    t2: float = 2.0,
) -> ConvergenceReport:
    """Sup-norm distance between the full slow-time flow and the reduced flow.

    The full system is integrated per ladder value with initial data scaled by
    the stored eps-orders; both trajectories are compared on a common dense
    grid inside [t1, t2], away from the initial layer, in every reduced state
    that is also a state of the full system.
    """
    ladder = list(ladder) if ladder is not None else default_ladder()
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    floor_failures = [f"eps={e:g}: below the eps floor {EPS_FLOOR:g}" for e in ladder if e < EPS_FLOOR]
    ladder = [e for e in ladder if e >= EPS_FLOOR]
    observed = tuple(n for n in reduced_names if n in full.states)
    red_field = compile_rows(reduced_rows, list(reduced_names), params)
    red_y0 = np.array([float(reduced_z0[n]) for n in reduced_names])
    red_traj = integrate(red_field, red_y0, (0.0, t2), names=reduced_names)
    grid = np.linspace(t1, t2, GRID_POINTS)
    red_vals = red_traj.sample(grid)
    red_cols = {n: red_vals[:, list(reduced_names).index(n)] for n in observed}

    errors: list[float] = []
    per_state: dict[str, list[float]] = {n: [] for n in observed}
    rung_stats: list[IntegratorStats] = []
    failures: list[str] = list(floor_failures)
    for eps in ladder:
        try:
            field_fn = compile_system(full, params, eps)
            z0 = numeric_initial_state(full, params, eps)
            traj = integrate(field_fn, z0, (0.0, t2), names=full.states)
            vals = traj.sample(grid)
            worst = 0.0
            for n in observed:
                col = vals[:, full.states.index(n)]
                err = float(np.max(np.abs(col - red_cols[n])))
                per_state[n].append(err)
                worst = max(worst, err)
            errors.append(worst)
            rung_stats.append(traj.stats)
        except IntegrationError as exc:
            failures.append(f"eps={eps:g}: {exc}")
            break
    used = ladder[: len(errors)]
    decreasing = all(a > b for a, b in zip(errors, errors[1:])) and len(errors) >= 2
    order = fit_order(used, errors)
    verdict = "converges" if decreasing else "inconclusive"
    if failures:
        verdict = "partial: " + verdict
    if errors and not any(errors):
        # both flows sit at rest on the grid: the ladder compared nothing
        verdict = "stationary"
        failures.append(
            "nothing was compared: every sup error is 0 (full and reduced flows are stationary)"
        )
    return ConvergenceReport(
        used, errors, per_state, order, (t1, t2), observed, verdict, failures, red_traj.stats, rung_stats
    )


# -- initial-value inconsistency demo ------------------------------------------------


@dataclass
class IvDemoReport:
    ladder: list[float]
    discrepancies: list[float]
    extrapolated: float
    closed_form: float
    consistent: bool
    verdict: str

    def to_json(self) -> dict:
        return {
            "ladder": self.ladder,
            "discrepancies": self.discrepancies,
            "extrapolated_limit": self.extrapolated,
            "closed_form_limit": self.closed_form,
            "consistent_variant": self.consistent,
            "verdict": self.verdict,
        }


def iv_inconsistency_demo(
    a: float = -1.0,
    b: float = 1.0,
    c: float = -1.0,
    x0: float = 1.0,
    y0: float = 1.0,
    ladder: Sequence[float] | None = None,
    tau_eval: float = 1.0,
    consistent: bool = False,
) -> IvDemoReport:
    """Observe x(tau) - x0*exp(a*tau) for the linear slow/fast pair.

    In slow time the scaled pair reads x' = a x + b y*, y*' = (c/eps) y*.  The
    inconsistent variant starts at y*(0) = y0/eps (a fixed unscaled datum); the
    consistent one at y*(0) = y0.  The discrepancy ladder is extrapolated
    linearly in eps to its limit, to be compared with -(b*y0/c)*exp(a*tau) in
    the inconsistent case and 0 in the consistent one.
    """
    if a > 0 or c >= 0:
        raise ValueError("need a <= 0 and c < 0")
    ladder = list(ladder) if ladder is not None else default_ladder(1e-1, 1e-3)
    discrepancies = []
    x_red = x0 * math.exp(a * tau_eval)
    for eps in ladder:
        def f(t, z, eps=eps):
            return [a * z[0] + b * z[1], (c / eps) * z[1]]

        ystar0 = y0 if consistent else y0 / eps
        traj = integrate(f, [x0, ystar0], (0.0, tau_eval), 1e-10, 1e-12, names=("x", "y_star"))
        discrepancies.append(float(traj.final()[0] - x_red))
    # linear-in-eps extrapolation on the smallest ladder entries
    tail = min(4, len(ladder))
    xs = np.array(ladder[-tail:])
    ys = np.array(discrepancies[-tail:])
    if len(xs) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
        extrapolated = float(intercept)
    else:
        extrapolated = float(ys[-1])
    closed = 0.0 if consistent else float(-(b * y0 / c) * math.exp(a * tau_eval))
    verdict = "converges" if abs(extrapolated) < 1e-3 else "does_not_converge"
    return IvDemoReport(list(ladder), discrepancies, extrapolated, closed, consistent, verdict)
