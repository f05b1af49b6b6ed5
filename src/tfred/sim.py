"""Numerical integration and eps-ladder convergence studies.

Symbolic fields are compiled to plain float evaluators (parameters and the
small parameter bound at compile time), integrated with an embedded
Dormand-Prince 5(4) pair, and compared on a common grid via cubic Hermite
dense output.  Full systems are integrated in slow time, so the fast block
carries a 1/eps factor and the explicit stepper simply takes small steps;
the ladder bottoms out where that stays feasible.
"""

from __future__ import annotations

import math
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


def _poly_expr(p: Polynomial, state_pos: Mapping[str, int], env: Mapping[str, float], weight: float) -> list[str]:
    """Terms of a polynomial as python expressions in z[...], constants folded."""
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
                z = f"z[{state_pos[name]}]"
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


def _compile_field(exprs: Sequence[str]) -> Callable[[float, np.ndarray], np.ndarray]:
    """Compile one python expression per row into a vector field (t, z) -> dz."""
    src = "def _field(t, z):\n    return np.array([" + ", ".join(exprs) + "], dtype=float)\n"
    namespace: dict = {"np": np}
    exec(src, namespace)
    return namespace["_field"]


def compile_rows(
    rows: Sequence[RationalFunction | Polynomial],
    state_names: Sequence[str],
    params: Mapping[str, object],
    eps: "float | None" = None,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Compile rational-function rows into a float vector field z -> dz.

    Parameter values (and eps, when given) are folded into the coefficients.
    """
    env = _float_env(params)
    if eps is not None:
        env.setdefault("eps", float(eps))
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
    return _compile_field(exprs)


def compile_system(
    sys: GradedSystem,
    params: Mapping[str, object],
    eps: float,
    time: str = "slow",
) -> Callable[[float, np.ndarray], np.ndarray]:
    """Numeric field of a graded system at a concrete eps value.

    ``time`` "slow" divides the field by eps (the usual comparison frame);
    "fast" leaves it as compiled.
    """
    if time not in ("slow", "fast"):
        raise ValueError("time must be 'slow' or 'fast'")
    shift = -1 if time == "slow" else 0
    env = _float_env(params)
    pos = {n: i for i, n in enumerate(sys.states)}
    row_parts: list[list[str]] = [[] for _ in sys.states]
    for order, g in zip(sys.orders(), sys.grades):
        weight = float(eps) ** (order + shift)
        for i, p in enumerate(g):
            row_parts[i].extend(_poly_expr(p, pos, env, weight))
    exprs = ["(" + (" + ".join(parts) if parts else "0.0") + ")" for parts in row_parts]
    return _compile_field(exprs)


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
# difference between the 5th and embedded 4th order weights
_DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    min_step: float = math.inf


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
        out = np.empty((len(grid), self.states.shape[1]))
        idx = np.searchsorted(self.taus, grid, side="right") - 1
        idx = np.clip(idx, 0, len(self.taus) - 2)
        for row, (g, i) in enumerate(zip(grid, idx)):
            t0, t1 = self.taus[i], self.taus[i + 1]
            h = t1 - t0
            th = (g - t0) / h if h > 0 else 0.0
            y0, y1 = self.states[i], self.states[i + 1]
            f0, f1 = self.derivs[i], self.derivs[i + 1]
            h00 = 2 * th**3 - 3 * th**2 + 1
            h10 = th**3 - 2 * th**2 + th
            h01 = -2 * th**3 + 3 * th**2
            h11 = th**3 - th**2
            out[row] = h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1
        return out

    def final(self) -> np.ndarray:
        return self.states[-1]

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.names.index(name)]

    def write_csv(self, path: str):
        self._write_columns(path, ",", "")

    def write_dat(self, path: str):
        """Whitespace-separated columns with a '#' header (plotting tools)."""
        self._write_columns(path, " ", "# ")

    def _write_columns(self, path: str, sep: str, header_prefix: str):
        with open(path, "w") as fh:
            fh.write(f"{header_prefix}tau{sep}" + sep.join(self.names) + "\n")
            for t, row in zip(self.taus, self.states):
                fh.write(f"{t:.12g}{sep}" + sep.join(f"{v:.12g}" for v in row) + "\n")


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    z0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = 1e-8,
    atol: float = 1e-10,
    names: Sequence[str] = (),
    max_steps: int = 5_000_000,
    step_floor: float = 1e-12,
    h_fixed: "float | None" = None,
) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) with per-component error control.

    ``h_fixed`` disables adaptivity (every step accepted at that size); used
    for order measurements.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    y = np.array(z0, dtype=float)
    n = len(y)
    f0 = f(t0, y)
    if not np.all(np.isfinite(f0)):
        raise EvaluationError(t0)
    scale = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, (t1 - t0) / 10)
    if h_fixed is not None:
        h = float(h_fixed)

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
        if t1 - t <= step_floor:
            break  # endpoint reached up to float residue
        if h < step_floor:
            raise StiffnessError(t)
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
            if h < step_floor:
                raise EvaluationError(t)
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
        if err_norm <= 1.0 or h_fixed is not None:
            t = t + h
            y = ynew
            fcur = k[6] if np.all(np.isfinite(k[6])) else f(t, y)
            # the 7th stage is evaluated at (t+h, ynew): FSAL reuse
            taus.append(t)
            states.append(y.copy())
            derivs.append(fcur.copy())
            stats.steps += 1
            stats.min_step = min(stats.min_step, h)
        else:
            stats.rejected += 1
        if h_fixed is None:
            factor = 0.9 * err_norm ** (-0.2) if err_norm > 0 else 5.0
            h = h * min(5.0, max(0.2, factor))
        else:
            h = float(h_fixed)
    if not np.all(np.isfinite(np.array(states))):
        raise EvaluationError(t)
    return Trajectory(
        np.array(taus), np.array(states), np.array(derivs), tuple(names), stats
    )


# -- convergence studies ---------------------------------------------------------


EPS_FLOOR = 1e-4  # smallest eps the explicit stepper is expected to handle


def default_ladder(start: float = 1e-1, stop: float = 1e-4, factor: float = 2.0) -> list[float]:
    out = []
    e = start
    while e >= stop * (1 - 1e-12):
        out.append(e)
        e /= factor
    return out


@dataclass
class ConvergenceReport:
    ladder: list[float]
    errors: list[float]
    per_state: dict[str, list[float]]
    fitted_order: float
    t_window: tuple[float, float]
    observed: tuple[str, ...]
    verdict: str
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ladder": self.ladder,
            "sup_errors": self.errors,
            "per_state": self.per_state,
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
    observed: Sequence[str] | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    grid_points: int = 201,
) -> ConvergenceReport:
    """Sup-norm distance between the full slow-time flow and the reduced flow.

    The full system is integrated per ladder value with initial data scaled by
    the stored eps-orders; both trajectories are compared on a common dense
    grid inside [t1, t2], away from the initial layer.
    """
    ladder = list(ladder) if ladder is not None else default_ladder()
    if any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    floor_failures = [f"eps={e:g}: below the eps floor {EPS_FLOOR:g}" for e in ladder if e < EPS_FLOOR]
    ladder = [e for e in ladder if e >= EPS_FLOOR]
    observed = tuple(observed) if observed is not None else tuple(
        n for n in reduced_names if n in full.states
    )
    red_field = compile_rows(reduced_rows, list(reduced_names), params)
    red_y0 = np.array([float(reduced_z0[n]) for n in reduced_names])
    red_traj = integrate(red_field, red_y0, (0.0, t2), rtol, atol, names=reduced_names)
    grid = np.linspace(t1, t2, grid_points)
    red_vals = red_traj.sample(grid)
    red_cols = {n: red_vals[:, list(reduced_names).index(n)] for n in observed}

    errors: list[float] = []
    per_state: dict[str, list[float]] = {n: [] for n in observed}
    failures: list[str] = list(floor_failures)
    for eps in ladder:
        try:
            field_fn = compile_system(full, params, eps, time="slow")
            z0 = numeric_initial_state(full, params, eps)
            traj = integrate(field_fn, z0, (0.0, t2), rtol, atol, names=full.states)
            vals = traj.sample(grid)
            worst = 0.0
            for n in observed:
                col = vals[:, full.states.index(n)]
                err = float(np.max(np.abs(col - red_cols[n])))
                per_state[n].append(err)
                worst = max(worst, err)
            errors.append(worst)
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
    return ConvergenceReport(used, errors, per_state, order, (t1, t2), observed, verdict, failures)


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
    rtol: float = 1e-10,
    atol: float = 1e-12,
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
            return np.array([a * z[0] + b * z[1], (c / eps) * z[1]])

        ystar0 = y0 if consistent else y0 / eps
        traj = integrate(f, [x0, ystar0], (0.0, tau_eval), rtol, atol, names=("x", "y_star"))
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
