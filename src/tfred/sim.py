"""Numerical integration and eps-ladder convergence studies.

Symbolic fields are compiled to plain float evaluators (parameters and the
small parameter bound at compile time), integrated with an embedded
Dormand-Prince 5(4) pair, and compared on a common grid via cubic Hermite
dense output.  Full systems are integrated in slow time, so the fast block
carries a 1/eps factor and the explicit stepper simply takes small steps;
the ladder bottoms out where that stays feasible.

A field is a callable ``f(t, z)`` that takes a sequence of python floats and
returns a list of them, one per state.  The stepper works on python floats
throughout and builds numpy arrays only for the finished ``Trajectory``, in
one pass over the accepted rows.  A compiled field returns a row of ``nan``
at a pole or where a power overflows, so the stepper rejects the step just
as it does any other non-finite stage.

The Dormand-Prince step is straight-line python source from one generator,
in one stage form.  The state, each stage's input and the stage derivatives
live in locals, and each stage input and the error norm are float
expressions.  A stage's derivatives are either the field's rows, evaluated
inline on the input's locals, or one call of the field through the
``f(t, z)`` contract; no other line differs.  The generic step, generated
once per state count and cached, calls the field and runs any callable.  A
full system's field comes with a step whose stages evaluate its rows inline.
In either, a non-finite derivative, a division by zero or an overflowing
power in a stage rejects the step.  Both keep the numpy stepper's operation
order (stage sums left to right, the norm's sum in numpy's pairwise order),
so every float of a trajectory is bit for bit the one that stepper computed.
The accept/reject loop around the step keeps its counts in locals and clamps
with comparisons that pick what ``min`` and ``max`` would.  Every generated
source, a field, a generic step or a system's module, is exec'd by one
helper, each in a namespace of its own.

A full system is compiled once per study.  The first ``compile_system`` call
for a graded system, its parameter values and the zero pattern of the folded
coefficients execs one generated module: the field and its inlined step,
with every coefficient a name (``c0, c1, ...``).  Each rung of the eps-ladder
then only folds its coefficients (``float(c) * float(eps) ** (order - 1)``
times each parameter's power, in symbol order) and binds them into that
module; no later rung compiles any source.  The modules are kept per system
object, weakly, and go with it.

Dense output computes the four Hermite weights of each grid point as python
floats (python's power, never numpy's, which rounds some cubes differently)
and combines them with the end points' states and derivatives as whole-array
numpy products, summed in the per-point order: each sample is bit for bit
the python float sum.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .rational import Polynomial, Q, RationalFunction
from .systems import GradedSystem

if TYPE_CHECKING:
    import numpy


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


def _poly_terms(
    p: Polynomial, state_pos: Mapping[str, int], env: Mapping[str, float]
) -> list[tuple[float, tuple[float, ...], str]]:
    """Each term of a polynomial as (its coefficient as a float, the powers of
    its parameters' values in symbol order, its state factors as a product of
    the locals _z0, _z1, ...)."""
    ctx = p.ctx
    out: list[tuple[float, tuple[float, ...], str]] = []
    for e, c in p.monomials().items():
        coeff = float(c)
        powers: list[float] = []
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
                powers.append(env[name] ** k)
        out.append((coeff, tuple(powers), "*".join(factors)))
    return out


def _fold(coeff: float, powers: Sequence[float]) -> float:
    """A term's coefficient with its parameter powers multiplied in, in order."""
    for v in powers:
        coeff *= v
    return coeff


def _term(coeff: str, factors: str) -> str:
    return f"{coeff}*{factors}" if factors else coeff


def _poly_expr(p: Polynomial, state_pos: Mapping[str, int], env: Mapping[str, float]) -> str:
    """A polynomial as a python sum in the state locals, its folded coefficients
    written as literals and the zero ones dropped."""
    parts = []
    for coeff, powers, factors in _poly_terms(p, state_pos, env):
        coeff = _fold(coeff, powers)
        if coeff != 0.0:
            parts.append(_term(repr(coeff), factors))
    return " + ".join(parts) if parts else "0.0"


def _float_env(params: Mapping[str, object]) -> dict[str, float]:
    return {k: float(Fraction(str(v))) if not isinstance(v, (int, float, Fraction)) else float(v) for k, v in params.items()}


def _field_source(exprs: Sequence[str], n_states: int) -> list[str]:
    """Lines of ``_field(t, z)``, which returns one float per row expression.

    The state is unpacked into the locals _z0, _z1, ... once per call.  Python
    floats raise where numpy would return inf or nan, so a division by zero or
    an overflowing power returns a row of nan instead.
    """
    unpack = "".join(f"_z{i}, " for i in range(n_states))
    return [
        "def _field(t, z):",
        *([f"    {unpack}= z"] if n_states else []),
        "    try:",
        "        return [" + ", ".join(exprs) + "]",
        "    except (ZeroDivisionError, OverflowError):",
        "        return [" + ", ".join(["nan"] * len(exprs)) + "]",
    ]


def compile_rows(
    rows: Sequence[RationalFunction | Polynomial],
    state_names: Sequence[str],
    params: Mapping[str, object],
) -> Field:
    """Compile rational-function rows into a float vector field z -> dz.

    Parameter values are folded into the coefficients.  The field is a plain
    callable: ``integrate`` runs it through the generic step.
    """
    env = _float_env(params)
    pos = {n: i for i, n in enumerate(state_names)}
    exprs: list[str] = []
    for row in rows:
        rf = row if isinstance(row, RationalFunction) else RationalFunction.of(row)
        num = _poly_expr(rf.num, pos, env)
        exprs.append(f"({num})" if rf.den.is_one() else f"({num})/({_poly_expr(rf.den, pos, env)})")
    return _exec(_field_source(exprs, len(state_names)), "_field")


class _SystemCode:
    """A graded system's terms, with the parameters' values folded in, and the
    generated module of each zero pattern of its folded coefficients."""

    def __init__(self, sys: GradedSystem, env: Mapping[str, float]):
        pos = {n: i for i, n in enumerate(sys.states)}
        # (grade index, float coefficient, parameter powers) of every term, grade by grade
        self.terms: list[tuple[int, float, tuple[float, ...]]] = []
        # per row: (index into terms, state factors), in the order the row sums them
        self.rows: list[list[tuple[int, str]]] = [[] for _ in sys.states]
        for g, grade in enumerate(sys.grades):
            for row, p in zip(self.rows, grade):
                for coeff, powers, factors in _poly_terms(p, pos, env):
                    row.append((len(self.terms), factors))
                    self.terms.append((g, coeff, powers))
        self.modules: dict[bytes, Callable[[Sequence[float]], Field]] = {}


# each system's float code, keyed by its parameters' values; built by the
# system's first compile_system call and dropped with the system
_SYSTEM_CODE: weakref.WeakKeyDictionary[GradedSystem, dict[tuple, _SystemCode]] = weakref.WeakKeyDictionary()


def compile_system(sys: GradedSystem, params: Mapping[str, object], eps: float) -> Field:
    """Numeric slow-time field of a graded system at a concrete eps value.

    The field is divided by eps, the frame in which the full and the reduced
    flow are compared.  Each term's coefficient is folded as the float
    ``float(c) * float(eps) ** (order - 1)`` times each parameter's power in
    symbol order, and a term whose coefficient folds to 0.0 is dropped.  The
    first call for a system, its parameter values and the zero pattern of the
    folded coefficients execs one generated module; every other call only
    folds the coefficients and binds them into that module.  The field
    carries the module's Dormand-Prince step with its rows inlined as its
    ``dp_step`` attribute, which ``integrate`` runs.
    """
    env = _float_env(params)
    weights = [float(eps) ** (order - 1) for order in sys.orders()]
    by_params = _SYSTEM_CODE.setdefault(sys, {})
    key = tuple(env.items())
    code = by_params.get(key)
    if code is None:
        code = by_params[key] = _SystemCode(sys, env)
    coeffs = [_fold(coeff * weights[g], powers) for g, coeff, powers in code.terms]
    pattern = bytes(map(bool, coeffs))
    bind = code.modules.get(pattern)
    if bind is None:
        exprs = [
            "(" + (" + ".join(_term(f"c{j}", factors) for j, factors in row if coeffs[j]) or "0.0") + ")"
            for row in code.rows
        ]
        bind = code.modules[pattern] = _system_module(exprs, len(coeffs))
    return bind(coeffs)


def numeric_initial_state(
    sys: GradedSystem, params: Mapping[str, object], eps: float
) -> numpy.ndarray:
    import numpy as np
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


def _dp_source(n: int, rows: Sequence[str] | None = None) -> list[str]:
    """Lines of the Dormand-Prince step for ``n`` states, as straight-line code.

    The state and each stage derivative are unpacked into the locals y_i and
    k<s>_i.  Each stage assigns its input y + (h*a1)*k1 + (h*a2)*k2 + ...,
    summed left to right with the zero weights skipped, to the locals _z0,
    _z1, ...; the 7th stage's input is ynew.  Its derivatives are then the
    ``rows``, one expression per state in those locals, evaluated inline, or
    without ``rows`` one call of the field ``f`` on them as a list.  That line
    is the only one in which the two uses differ.  A non-finite derivative,
    or a division by zero or an overflowing power in any stage, returns None.
    The error starts from 0.0 and its norm is summed in ``_pairwise_sum``'s
    order, so every float is the one the numpy stepper computed.
    """
    def listed(prefix: str) -> str:
        """The list [prefix0, prefix1, ...] of n locals, to build or to unpack into."""
        return "[" + ", ".join(f"{prefix}{i}" for i in range(n)) + "]"

    def combine(start: str, weights: Sequence[float]) -> tuple[list[str], list[str]]:
        """The lines x_j = h*a_j, and start + x_1*k1_i + ... per component i."""
        used = [(j, a) for j, a in enumerate(weights, 1) if a]
        xs = [f"x{j} = h * {a!r}" for j, a in used]
        return xs, [" + ".join([start.format(i)] + [f"x{j} * k{j}_{i}" for j, _ in used]) for i in range(n)]

    lines = [
        "def _dp_step(f, t, h, y, k1, atol, rtol):",
        f"    {listed('y_')} = y",
        f"    {listed('k1_')} = k1",
        "    try:",
    ]
    for s, (c, *weights) in enumerate(_DP_ROWS, 2):
        xs, ins = combine("y_{}", weights)
        stage = xs + [f"_z{i} = {v}" for i, v in enumerate(ins)]
        if rows is None:
            at = "t + h" if c == 1.0 else f"t + {c!r} * h"
            stage.append(f"{listed(f'k{s}_')} = f({at}, {listed('_z')})")
        else:
            stage += [f"k{s}_{i} = {r}" for i, r in enumerate(rows)]
        stage += ["if not (" + " and ".join(f"isfinite(k{s}_{i})" for i in range(n)) + "):", "    return None"]
        lines += [f"        {line}" for line in stage]
    xs, errors = combine("0.0", _DP_ERR)
    lines += ["    except (ZeroDivisionError, OverflowError):", "        return None", *(f"    {x}" for x in xs)]
    # the scale's max(a, b) by max's own rule: a unless b is larger
    for i, e in enumerate(errors):
        lines += [
            f"    a = abs(y_{i})",
            f"    b = abs(_z{i})",
            f"    q_{i} = ({e}) / (atol + rtol * (b if b > a else a))",
        ]
    total = _pairwise([f"q_{i} * q_{i}" for i in range(n)], "({} + {})".format, "0.0")
    lines.append(f"    return {listed('_z')}, {listed(f'k{len(_DP_ROWS) + 1}_')}, sqrt({total} / {n})")
    return lines


def _exec(lines: Sequence[str], name: str) -> Callable:
    """Exec generated source and return the function it defines as ``name``.

    Each source gets a namespace of its own, holding the few globals the
    generated code reads.  The function is popped from it, so that no
    reference cycle through the namespace outlives the function.
    """
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt, "nan": math.nan}
    exec("\n".join(lines) + "\n", namespace)
    return namespace.pop(name)


@functools.cache
def _dp_stepper(n: int) -> Callable:
    """The generic Dormand-Prince step for ``n`` states, built once per ``n``.

    ``step(f, t, h, y, k1, atol, rtol)`` returns (ynew, k7, error norm), or
    None at a stage that is not finite or that raises ZeroDivisionError or
    OverflowError; k7 is f's value at (t+h, ynew), reused as the next step's
    k1 (FSAL).
    """
    return _exec(_dp_source(n), "_dp_step")


def _system_module(exprs: Sequence[str], n_coeffs: int) -> Callable[[Sequence[float]], Field]:
    """The module of one system's row expressions, in the coefficient names
    c0, c1, ... and the state locals _z0, _z1, ...

    The module's ``bind(c)`` unpacks the ``n_coeffs`` floats ``c`` into those
    names and returns the field of ``_field_source`` over the rows, carrying
    as ``dp_step`` the step of ``_dp_source`` with the rows inlined.
    """
    body = _field_source(exprs, len(exprs)) + _dp_source(len(exprs), exprs)
    return _exec([
        "def bind(c):",
        *([f"    {''.join(f'c{k}, ' for k in range(n_coeffs))}= c"] if n_coeffs else []),
        *(f"    {line}" for line in body),
        "    _field.dp_step = _dp_step",
        "    return _field",
    ], "bind")


MAX_STEPS = 5_000_000  # accepted plus rejected steps before integrate gives up
STEP_FLOOR = 1e-12  # least step size; also the end-point residue integrate ignores


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

    taus: numpy.ndarray
    states: numpy.ndarray
    derivs: numpy.ndarray
    names: tuple[str, ...]
    stats: IntegratorStats

    def sample(self, grid: Sequence[float]) -> numpy.ndarray:
        """Cubic Hermite interpolation on the accepted intervals.

        The four weights of each grid point are python floats, with ``th**2``
        and ``th**3`` taken once each by python's power: numpy's ``**``
        rounds some cubes differently.  Their combination with the end
        points' states and derivatives is whole-array numpy arithmetic summed
        left to right, so each value is bit for bit the python float sum
        ``h00*y0 + h10*h*f0 + h01*y1 + h11*h*f1``.
        """
        import numpy as np
        grid = np.asarray(grid, dtype=float)
        idx = np.searchsorted(self.taus, grid, side="right") - 1
        idx = np.clip(idx, 0, len(self.taus) - 2)
        taus = self.taus.tolist()
        w00, w10, w01, w11 = [], [], [], []
        for g, i in zip(grid.tolist(), idx.tolist()):
            t0 = taus[i]
            h = taus[i + 1] - t0
            th = (g - t0) / h if h > 0 else 0.0
            th2, th3 = th**2, th**3
            w00.append(2 * th3 - 3 * th2 + 1)
            w10.append((th3 - 2 * th2 + th) * h)
            w01.append(-2 * th3 + 3 * th2)
            w11.append((th3 - th2) * h)
        nxt = idx + 1
        # python float arithmetic overflows to inf and nan without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return (
                np.array(w00)[:, None] * self.states[idx]
                + np.array(w10)[:, None] * self.derivs[idx]
                + np.array(w01)[:, None] * self.states[nxt]
                + np.array(w11)[:, None] * self.derivs[nxt]
            )

    def final(self) -> numpy.ndarray:
        return self.states[-1]


def integrate(
    f: Field,
    z0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = 1e-8,
    atol: float = 1e-10,
    names: Sequence[str] = (),
) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) with per-component error control.

    ``f(t, z)`` takes the state as a list of floats and returns the derivative
    as a sequence of floats, one per state.  A non-finite entry (a compiled
    field gives nan at a pole or an overflow), or a ZeroDivisionError or
    OverflowError raised in a stage, rejects the step and quarters it; at
    ``t0``, the first evaluation's exceptions propagate.  Each step runs the
    field's own inlined step when it carries one as its ``dp_step`` attribute
    (a ``compile_system`` field does), and otherwise the generic step for
    ``len(z0)`` states, built on the first call for that count and cached;
    both come from one stage form, and trajectories are bit for bit those of
    the numpy stepper it replaced, whichever step runs.  Both ends of
    ``t_span`` must be finite.  ``atol`` must be positive wherever a
    component can be zero.  A step below ``STEP_FLOOR`` raises
    StiffnessError, or EvaluationError when rejected stages forced it there.
    """
    import numpy as np
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("need a finite t_span")
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

    taus = [t0]
    states = [y]
    derivs = [fcur]
    add_tau, add_state, add_deriv = taus.append, states.append, derivs.append
    steps = rejected = 0
    min_step = math.inf
    step = getattr(f, "dp_step", None) or _dp_stepper(len(y))
    t = t0
    # each comparison below picks what min or max would pick, as the step
    # factor is never nan
    while t < t1:
        if steps + rejected > MAX_STEPS:
            raise IntegrationError("step budget exhausted")
        if t1 - t <= STEP_FLOOR:
            break  # endpoint reached up to float residue
        if h < STEP_FLOOR:
            raise StiffnessError(t)
        if t1 - t < h:
            h = t1 - t
        out = step(f, t, h, y, fcur, atol, rtol)
        if out is None:
            rejected += 1
            h *= 0.25
            if h < STEP_FLOOR:
                raise EvaluationError(t)
            continue
        ynew, k7, err_norm = out
        if err_norm <= 1.0:
            t = t + h
            y = ynew
            fcur = k7
            add_tau(t)
            add_state(y)
            add_deriv(fcur)
            steps += 1
            if h < min_step:
                min_step = h
        else:
            rejected += 1
        factor = 0.9 * err_norm ** (-0.2) if err_norm > 0 else 5.0
        if factor > 5.0:
            factor = 5.0
        elif factor < 0.2:
            factor = 0.2
        h = h * factor
    rows, n = len(states), len(y)
    state_arr = np.fromiter(chain.from_iterable(states), float, rows * n).reshape(rows, n)
    if not np.all(np.isfinite(state_arr)):
        raise EvaluationError(t)
    deriv_arr = np.fromiter(chain.from_iterable(derivs), float, rows * n).reshape(rows, n)
    return Trajectory(np.array(taus), state_arr, deriv_arr, tuple(names), IntegratorStats(steps, rejected, min_step))


# -- convergence studies ---------------------------------------------------------


EPS_FLOOR = 1e-4  # smallest eps the explicit stepper is expected to handle
MAX_RUNGS = 1000  # longest eps-ladder accepted
GRID_POINTS = 201  # points of the comparison grid in [t1, t2]


def default_ladder(start: float = 1e-1, stop: float = 1e-4, factor: float = 2.0) -> list[float]:
    """start, start/factor, ... down to stop; at most ``MAX_RUNGS`` values, counted before any is built."""
    if not all(map(math.isfinite, (start, stop, factor))) or not (start >= stop > 0 and factor > 1):
        raise ValueError("need finite start >= stop > 0 and a finite factor > 1")
    rungs = math.floor((math.log(start) - math.log(stop * (1 - 1e-12))) / math.log(factor)) + 1
    if rungs > MAX_RUNGS:
        raise ValueError(f"{rungs} rungs, more than {MAX_RUNGS}")
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
            # NaN (fewer than two nonzero errors) is written as null
            "fitted_order": self.fitted_order if math.isfinite(self.fitted_order) else None,
            "window": list(self.t_window),
            "observed": list(self.observed),
            "verdict": self.verdict,
            "failures": self.failures,
        }


def fit_order(ladder: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(err) vs log(eps) over the lower ladder half."""
    import numpy as np
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
    import numpy as np
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
    if not errors:
        # every rung was below the floor, or the first one failed
        verdict = "nothing compared"
    elif failures:
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
    import numpy as np
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
