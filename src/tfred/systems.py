"""Graded ODE systems and the scaling transformations acting on them.

A system is stored as a finite list of grade vectors h = h0 + eps*h1 + ...,
each grade a vector of eps-free polynomials over a shared context.  The
transforms write grades, never an eps-carrying field: a degenerate scaling
y = eps*y_star of designated fast variables moves a term of degree k in them up
k grades (:meth:`Polynomial.by_degree`) and its fast rows down one, and moving
a parameter to eps-order m moves a term of degree k in it up m*k grades; the
elimination of a conserved state and a linear change of states substitute
eps-free images grade by grade.  Only :func:`raw_system` reads eps powers, to
grade parsed input.  A Laurent flag records scalings that produce an eps^(-1)
block (locally inconsistent ones), which are allowed for demonstration
purposes.  Initial values carry a symbolic base and an eps-order so that
smallness of initial data is a structural property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Collection, Iterable, Mapping, Sequence

from .matrices import fraction_nullspace, fraction_solve
from .rational import (
    Context,
    Polynomial,
    Q,
    SymbolicError,
    cleared_row,
    substitute,
)

STAR_SUFFIX = "_star"


class ModelError(SymbolicError):
    """Structural problem with a system, partition or transformation."""


@dataclass(frozen=True)
class InitialValue:
    """Initial datum base*eps^order; base is a rational or a parameter name."""

    base: "Fraction | str"
    order: int = 0

    def is_zero(self) -> bool:
        return not isinstance(self.base, str) and self.base == 0


class GradedSystem:
    """Vector field h = sum_g eps^g * h_g with per-state initial values.

    ``grades[k]`` is the coefficient of eps^(lowest_order + k); every grade
    entry is eps-free.  ``lowest_order`` is 0 for ordinary systems and -1 for
    Laurent fields produced by inconsistent scalings.
    Instances are immutable by convention.
    """

    def __init__(
        self,
        ctx: Context,
        grades: Sequence[Sequence[Polynomial]],
        initial_values: Mapping[str, InitialValue] | None = None,
        lowest_order: int = 0,
    ):
        self.ctx = ctx
        self.states: tuple[str, ...] = tuple(s.name for s in ctx.states)
        n = len(self.states)
        gl = [list(g) for g in grades]
        if not gl:
            gl = [[ctx.zero()] * n]
        for g in gl:
            if len(g) != n:
                raise ModelError("grade length does not match state count")
            for p in g:
                if not p.eps_free():
                    raise ModelError("grades must be eps-free; grading carries the eps powers")
        # trim zero grades at both ends (keep at least one, pin lowest >= stated)
        while len(gl) > 1 and all(p.is_zero() for p in gl[-1]):
            gl.pop()
        while len(gl) > 1 and all(p.is_zero() for p in gl[0]):
            gl.pop(0)
            lowest_order += 1
        if lowest_order < 0 and all(p.is_zero() for p in gl[0]) and len(gl) == 1:
            lowest_order = 0
        self.grades: list[list[Polynomial]] = gl
        self.lowest_order = lowest_order
        ivs = dict(initial_values or {})
        for name in ivs:
            if name not in self.states:
                raise ModelError(f"initial value for unknown state {name}")
        self.initial_values: dict[str, InitialValue] = {
            name: ivs.get(name, InitialValue(Fraction(0), 0)) for name in self.states
        }

    # -- access ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.states)

    def orders(self) -> list[int]:
        return [self.lowest_order + k for k in range(len(self.grades))]

    def grade(self, order: int) -> list[Polynomial]:
        k = order - self.lowest_order
        if 0 <= k < len(self.grades):
            return list(self.grades[k])
        return [self.ctx.zero()] * self.n

    def is_laurent(self) -> bool:
        return self.lowest_order < 0

    def state_index(self, name: str) -> int:
        return self.states.index(name)

    def with_initial_values(self, ivs: Mapping[str, InitialValue]) -> "GradedSystem":
        merged = dict(self.initial_values)
        merged.update(ivs)
        return GradedSystem(self.ctx, self.grades, merged, self.lowest_order)

    def __repr__(self):
        return f"GradedSystem(states={list(self.states)}, orders={self.orders()})"


def raw_system(
    ctx: Context,
    rows: Sequence[Polynomial],
    initial_values: Mapping[str, InitialValue] | None = None,
) -> GradedSystem:
    """Grade parsed eps-carrying polynomial right-hand sides by their eps powers."""
    n = len(ctx.states)
    if len(rows) != n:
        raise ModelError("row count does not match state count")
    per_order: dict[int, list[Polynomial]] = {}
    for i, p in enumerate(rows):
        for k, coeff in p.eps_coefficients().items():
            per_order.setdefault(k, [ctx.zero()] * n)[i] = coeff
    grades = [per_order.get(k, [ctx.zero()] * n) for k in range(max(per_order, default=0) + 1)]
    return GradedSystem(ctx, grades, initial_values, 0)


# ---------------------------------------------------------------------------
# Partitions and consistency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Slow/fast split of the states; both parts nonempty."""

    slow: tuple[str, ...]
    fast: tuple[str, ...]

    @staticmethod
    def from_fast(sys: GradedSystem, fast: Iterable[str]) -> "Partition":
        return Partition.of_states(sys.states, fast)

    @staticmethod
    def of_states(states: Sequence[str], fast: Iterable[str]) -> "Partition":
        """The split of ``states`` that makes ``fast`` fast; ModelError for a bad fast set."""
        fast = tuple(fast)
        for name in fast:
            if name not in states:
                raise ModelError(f"unknown state {name} in partition")
        if len(set(fast)) != len(fast):
            raise ModelError("duplicate fast state")
        slow = tuple(n for n in states if n not in fast)
        if not slow or not fast:
            raise ModelError("partition needs at least one slow and one fast state")
        return Partition(slow, fast)

    @property
    def r(self) -> int:
        return len(self.slow)


FULL_LTC = "fullLTC"
CONSISTENT_ONLY = "consistentOnly"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LtcVerdict:
    status: str
    witness: "tuple[str, Polynomial] | None" = None

    def __str__(self):
        if self.witness is None:
            return self.status
        name, poly = self.witness
        return f"{self.status} (residual in d{name}/dt: {poly.render()})"


def check_ltc(sys: GradedSystem, part: Partition) -> LtcVerdict:
    """Classify a candidate scaling by the lowest-grade field at fast = 0.

    fullLTC: the entire lowest grade vanishes there; consistentOnly: only the
    fast block vanishes; otherwise inconsistent with the first surviving fast
    row as witness.
    """
    residuals = [p.by_degree(part.fast)[0] for p in sys.grade(0)]
    for name in part.fast:
        res = residuals[sys.state_index(name)]
        if not res.is_zero():
            return LtcVerdict(INCONSISTENT, (name, res))
    for name in part.slow:
        res = residuals[sys.state_index(name)]
        if not res.is_zero():
            return LtcVerdict(CONSISTENT_ONLY, (name, res))
    return LtcVerdict(FULL_LTC)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def star_name(name: str) -> str:
    return name + STAR_SUFFIX


@dataclass(frozen=True)
class ScaledSystem:
    """Result of a degenerate scaling y = eps*y_star.

    ``system`` is the transformed field over the renamed context; fast rows
    have been divided by eps.  ``laurent_flag`` is the lowest eps-power present
    (-1 exactly when the scaling was not locally consistent).  The certificate
    ``iv_consistent`` records whether all scaled initial values still have
    nonnegative eps-order.
    """

    system: GradedSystem
    partition: Partition
    laurent_flag: int
    iv_consistent: bool

    @property
    def fast_star(self) -> tuple[str, ...]:
        return tuple(star_name(n) for n in self.partition.fast)

    def fast_block(self, order: int) -> list[Polynomial]:
        g = self.system.grade(order)
        return [g[self.system.state_index(n)] for n in self.fast_star]

    def slow_block(self, order: int) -> list[Polynomial]:
        g = self.system.grade(order)
        return [g[self.system.state_index(n)] for n in self.partition.slow]


def apply_scaling(sys: GradedSystem, part: Partition) -> ScaledSystem:
    """Scale the fast block y = eps*y_star and divide its rows by eps.

    The terms of degree k in the fast variables of a grade-g entry go to
    grade g + k, less 1 on fast rows, relabelled over the renamed context.
    Inconsistent scalings are allowed; they come back with laurent_flag = -1.
    """
    if sys.is_laurent():
        raise ModelError("cannot scale a Laurent system")
    new_states = [star_name(n) if n in part.fast else n for n in sys.states]
    new_ctx = Context(new_states, [p.name for p in sys.ctx.params])

    new_ivs: dict[str, InitialValue] = {}
    iv_ok = True
    for name in sys.states:
        iv = sys.initial_values[name]
        if name in part.fast:
            order = iv.order - 1
            if order < 0 and not iv.is_zero():
                iv_ok = False
            new_ivs[star_name(name)] = InitialValue(iv.base, order if not iv.is_zero() else 0)
        else:
            new_ivs[name] = iv

    lowered = {sys.state_index(n) for n in part.fast}
    scaled_sys = _regrade(sys, new_ctx, part.fast, 1, new_ivs, lowered)
    return ScaledSystem(scaled_sys, part, min(scaled_sys.lowest_order, 0), iv_ok)


def _regrade(
    sys: GradedSystem,
    ctx: Context,
    names: Sequence[str],
    step: int,
    initial_values: Mapping[str, InitialValue],
    lowered: Collection[int] = (),
) -> GradedSystem:
    """sys with each term of degree k in ``names`` moved up step*k grades, over ctx.

    The rows in ``lowered`` move down one grade besides.  ctx is sys's context
    or one that renames it in place (:meth:`Polynomial.relabel`).  Each new
    grade holds its terms in original-grade-then-term order, the order that
    splitting the eps-carrying field by eps powers gives.
    """
    per_order: dict[int, list[Polynomial]] = {}
    for order, g in zip(sys.orders(), sys.grades):
        for i, p in enumerate(g):
            base = order - 1 if i in lowered else order
            for k, group in enumerate(p.by_degree(names)):
                if group:
                    row = per_order.setdefault(base + step * k, [ctx.zero()] * sys.n)
                    row[i] = row[i] + group.relabel(ctx)
    lo = min(per_order, default=0)
    grades = [per_order.get(k, [ctx.zero()] * sys.n) for k in range(lo, max(per_order, default=0) + 1)]
    return GradedSystem(ctx, grades, initial_values, lo)


# ---------------------------------------------------------------------------
# Parameter grading and state transforms
# ---------------------------------------------------------------------------


def grade_parameter(sys: GradedSystem, name: str, order: int = 1) -> GradedSystem:
    """Move a parameter to the given eps-order (p -> eps^order * p), as a regrading.

    A term of degree k in p moves up order*k grades; order 0 leaves the
    grades as they are.
    """
    if sys.ctx.symbol(name).kind != "parameter":
        raise ModelError(f"{name} is not a parameter")
    if order < 0:
        raise ValueError("parameter eps-orders must be nonnegative")
    if order == 0:
        return sys
    return _regrade(sys, sys.ctx, [name], order, sys.initial_values)


def _combination(ctx: Context, coeffs: Sequence, polys: Sequence[Polynomial]) -> Polynomial:
    """sum_j coeffs[j] * polys[j] over ctx, summed in j order past the zero coefficients."""
    acc = ctx.zero()
    for c, p in zip(coeffs, polys):
        if c:
            acc = acc + p * c
    return acc


def _substituted(
    sys: GradedSystem, ctx: Context, images: Mapping[str, Polynomial], rows: Sequence[int]
) -> list[list[Polynomial]]:
    """Each grade's listed rows with the eps-free images substituted, over ctx."""
    return [[substitute(g[i], ctx, images)[0] for i in rows] for g in sys.grades]


def eliminate_with_integral(
    sys: GradedSystem,
    weights: Mapping[str, object],
    state: str,
    level: str,
    level_order: int = 0,
) -> GradedSystem:
    """Remove one state using a linear conservation law sum(w_i z_i) = level.

    ``level`` must be a parameter of the context (add it when building the
    context); its eps-order is applied after substitution so small conserved
    totals are representable.  The weight of the eliminated state must be
    nonzero, and the weights must give a genuine linear first integral.
    """
    w = {n: Q(v) for n, v in weights.items()}  # type: ignore[arg-type]
    if state not in w or w[state] == 0:
        raise ModelError(f"eliminated state {state} needs nonzero weight")
    unknown = sorted(set(w) - set(sys.states))
    if unknown:
        raise ModelError(f"weights name unknown states {unknown}")
    if not is_first_integral(sys, [w.get(n, 0) for n in sys.states]):
        raise ModelError("weights are not a linear first integral of the system")
    new_states = [n for n in sys.states if n != state]
    new_ctx = Context(new_states, [p.name for p in sys.ctx.params])
    # state = (level - sum_{i != state} w_i z_i) / w_state
    repl = new_ctx.sym(level)
    for n, wi in w.items():
        if n != state:
            repl = repl - new_ctx.sym(n) * wi
    repl = repl.exact_divide(new_ctx.const(w[state]))
    grades = _substituted(sys, new_ctx, {state: repl}, [sys.state_index(n) for n in new_states])
    new_ivs = {name: sys.initial_values[name] for name in new_states}
    return grade_parameter(GradedSystem(new_ctx, grades, new_ivs, sys.lowest_order), level, level_order)


def linear_change_of_states(
    sys: GradedSystem, B: Sequence[Sequence[object]], new_names: Sequence[str]
) -> GradedSystem:
    """New coordinates zhat = B z (B rational, invertible); field becomes B h(B^-1 zhat)."""
    n = sys.n
    Bq = [[Q(v) for v in row] for row in B]  # type: ignore[arg-type]
    if len(Bq) != n or any(len(r) != n for r in Bq):
        raise ModelError("B must be square of the state dimension")
    # column j of B^-1 solves B x = e_j; a singular B leaves some e_j outside its range
    cols = [fraction_solve(Bq, [int(i == j) for i in range(n)]) for j in range(n)]
    if any(x is None for x in cols):
        raise ModelError("B is singular")
    Binv = list(zip(*cols))
    new_ctx = Context(list(new_names), [p.name for p in sys.ctx.params])
    # old state i = sum_j Binv[i][j] * zhat_j
    syms = [new_ctx.sym(nn) for nn in new_names]
    subs_map = {old: _combination(new_ctx, Binv[i], syms) for i, old in enumerate(sys.states)}
    grades = [
        [_combination(new_ctx, Bq[i], substituted) for i in range(n)]
        for substituted in _substituted(sys, new_ctx, subs_map, range(n))
    ]
    new_ivs = {}
    for i, nn in enumerate(new_names):
        contribs = [
            (Bq[i][j], sys.initial_values[sys.states[j]])
            for j in range(n)
            if Bq[i][j] != 0 and not sys.initial_values[sys.states[j]].is_zero()
        ]
        if not contribs:
            new_ivs[nn] = InitialValue(Fraction(0), 0)
        elif len(contribs) == 1:
            coeff, iv = contribs[0]
            if isinstance(iv.base, str):
                if coeff != 1:
                    raise ModelError("cannot scale a symbolic initial value")
                new_ivs[nn] = iv
            else:
                new_ivs[nn] = InitialValue(iv.base * coeff, iv.order)
        else:
            if any(isinstance(iv.base, str) for _, iv in contribs):
                raise ModelError("cannot combine symbolic initial values")
            orders = {iv.order for _, iv in contribs}
            if len(orders) != 1:
                raise ModelError("cannot combine initial values of different eps-order")
            total = sum(coeff * iv.base for coeff, iv in contribs)
            new_ivs[nn] = InitialValue(total, orders.pop())
    return GradedSystem(new_ctx, grades, new_ivs, sys.lowest_order)


# ---------------------------------------------------------------------------
# Linear first integrals
# ---------------------------------------------------------------------------


def linear_first_integrals(sys: GradedSystem) -> list[list[Fraction]]:
    """Basis of constant row vectors w with w . h_g identically zero per grade."""
    n = sys.n
    # one row per monomial of a grade; the zero row keeps the width n
    constraints = [[0] * n]
    for g in sys.grades:
        views = [p.monomials() for p in g]
        constraints += [[v.get(e, 0) for v in views] for e in set().union(*views)]
    basis = fraction_nullspace(constraints)
    return [_primitive(v) for v in basis]


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    """Scale to a primitive integer vector with positive first nonzero entry."""
    ints, _ = cleared_row(vec)
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [Fraction(v // g) for v in ints]


def is_first_integral(sys: GradedSystem, weights: Sequence[object]) -> bool:
    w = [Q(v) for v in weights]  # type: ignore[arg-type]
    return all(_combination(sys.ctx, w, g).is_zero() for g in sys.grades)
