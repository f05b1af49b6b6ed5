"""Graded ODE systems and the scaling transformations acting on them.

A system is stored as a finite list of grade vectors h = h0 + eps*h1 + ...,
each grade a vector of eps-free polynomials over a shared context.  Degenerate
scalings replace designated fast variables y by eps*y_star, divide their rows
by eps and re-collect grades; a Laurent flag records scalings that produce an
eps^(-1) block (locally inconsistent ones), which are allowed for
demonstration purposes.  Initial values carry a symbolic base and an eps-order
so that smallness of initial data is a structural property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .matrices import fraction_nullspace
from .rational import (
    Context,
    Polynomial,
    Q,
    RationalFunction,
    SymbolicError,
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
    Laurent fields produced by inconsistent scalings or slow-time rescaling.
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

    def flatten(self) -> list[Polynomial]:
        """h as eps-carrying polynomials; requires lowest_order >= 0."""
        if self.lowest_order < 0:
            raise ModelError("Laurent system; use flatten_rf")
        eps = self.ctx.sym(self.ctx.eps.name)
        out = [self.ctx.zero() for _ in range(self.n)]
        for order, g in zip(self.orders(), self.grades):
            w = eps ** order
            for i, p in enumerate(g):
                out[i] = out[i] + p * w
        return out

    def flatten_rf(self) -> list[RationalFunction]:
        eps = RationalFunction.of(self.ctx.sym(self.ctx.eps.name))
        out = [RationalFunction.of(self.ctx.zero()) for _ in range(self.n)]
        for order, g in zip(self.orders(), self.grades):
            w = eps ** order
            for i, p in enumerate(g):
                out[i] = out[i] + w * p
        return out

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
    """Build a graded system from eps-carrying polynomial right-hand sides."""
    if len(rows) != len(ctx.states):
        raise ModelError("row count does not match state count")
    per_order: dict[int, list[Polynomial]] = {}
    for i, p in enumerate(rows):
        for k, coeff in p.eps_coefficients().items():
            per_order.setdefault(k, [ctx.zero()] * len(ctx.states))[i] = coeff
    if not per_order:
        per_order = {0: [ctx.zero()] * len(ctx.states)}
    lo = min(per_order)
    hi = max(per_order)
    if lo < 0:
        raise ModelError("raw systems must not carry negative eps powers")
    grades = [per_order.get(k, [ctx.zero()] * len(ctx.states)) for k in range(0, hi + 1)]
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
        fast = tuple(fast)
        for name in fast:
            if name not in sys.states:
                raise ModelError(f"unknown state {name} in partition")
        if len(set(fast)) != len(fast):
            raise ModelError("duplicate fast state")
        slow = tuple(n for n in sys.states if n not in fast)
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
    h0 = sys.grade(0)
    zero_fast = {n: 0 for n in part.fast}
    residuals = [p.subs(zero_fast) for p in h0]
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
    """Substitute y = eps*y_star for the fast block and divide its rows by eps.

    Inconsistent scalings are allowed; they come back with laurent_flag = -1.
    """
    if sys.is_laurent():
        raise ModelError("cannot scale a Laurent system")
    new_states = [star_name(n) if n in part.fast else n for n in sys.states]
    new_ctx = Context(new_states, [p.name for p in sys.ctx.params], eps=sys.ctx.eps.name)
    eps = new_ctx.sym(new_ctx.eps.name)
    images = {n: eps * new_ctx.sym(star_name(n)) for n in part.fast}

    per_order: dict[int, list[Polynomial]] = {}
    fast_idx = {sys.state_index(n) for n in part.fast}
    for order, g in zip(sys.orders(), sys.grades):
        for i, p in enumerate(g):
            q = substitute(p, new_ctx, images)[0]
            shift = -1 if i in fast_idx else 0
            for k, coeff in q.eps_coefficients().items():
                tgt = order + k + shift
                row = per_order.setdefault(tgt, [new_ctx.zero()] * sys.n)
                row[i] = row[i] + coeff
    if not per_order:
        per_order = {0: [new_ctx.zero()] * sys.n}
    lo = min(per_order)
    hi = max(per_order)
    grades = [per_order.get(k, [new_ctx.zero()] * sys.n) for k in range(lo, hi + 1)]

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

    scaled_sys = GradedSystem(new_ctx, grades, new_ivs, lo)
    flag = scaled_sys.lowest_order
    if flag >= 0:
        flag = 0
    return ScaledSystem(scaled_sys, part, flag, iv_ok)


TO_SLOW = "toSlow"
TO_FAST = "toFast"


def time_rescale(sys: GradedSystem, direction: str) -> GradedSystem:
    """Shift the grading by one: slow time divides the field by eps."""
    if direction == TO_SLOW:
        return GradedSystem(sys.ctx, sys.grades, sys.initial_values, sys.lowest_order - 1)
    if direction == TO_FAST:
        return GradedSystem(sys.ctx, sys.grades, sys.initial_values, sys.lowest_order + 1)
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Parameter grading and state transforms
# ---------------------------------------------------------------------------


def epsilon_grade(
    ctx: Context,
    rows: Sequence[Polynomial],
    pivot: Mapping[str, object],
    direction: Mapping[str, object],
    initial_values: Mapping[str, InitialValue] | None = None,
) -> GradedSystem:
    """Expand h(z, pivot + eps*direction) into grades, exactly.

    ``pivot`` assigns rationals to parameters; ``direction`` maps parameters to
    rationals or to parameter names (typically the same name, reusing it for
    the order-one coefficient).
    """
    eps = ctx.sym(ctx.eps.name)
    bindings: dict[str, Polynomial] = {}
    for name in dict.fromkeys([*pivot, *direction]):
        base = Q(pivot.get(name, 0))  # type: ignore[arg-type]
        rho = direction.get(name, 0)
        if isinstance(rho, str):
            rho_poly = ctx.sym(rho)
        else:
            rho_poly = ctx.const(Q(rho))  # type: ignore[arg-type]
        bindings[name] = ctx.const(base) + eps * rho_poly
    new_rows = [p.subs(bindings) for p in rows]
    return raw_system(ctx, new_rows, initial_values)


def grade_parameter(sys: GradedSystem, name: str, order: int = 1) -> GradedSystem:
    """Move a parameter to the given eps-order (substitute p -> eps^order * p)."""
    if sys.ctx.symbol(name).kind != "parameter":
        raise ModelError(f"{name} is not a parameter")
    eps = sys.ctx.sym(sys.ctx.eps.name)
    binding = {name: (eps ** order) * sys.ctx.sym(name)}
    rows = [p.subs(binding) for p in sys.flatten()]
    return raw_system(sys.ctx, rows, sys.initial_values)


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
    new_ctx = Context(new_states, [p.name for p in sys.ctx.params], eps=sys.ctx.eps.name)
    # state = (level - sum_{i != state} w_i z_i) / w_state
    repl = new_ctx.sym(level)
    for n, wi in w.items():
        if n != state:
            repl = repl - new_ctx.sym(n) * wi
    repl = repl.exact_divide(new_ctx.const(w[state]))
    rows = sys.flatten()
    keep_rows = [substitute(rows[sys.state_index(name)], new_ctx, {state: repl})[0] for name in new_states]
    new_ivs = {name: sys.initial_values[name] for name in new_states}
    out = raw_system(new_ctx, keep_rows, new_ivs)
    if level_order:
        out = grade_parameter(out, level, level_order)
    return out


def linear_change_of_states(
    sys: GradedSystem, B: Sequence[Sequence[object]], new_names: Sequence[str]
) -> GradedSystem:
    """New coordinates zhat = B z (B rational, invertible); field becomes B h(B^-1 zhat)."""
    n = sys.n
    Bq = [[Q(v) for v in row] for row in B]  # type: ignore[arg-type]
    if len(Bq) != n or any(len(r) != n for r in Bq):
        raise ModelError("B must be square of the state dimension")
    from .matrices import fraction_solve

    cols = []
    for j in range(n):
        unit = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        x = fraction_solve(Bq, unit)
        if x is None:
            raise ModelError("B is singular")
        cols.append(x)
    Binv = [[cols[j][i] for j in range(n)] for i in range(n)]
    new_ctx = Context(list(new_names), [p.name for p in sys.ctx.params], eps=sys.ctx.eps.name)
    # old state i = sum_j Binv[i][j] * zhat_j
    subs_map: dict[str, Polynomial] = {}
    for i, old_name in enumerate(sys.states):
        expr = new_ctx.zero()
        for j, nn in enumerate(new_names):
            if Binv[i][j]:
                expr = expr + new_ctx.sym(nn) * Binv[i][j]
        subs_map[old_name] = expr
    rows_old = sys.flatten()
    substituted = [substitute(p, new_ctx, subs_map)[0] for p in rows_old]
    new_rows = []
    for i in range(n):
        acc = new_ctx.zero()
        for j in range(n):
            if Bq[i][j]:
                acc = acc + substituted[j] * Bq[i][j]
        new_rows.append(acc)
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
    return raw_system(new_ctx, new_rows, new_ivs)


# ---------------------------------------------------------------------------
# Linear first integrals
# ---------------------------------------------------------------------------


def linear_first_integrals(sys: GradedSystem) -> list[list[Fraction]]:
    """Basis of constant row vectors w with w . h_g identically zero per grade."""
    n = sys.n
    constraints: list[list[Fraction]] = []
    for g in sys.grades:
        monomials: set[tuple[int, ...]] = set()
        for p in g:
            monomials.update(p.terms)
        for e in monomials:
            constraints.append([p.terms.get(e, Fraction(0)) for p in g])
    if not constraints:
        constraints = [[Fraction(0)] * n]
    basis = fraction_nullspace(constraints)
    return [_primitive(v) for v in basis]


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    """Scale to a primitive integer vector with positive first nonzero entry."""
    from math import gcd

    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-x for x in ints]
            break
    return [Fraction(v) for v in ints]


def is_first_integral(sys: GradedSystem, weights: Sequence[object]) -> bool:
    w = [Q(v) for v in weights]  # type: ignore[arg-type]
    for g in sys.grades:
        acc = sys.ctx.zero()
        for wi, p in zip(w, g):
            acc = acc + p * wi
        if not acc.is_zero():
            return False
    return True
