"""Reductions onto the critical manifold: decompositions, projections, certificates.

The central object is a decomposition h0 = P*mu with rank P = rank Dmu = r.
From it come the projection Q = Id - P(Dmu P)^(-1) Dmu, the reduced slow-time
field q = Q*h1 (computed without forming Q, through one linear solve), the
critical manifold mu = 0, eigenvalue certificates for the fast block,
transported first integrals, and reduced initial values obtained by
intersecting the manifold with the level sets of fast-system first integrals.

Three decomposition builders cover the use cases: the classical fast-variable
one (mu = y), a greedy one picking functionally independent entries of h0, and
the rank-factorization route for scaled systems whose fast-block matrix is
singular.  Callers reach a route only through ``reduce_model``: it eliminates
the scaled fast block [G0 | g1] once (``fast_block_elimination``), picks the
standard or the nonstandard route by the rank of G0, and hands that
elimination to ``standard_reduce`` or ``nonstandard_decomposition``, which
take it as a required argument.  Later solves on the manifold mu = 0 continue
its one solve instead of repeating it.

Solutions stay in the solved blocks of ``matrices.solve_blocks``, numerators
over one last pivot per block, until they meet the matrix that multiplies
them: q = h1 - P*gamma, the standard route's f1 - F0*u and Q = Id - P*Y each
take one rational function per entry and block (``matrices.minus_product``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm
from typing import Mapping, Sequence

from .matrices import (
    Elimination,
    NoSolution,
    RFMatrix,
    berkowitz,
    fraction_solve,
    hadamard_factor,
    integer_gauss_jordan,
    jacobian,
    minus_product,
    solve_blocks,
)
from .rational import (
    Context,
    Point,
    Polynomial,
    Q,
    RationalFunction,
    SymbolicError,
    cancel_common_factors,
    cleared_row,
)
from .stability import is_hurwitz_stable, max_real_part
from .systems import (
    FULL_LTC,
    GradedSystem,
    LtcVerdict,
    Partition,
    ScaledSystem,
    apply_scaling,
    check_ltc,
    linear_first_integrals,
)


# Highest degree of the polynomial coefficients find_decomposition tries for P.
MAX_POLY_DEGREE = 4
# Least distance of the fast block's eigenvalues from the imaginary axis.
NU_MIN = 1e-9


class ReductionError(SymbolicError):
    """Reduction could not be carried out as requested."""


class DecompositionError(ReductionError):
    """No product form h0 = P*mu found in the implemented search space."""


class StandardCaseError(ReductionError):
    """The fast-block matrix at y=0 is singular; the standard route is off."""


class NonstandardError(ReductionError):
    """The rank-deficient route failed (no w with g1 = G*w, or bad rank)."""


class InconsistentScalingError(ReductionError):
    """The partition is not fully consistent (fullLTC); no reduction exists."""

    def __init__(self, verdict: LtcVerdict):
        super().__init__(f"system is not fully consistent for this partition: {verdict}")
        self.verdict = verdict


def _require_full_ltc(sys: GradedSystem, part: Partition) -> None:
    verdict = check_ltc(sys, part)
    if verdict.status != FULL_LTC:
        raise InconsistentScalingError(verdict)


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    """Product form h0 = P*mu with the derived projection data.

    mode is "standard" (mu = fast variables), "general" (greedy entries of
    h0), or "nonstandard" (rank factorization with manifold R(y*+w) = 0).
    """

    ctx: Context
    states: tuple[str, ...]
    P: RFMatrix
    mu: list[RationalFunction]
    mode: str
    _dmu: RFMatrix | None = field(default=None, repr=False)
    _dmup: RFMatrix | None = field(default=None, repr=False)
    _q: RFMatrix | None = field(default=None, repr=False)

    @property
    def r(self) -> int:
        return len(self.mu)

    @property
    def n(self) -> int:
        return len(self.states)

    def dmu(self) -> RFMatrix:
        if self._dmu is None:
            self._dmu = jacobian(self.mu, list(self.states))
        return self._dmu

    def _fast_rows(self) -> list[int]:
        """The standard route's state index of each mu = y: where Dmu's row has its one 1."""
        return [[v.is_zero() for v in row].index(False) for row in self.dmu().entries]

    def dmup(self) -> RFMatrix:
        """Dmu P; on the standard route, Dmu selects the fast coordinates, so P's fast rows."""
        if self._dmup is None:
            if self.mode == "standard":
                self._dmup = RFMatrix(self.ctx, [self.P.entries[i] for i in self._fast_rows()])
            else:
                self._dmup = self.dmu() @ self.P
        return self._dmup

    def projection(self) -> RFMatrix:
        """Q = Id - P (Dmu P)^(-1) Dmu, the projection along im P onto ker Dmu.

        P Y comes from the solved blocks of (Dmu P) Y = Dmu, one rational
        function per entry of Q and block.  On the standard route Dmu Q = 0
        says that Q's fast rows are zero, so only the slow rows are formed.
        """
        if self._q is None:
            solved = solve_blocks(self.dmup(), self.dmu())
            if isinstance(solved, NoSolution):
                raise ReductionError("Dmu*P is singular over the rational-function field")
            ident = RFMatrix.identity(self.ctx, self.n).entries
            if self.mode == "standard":
                fast = set(self._fast_rows())
                slow = [i for i in range(self.n) if i not in fast]
                q = [[RationalFunction.of(self.ctx.zero())] * self.n] * self.n
                for i, row in zip(slow, minus_product(ident, self.P, solved, slow)):
                    q[i] = row
            else:
                q = minus_product(ident, self.P, solved)
            self._q = RFMatrix(self.ctx, q)
        return self._q

    def manifold(self) -> "CriticalManifold":
        return CriticalManifold(tuple(self.mu), self.n - self.r)

    def verify(self, h0: Sequence[Polynomial]) -> bool:
        """Exact identities: P*mu = h0, Q^2 = Q, Q*P = 0, Dmu*Q = 0."""
        prod = self.P.mul_vector(self.mu)
        for got, want in zip(prod, h0):
            if got != RationalFunction.coerce(self.ctx, want):
                return False
        Qm = self.projection()
        if not (Qm @ Qm - Qm).is_zero():
            return False
        if not (Qm @ self.P).is_zero():
            return False
        if not (self.dmu() @ Qm).is_zero():
            return False
        return True


@dataclass(frozen=True)
class CriticalManifold:
    """Zero set of the defining equations; dimension n - r."""

    equations: tuple[RationalFunction, ...]
    dimension: int


# default_sample's values: Fraction(a, b) at index 4*a + b - 5, a in 1..9, b in 1..4,
# and at the same index each value's (numerator, denominator) in lowest terms.
_SAMPLE_VALUES = tuple(Fraction(a, b) for a in range(1, 10) for b in range(1, 5))
_SAMPLE_PAIRS = tuple((v.numerator, v.denominator) for v in _SAMPLE_VALUES)
MAX_SAMPLES = 10_000  # most certificate samples the CLI accepts


def default_sample(ctx: Context, seed: int = 0) -> dict[str, Fraction]:
    """Random rational point in the open positive orthant, small entries.

    Each symbol gets Fraction(a, b), a uniform in 1..9 drawn before b uniform
    in 1..4, read from a table built at import.
    """
    return _draw(ctx, seed)[0]


def _draw(ctx: Context, seed: int) -> tuple[dict[str, Fraction], Point]:
    """``default_sample``'s point, and its values cleared as by :meth:`Context.point_values`.

    The stream is that of ``random.Random(seed)``'s randint(1, 9) and
    randint(1, 4) per symbol: each index is getrandbits of the range size's
    bit length, drawn again while it is out of range.  The Point comes from
    the integer pairs, with no Fraction arithmetic.
    """
    bits = random.Random(seed).getrandbits
    point = {}
    pairs = []
    for sym in ctx.symbols:
        a = bits(4)
        while a >= 9:
            a = bits(4)
        b = bits(3)
        while b >= 4:
            b = bits(3)
        i = 4 * a + b
        point[sym.name] = _SAMPLE_VALUES[i]
        pairs.append(_SAMPLE_PAIRS[i])
    den = lcm(*[d for _, d in pairs])
    return point, Point(ctx, [n * (den // d) for n, d in pairs], den)


def standard_decomposition(sys: GradedSystem, part: Partition) -> Decomposition:
    """Classical decomposition of a fully consistent system: mu = fast block.

    h0 factors through the fast variables (Hadamard), P stacks the factor
    matrix rows in state order, and Dmu is the fast-coordinate selection.
    """
    _require_full_ltc(sys, part)
    return _fast_variable_decomposition(sys, part)


def _fast_variable_decomposition(sys: GradedSystem, part: Partition) -> Decomposition:
    """``standard_decomposition`` of a partition already known to be fully consistent."""
    M = hadamard_factor(sys.grade(0), list(part.fast))
    mu = [RationalFunction.of(sys.ctx.sym(n)) for n in part.fast]
    return Decomposition(sys.ctx, tuple(sys.states), M, mu, "standard")


def find_decomposition(h0: Sequence[Polynomial], sample: Mapping[str, Fraction]) -> Decomposition:
    """Greedy product form: mu = functionally independent entries of h0.

    The rank r of Dh0 at the sample must be < n.  P is solved row by row,
    first over constant coefficients (exact linear algebra on coefficient
    vectors), then over polynomial coefficients up to ``MAX_POLY_DEGREE``, and
    for r = 1 by direct cancellation; failing that, DecompositionError points
    at the user-supplied route.
    """
    if not h0:
        raise ReductionError("empty field")
    ctx = h0[0].ctx
    states = tuple(s.name for s in ctx.states)
    n = len(states)
    J = jacobian(h0, list(states))
    # the first rows of Dh0 independent of those above them at the sample:
    # the pivot columns of its transpose
    chosen = integer_gauss_jordan([cleared_row(col)[0] for col in zip(*J.eval(sample))], len(h0))
    r = len(chosen)
    if r >= n:
        raise ReductionError(f"rank Dh0 = {r} is not smaller than n = {n} at the sample")
    if r == 0:
        raise ReductionError("field has rank 0 at the sample; nothing to reduce onto")
    mu_polys = [h0[i] for i in chosen]
    P_rows: list[list[RationalFunction]] = []
    for i in range(n):
        if i in chosen:
            P_rows.append([RationalFunction.of(ctx.one() if k == i else ctx.zero()) for k in chosen])
            continue
        row = _solve_p_row(ctx, h0[i], mu_polys, sample)
        if row is None:
            raise DecompositionError(
                f"no P row found for entry {i} ({states[i]}); supply (P, mu) explicitly"
            )
        P_rows.append(row)
    P = RFMatrix(ctx, P_rows)
    mu = [RationalFunction.of(p) for p in mu_polys]
    dec = Decomposition(ctx, states, P, mu, "general")
    prod = P.mul_vector(mu)
    for got, want in zip(prod, h0):
        if got != RationalFunction.of(want):
            raise DecompositionError("internal: P*mu identity failed verification")
    return dec


def _solve_p_row(
    ctx: Context,
    target: Polynomial,
    mu: list[Polynomial],
    sample: Mapping[str, Fraction],
) -> "list[RationalFunction] | None":
    r = len(mu)
    if target.is_zero():
        return [RationalFunction.of(ctx.zero())] * r
    # constant coefficients: match monomial coefficient vectors
    mu_view = [m.monomials() for m in mu]
    target_view = target.monomials()
    monomials = sorted(set().union(*mu_view) | set(target_view))
    A = [[v.get(e, 0) for v in mu_view] for e in monomials]
    b = [target_view.get(e, 0) for e in monomials]
    x = fraction_solve(A, b)
    if x is not None:
        # fraction_solve returns a candidate; verify to reject lossy fits
        acc = ctx.zero()
        for c, m in zip(x, mu):
            acc = acc + m * c
        if acc == target:
            return [RationalFunction.of(ctx.const(c)) for c in x]
    # polynomial coefficients over a shared monomial basis
    basis = _monomials_up_to(ctx, min(MAX_POLY_DEGREE, target.total_degree()))
    unknown_cols: list[Polynomial] = []
    col_index: list[tuple[int, int]] = []
    for j, m in enumerate(mu):
        for k, mono in enumerate(basis):
            unknown_cols.append(mono * m)
            col_index.append((j, k))
    col_view = [p.monomials() for p in unknown_cols]
    all_monos = sorted(set().union(*col_view) | set(target_view))
    A2 = [[v.get(e, 0) for v in col_view] for e in all_monos]
    b2 = [target_view.get(e, 0) for e in all_monos]
    x2 = fraction_solve(A2, b2)
    if x2 is not None:
        coeffs = [ctx.zero() for _ in range(r)]
        for val, (j, k) in zip(x2, col_index):
            if val:
                coeffs[j] = coeffs[j] + basis[k] * val
        acc = ctx.zero()
        for c, m in zip(coeffs, mu):
            acc = acc + c * m
        if acc == target:
            return [RationalFunction.of(c) for c in coeffs]
    if r == 1:
        # direct division; acceptable when the quotient's denominator does not
        # vanish at the sample (smoothness near the working point)
        quot = RationalFunction.of(target) / RationalFunction.of(mu[0])
        try:
            ok = quot.den.eval(sample) != 0
        except ZeroDivisionError:
            ok = False
        if ok and quot * mu[0] == target:
            return [quot]
    return None


def _monomials_up_to(ctx: Context, degree: int) -> list[Polynomial]:
    names = [s.name for s in ctx.states] + [p.name for p in ctx.params]
    out = [ctx.one()]
    frontier = [ctx.one()]
    for _ in range(degree):
        nxt = []
        for m in frontier:
            for nm in names:
                cand = m * ctx.sym(nm)
                nxt.append(cand)
        # dedupe by leading exponent (each candidate is a monomial)
        seen = {next(iter(m.terms)): m for m in nxt}
        frontier = list(seen.values())
        out.extend(frontier)
    seen_all = {next(iter(m.terms)): m for m in out}
    return list(seen_all.values())


# Why each route refuses a fast block G0(x, 0) of the wrong rank.
STANDARD_REFUSAL = "G0(x,0) is singular; the scaling needs the rank-deficient (nonstandard) route"
NONSTANDARD_REFUSAL = "fast-block matrix has full rank; use the standard reduction"


def fast_block_elimination(scaled: ScaledSystem) -> Elimination:
    """One elimination of [G0 | g1] for the scaled fast block of the lowest grade.

    That block is G0(x) y* + g1(x): G0 is its Jacobian in the scaled fast
    variables, the standard route's G0(x,0), and g1 its value at y* = 0.
    The columns go in descending index order, so the one elimination gives
    the standard solve G0 u = g1 when G0 is regular and the rank
    factorization G0 = G R with G0 w = g1 when it is singular.  Refuses
    (ReductionError) a scaling that is not locally consistent, a lowest
    grade whose slow block does not vanish, and a fast block that is not
    affine in the scaled variables.
    """
    if scaled.laurent_flag < 0:
        raise ReductionError("scaling was not locally consistent; no reduction")
    if any(not p.is_zero() for p in scaled.slow_block(0)):
        raise ReductionError("slow block of the lowest grade does not vanish (not fully consistent)")
    fast_names = list(scaled.fast_star)
    fast0 = scaled.fast_block(0)
    graded = [p.by_degree(fast_names) for p in fast0]
    if any(len(groups) > 2 for groups in graded):
        raise ReductionError("fast block is not affine in the scaled variables")
    A0 = jacobian(fast0, fast_names)
    g1 = [groups[0] for groups in graded]
    return Elimination(A0, RFMatrix.column(scaled.system.ctx, g1), right_first=True)


def nonstandard_decomposition(scaled: ScaledSystem, elimination: Elimination) -> Decomposition:
    """Rank-factorization route for scaled systems with singular fast-block matrix.

    Writes the fast block of the lowest grade as G0(x)y* + b(x), factors
    G0 = G*R with rank s1 (0 < s1 < s), solves b = G0*w, and forms
    mu = R(y*+w), P = (0; G), all from ``elimination``, the
    ``fast_block_elimination`` of ``scaled``.  Fails with NonstandardError
    when G0 is zero or no w exists, naming the obstructed row, and with
    StandardCaseError when G0 is regular.
    """
    sys = scaled.system
    ctx = sys.ctx
    fast_names = list(scaled.fast_star)
    s = len(fast_names)
    if elimination.M.is_zero():
        raise NonstandardError("fast-block matrix is zero; nothing to factor")
    # shift w solves g1(x,0) = G0(x,0) w; any solution gives the same manifold
    factored = elimination.factor()
    if isinstance(factored, NoSolution):
        raise NonstandardError(
            f"no w with g1 = G0*w exists; obstruction in fast row {factored.row} "
            f"({fast_names[factored.row]})"
        )
    s1, G, R, w = factored
    if s1 >= s:
        raise StandardCaseError(NONSTANDARD_REFUSAL)
    ypw = [RationalFunction.of(ctx.sym(n)) + wi for n, wi in zip(fast_names, w)]
    fast_pos = {n: k for k, n in enumerate(fast_names)}
    zero_row = [RationalFunction.of(ctx.zero())] * s1
    P = RFMatrix(ctx, [G.row(fast_pos[n]) if n in fast_pos else zero_row for n in sys.states])
    return Decomposition(ctx, tuple(sys.states), P, R.mul_vector(ypw), "nonstandard")


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


@dataclass
class TransportedIntegral:
    """A first integral carried through scaling: eps-order and leading part."""

    order: int
    rf: RationalFunction
    level: "RationalFunction | None" = None


@dataclass
class EliminatedForm:
    """Reduced field after substituting solved manifold/conservation relations."""

    solved: "list[tuple[str, RationalFunction]]"
    states: tuple[str, ...]
    field: list[RationalFunction]


@dataclass
class ReducedSystem:
    """Slow-time limit field on the critical manifold.

    ``reduce_model`` fills ``eliminated``, the solved manifold substituted
    into the field (``standard_reduce`` does on the standard route), and
    also ``scaled`` (the scaled full system), ``initial_values`` (the reduced
    initial value in the limit eps -> 0), ``route`` (the route taken, the
    rank of G0(x,0) against the number of fast variables, and why the other
    route was refused) and ``errors`` (stage name -> why an optional stage
    produced nothing); ``reduce_extras`` fills the transported integrals and
    the conserved form.
    """

    states: tuple[str, ...]
    field: list[RationalFunction]
    manifold: CriticalManifold
    decomposition: "Decomposition | None" = None
    transported_integrals: list[TransportedIntegral] = field(default_factory=list)
    eliminated: "EliminatedForm | None" = None
    initial_values: dict[str, RationalFunction] = field(default_factory=dict)
    scaled: "ScaledSystem | None" = None
    eliminated_conserved: "EliminatedForm | None" = None
    errors: dict[str, str] = field(default_factory=dict)
    route: dict = field(default_factory=dict)

    def row(self, name: str) -> RationalFunction:
        return self.field[self.states.index(name)]


def reduce_with(dec: Decomposition, h1: Sequence[Polynomial]) -> ReducedSystem:
    """q = h1 - P*gamma with (Dmu P) gamma = Dmu h1; equals Q*h1 without forming Q.

    gamma stays in its solved blocks, numerators over one last pivot d per
    block, so each row of q takes one rational function per block.
    """
    h1_rf = [RationalFunction.coerce(dec.ctx, p) for p in h1]
    solved = solve_blocks(dec.dmup(), RFMatrix.column(dec.ctx, dec.dmu().mul_vector(h1_rf)))
    if isinstance(solved, NoSolution):
        raise ReductionError("Dmu*P is singular over the rational-function field")
    q = minus_product([[h] for h in h1_rf], dec.P, solved)
    return ReducedSystem(dec.states, [row[0] for row in q], dec.manifold(), dec)


def standard_reduce(sys: GradedSystem, part: Partition, elimination: Elimination) -> ReducedSystem:
    """Classical elimination of the fast block for a fully consistent system.

    Returns the r-dimensional slow field
    f1(x,0) - F0(x,0) G0(x,0)^(-1) g1(x,0) together with the first-order
    manifold data y* = -G0(x,0)^(-1) g1(x,0), and the standard decomposition
    whose P supplies F0.  G0^(-1) g1 comes from ``elimination``, the
    ``fast_block_elimination`` of the scaled system of a partition that
    ``reduce_model`` has found fully consistent.  Refuses (StandardCaseError)
    when G0(x,0) is singular.
    """
    dec = _fast_variable_decomposition(sys, part)
    ctx = sys.ctx
    solved = elimination.solution()
    if isinstance(solved, NoSolution):
        raise StandardCaseError(STANDARD_REFUSAL)
    # the elimination lives in the scaled context, free of the scaled fast
    # variables: carry its polynomials over to this one
    solved = [(u, d.relabel(ctx), [[v.relabel(ctx) for v in y] for y in Y]) for u, d, Y in solved]
    fast = list(part.fast)
    # P is the polynomial Hadamard factor of h0; F0 and f1 are at fast = 0
    M = dec.P
    F0 = RFMatrix(ctx, [
        [M.entries[sys.state_index(x)][j].num.by_degree(fast)[0] for j in range(len(fast))]
        for x in part.slow
    ])
    h1 = sys.grade(1)
    f1 = [RationalFunction.of(h1[sys.state_index(x)].by_degree(fast)[0]) for x in part.slow]
    reduced = [row[0] for row in minus_product([[f] for f in f1], F0, solved)]
    # first-order manifold: y*_j = -(G0^-1 g1)_j
    qss = [RationalFunction.of(ctx.zero())] * len(fast)
    for unknowns, d, Y in solved:
        for j, y in zip(unknowns, Y):
            qss[j] = RationalFunction(-y[0], d)
    manifold_eqs = tuple(
        RationalFunction.of(ctx.sym(n)) - expr for n, expr in zip(part.fast, qss)
    )
    red = ReducedSystem(tuple(part.slow), reduced, CriticalManifold(manifold_eqs, part.r), dec)
    red.eliminated = EliminatedForm(
        [(n, expr) for n, expr in zip(part.fast, qss)], tuple(part.slow), reduced
    )
    return red


# ---------------------------------------------------------------------------
# Eigenvalue certificates
# ---------------------------------------------------------------------------


@dataclass
class EigenSample:
    point: dict[str, Fraction]
    max_real_part: float
    hurwitz_ok: bool


@dataclass
class EigenCertificate:
    verdict: str  # pass | fail | indeterminate
    nu_margin: float
    samples: list[EigenSample]
    method: str
    rejected: int = 0

    def to_json(self) -> dict:
        # NaN (no float sample, or one too large for a float) has no JSON
        # spelling: it is written as null
        return {
            "verdict": self.verdict,
            "nu_margin": self.nu_margin if isfinite(self.nu_margin) else None,
            "method": self.method,
            "rejected_samples": self.rejected,
            "samples": [
                {
                    "point": {k: str(v) for k, v in s.point.items()},
                    "max_real_part": s.max_real_part if isfinite(s.max_real_part) else None,
                    "hurwitz_ok": s.hurwitz_ok,
                }
                for s in self.samples
            ],
        }


def eigen_certificate(
    dec: Decomposition,
    sample_points: "Sequence[Mapping[str, Fraction]] | None" = None,
    n_samples: int = 25,
    seed: int = 0,
    solved: "Sequence[tuple[str, RationalFunction]] | None" = None,
) -> EigenCertificate:
    """Sample-based stability certificate for Dmu*P on the critical manifold.

    Generated samples draw the free symbols from the positive orthant and get
    the dependent ones from ``solved``, the manifold relations as (name,
    expression) pairs, each expression in the free symbols and the names
    before it (None: no relations).  ``reduce_extras`` passes y = 0 on the
    standard route and the eliminated form's relations on the nonstandard
    one.  Each point is drawn straight into integers over one denominator
    (``_draw``), and the relations' values extend it in place, a relation
    whose expression is 0 binding 0 unevaluated; a point where a relation is
    undefined is skipped.  Each sample is checked to satisfy the manifold
    equations exactly, on the integer numerators of its values, and a zero
    entry of Dmu*P is filled as 0, not evaluated.  The verdict is "pass" only if every sample has eigenvalues
    with real part at most -NU_MIN and the exact sign test agrees.  A sample where an entry
    of Dmu*P is undefined is rejected.  One where an entry is too large for a
    float has no numeric eigenvalues: it is rejected if the exact test passes,
    and kept with ``max_real_part`` NaN, failing the certificate, if it does
    not.  The eigenvalues of all samples come from one stacked call.  The
    method reads "routh_hurwitz_exact+numeric", or "routh_hurwitz_exact" when
    no kept sample had numeric eigenvalues.
    """
    ctx = dec.ctx
    M = dec.dmup()
    # each point with its values cleared to integers, once
    points: list[tuple[dict[str, Fraction], Point]] = []
    rejected = 0
    if sample_points is not None:
        for p in sample_points:
            cleared = ctx.point_values(p)
            if _on_manifold(dec.mu, cleared):
                points.append((dict(p), cleared))
        rejected = len(sample_points) - len(points)
    else:
        rng = random.Random(seed)
        tries = 0
        while len(points) < n_samples and tries < 50 * n_samples:
            tries += 1
            pt, cleared = _draw(ctx, rng.randint(0, 10**9))
            if solved is not None:
                try:
                    for name, expr in solved:
                        pt[name] = value = 0 if expr.is_zero() else expr.eval_at(cleared)
                        cleared.bind(name, value)
                except ZeroDivisionError:
                    continue
            if _on_manifold(dec.mu, cleared):
                points.append((pt, cleared))
    samples: list[EigenSample] = []
    floated: list[EigenSample] = []  # the samples whose matrix is in numeric
    numeric: list[list[list[float]]] = []
    for pt, cleared in points:
        try:
            exact = M.eval_at(cleared)
        except ZeroDivisionError:
            rejected += 1
            continue
        # exact sign test on the sample's characteristic polynomial
        sample = EigenSample(pt, float("nan"), is_hurwitz_stable(_fraction_char_poly(exact)))
        try:
            numeric.append([[float(v) for v in row] for row in exact])
        except OverflowError:
            if sample.hurwitz_ok:
                rejected += 1
            else:
                samples.append(sample)
            continue
        samples.append(sample)
        floated.append(sample)
    if not samples:
        return EigenCertificate("indeterminate", float("nan"), [], "no admissible samples", rejected)
    for sample, mrp in zip(floated, max_real_part(numeric) if numeric else ()):
        sample.max_real_part = mrp
    worst = max((s.max_real_part for s in floated), default=float("nan"))
    margin = -worst
    ok = worst <= -NU_MIN and all(s.hurwitz_ok for s in samples)
    verdict = "pass" if ok else "fail"
    method = "routh_hurwitz_exact+numeric" if floated else "routh_hurwitz_exact"
    return EigenCertificate(verdict, margin, samples, method, rejected)


def _on_manifold(mu: Sequence[RationalFunction], point: Point) -> bool:
    """Every manifold equation is defined at the point and vanishes there exactly.

    Tested on the integer numerators of the cleared values: a denominator's
    is nonzero, a numerator's zero.
    """
    return all(m.den.cleared_at(point)[0] and not m.num.cleared_at(point)[0] for m in mu)


def _fraction_char_poly(m: list[list[Fraction]]) -> list[int]:
    """Characteristic polynomial [1, d*c1, ..., d^n*cn] of d*m, on integers, by ``matrices.berkowitz``.

    m is an exact numeric matrix, d the lcm of its denominators and
    [1, c1, ..., cn] its monic characteristic polynomial.  B = d*m has
    integer entries and d times m's roots, with d > 0, so
    :func:`is_hurwitz_stable` gives B's polynomial the verdict of m's.
    """
    n = len(m)
    flat, _ = cleared_row([v for row in m for v in row])
    return berkowitz([flat[i * n:i * n + n] for i in range(n)])


# ---------------------------------------------------------------------------
# Sequential linear elimination (manifold solving, eliminated forms)
# ---------------------------------------------------------------------------


def solve_equations_linear(
    equations: Sequence[RationalFunction],
    unknowns: Sequence[str],
    solved: Sequence[tuple[str, RationalFunction]] = (),
) -> "list[tuple[str, RationalFunction]] | None":
    """Solve equations = 0 for the unknowns by sequential linear elimination.

    ``solved``, an earlier result, is substituted first and heads the result.
    Picks, at each step, an equation that is degree-one in some remaining
    unknown (preferring coefficients free of unknowns), solves and substitutes.
    Returns the solved assignments in dependency-free order (later entries
    already substituted into earlier ones), or None if stuck or inconsistent.
    """
    solved = list(solved)
    if not equations:
        return solved
    ctx = equations[0].ctx
    eqs = [RationalFunction.coerce(ctx, e) for e in equations]
    done = dict(solved)
    try:
        remaining = [e for e in (e.subs(done) if done else e for e in eqs) if not e.is_zero()]
    except ZeroDivisionError:
        return None
    todo = [u for u in unknowns if u not in done]
    while remaining and todo:
        best: "tuple[tuple, int, str, RationalFunction] | None" = None
        for idx, eq in enumerate(remaining):
            num = eq.num
            used = num.symbols_used()
            n_unknowns = sum(1 for u in todo if u in used)
            if n_unknowns == 0:
                continue
            for u in todo:
                if num.degree_in(u) != 1:
                    continue
                coeff = num.diff(u)  # exact since degree one
                if coeff.is_zero():
                    continue
                clean = set(coeff.symbols_used()).isdisjoint(todo)
                # prefer small equations in few unknowns with unknown-free
                # coefficients: keeps the triangular solve from nesting badly
                key = (n_unknowns, 0 if clean else 1, len(num.terms))
                if best is None or key < best[0]:
                    expr_num = num - coeff * ctx.sym(u)
                    sol = RationalFunction(-expr_num, coeff)
                    best = (key, idx, u, sol)
            if best is not None and best[0][:2] == (1, 0):
                break  # cannot do better than a single clean unknown
        if best is None:
            break
        _, idx, u, sol = best
        solved.append((u, sol))
        todo.remove(u)
        remaining.pop(idx)
        try:
            remaining = [e for e in (eq.subs({u: sol}) for eq in remaining) if not e.is_zero()]
        except ZeroDivisionError:
            return None
    if remaining:
        return None
    # back-substitute later solutions into earlier expressions; factors worth
    # cancelling come from solution and input-equation denominators
    candidates = [e.den for _, e in solved if not e.den.is_one()]
    candidates += [e.den for e in eqs if not e.den.is_one()]
    for k in range(len(solved) - 1, -1, -1):
        name, expr = solved[k]
        later = {n: e for n, e in solved[k + 1 :]}
        needed = {n: e for n, e in later.items() if n in expr.num.symbols_used() | expr.den.symbols_used()}
        if needed:
            expr = expr.subs(needed)
        num, den = cancel_common_factors((expr.num, expr.den), candidates)
        solved[k] = (name, expr if num is expr.num else RationalFunction(num, den))
    return solved


def eliminate_on_manifold(
    red: ReducedSystem, extra_relations: Sequence[RationalFunction], unknowns: Sequence[str]
) -> EliminatedForm:
    """Substitute solved manifold (and conservation) relations into the field.

    The manifold equations and ``extra_relations`` are solved for
    ``unknowns``, the scaled fast variables in both pipeline calls,
    sequentially (linear steps only), continuing ``red.eliminated``'s solve,
    and substituted into the rows of the remaining states.
    """
    eqs = list(red.manifold.equations) + list(extra_relations)
    prefix = red.eliminated.solved if red.eliminated is not None else ()
    solved = solve_equations_linear(eqs, unknowns, solved=prefix)
    if solved is None:
        raise ReductionError("manifold equations are not sequentially linearly solvable")
    sub = {n: e for n, e in solved}
    keep = tuple(n for n in red.states if n not in sub)
    candidates = [e.den for _, e in solved if not e.den.is_one()]
    candidates += [e.den for e in eqs if not e.den.is_one()]
    rows = []
    for n in keep:
        row = red.field[red.states.index(n)].subs(sub)
        num, den = cancel_common_factors((row.num, row.den), candidates)
        rows.append(row if num is row.num else RationalFunction(num, den))
    return EliminatedForm(solved, keep, rows)


# ---------------------------------------------------------------------------
# First integrals under scaling and reduction
# ---------------------------------------------------------------------------


def transform_first_integral(
    phi: RationalFunction, sys: GradedSystem, scaled: ScaledSystem
) -> TransportedIntegral:
    """Carry an eps-free first integral of the unscaled system through the scaling.

    Verifies the Lie derivative vanishes identically (grade by grade, eps
    formal).  Under y = eps*y_star the terms of degree k in the fast
    variables carry eps^k, so the lowest nonvanishing eps-coefficient is the
    lowest nonzero group of the numerator over that of the denominator
    (``Polynomial.by_degree``), relabelled over the scaled context, and its
    order is their difference.  phi must be eps-free (ReductionError
    otherwise); phi = 0 comes back with order 0.
    """
    if not (phi.num.eps_free() and phi.den.eps_free()):
        raise ReductionError(f"first integral {phi.render()} carries eps; it must be eps-free")
    # phi is eps-free, so its Lie derivative vanishes when that along each
    # grade h_g does; over den^2, that has numerator sum_i grad_i * h_g[i]
    num, den = phi.num, phi.den
    grad = [num.diff(n) * den - num * den.diff(n) for n in sys.states]
    for grade in sys.grades:
        residue = sum((d * p for d, p in zip(grad, grade) if d and p), phi.ctx.zero())
        if residue:
            raise ReductionError(
                f"not a first integral; Lie derivative residue: {RationalFunction(residue, den * den).render()}"
            )
    sctx = scaled.system.ctx
    if phi.is_zero():
        return TransportedIntegral(0, RationalFunction.of(phi.num.relabel(sctx)))
    fast = scaled.partition.fast
    (vn, num), (vd, den) = (
        next((k, g) for k, g in enumerate(q.by_degree(fast)) if g) for q in (phi.num, phi.den)
    )
    return TransportedIntegral(vn - vd, RationalFunction(num.relabel(sctx), den.relabel(sctx)))


def linear_integral_forms(sys: GradedSystem) -> list[RationalFunction]:
    """Linear first integrals w.z of every grade of the system, as functions."""
    out = []
    for w in linear_first_integrals(sys):
        acc = sys.ctx.zero()
        for wi, name in zip(w, sys.states):
            if wi:
                acc = acc + sys.ctx.sym(name) * wi
        out.append(RationalFunction.of(acc))
    return out


def fast_linear_integrals(sys: GradedSystem) -> list[RationalFunction]:
    """Linear first integrals of the lowest-grade (fast) flow, as functions."""
    return linear_integral_forms(GradedSystem(sys.ctx, [sys.grade(0)], sys.initial_values, 0))


def integral_level(ti: TransportedIntegral, scaled: ScaledSystem) -> RationalFunction:
    """Level of a transported integral at the scaled initial point (eps -> 0)."""
    return ti.rf.subs(scaled_initial_symbolic(scaled))


def scaled_initial_symbolic(scaled: ScaledSystem) -> dict[str, RationalFunction]:
    """Initial point of the scaled system in the limit: order-0 bases survive."""
    return _initial_limit(scaled.system, scaled.system.states)


def _initial_limit(sys: GradedSystem, names: Sequence[str]) -> dict[str, RationalFunction]:
    ctx = sys.ctx
    out: dict[str, RationalFunction] = {}
    for name in names:
        iv = sys.initial_values[name]
        if iv.order < 0 and not iv.is_zero():
            raise ReductionError(
                f"initial value of {name} has negative eps-order; scaling is inconsistent"
            )
        if iv.order == 0:
            base = ctx.sym(iv.base) if isinstance(iv.base, str) else ctx.const(Q(iv.base))
            out[name] = RationalFunction.of(base)
        else:
            out[name] = RationalFunction.of(ctx.zero())
    return out


# ---------------------------------------------------------------------------
# Reduced initial values
# ---------------------------------------------------------------------------


def reduced_initial_value(
    integrals: Sequence[RationalFunction],
    manifold_eqs: Sequence[RationalFunction],
    z0: Mapping[str, "RationalFunction | Fraction | int"],
    states: Sequence[str],
    solved: Sequence[tuple[str, RationalFunction]] = (),
) -> dict[str, RationalFunction]:
    """Intersect the manifold with the integral level sets through z0.

    The intersection is solved exactly, by sequential linear elimination, or
    refused with ReductionError; there is no numeric fallback.  It continues
    ``solved``, the manifold's relations.  The number of independent integrals
    plus the manifold codimension should equal the state count; surplus
    equations must vanish on the solution.
    """
    if not integrals and not manifold_eqs:
        raise ReductionError("nothing to intersect")
    ctx = (list(integrals) + list(manifold_eqs))[0].ctx
    point = {n: RationalFunction.coerce(ctx, v) for n, v in z0.items()}
    eqs: list[RationalFunction] = []
    for psi in integrals:
        eqs.append(psi - psi.subs(point))
    eqs.extend(manifold_eqs)
    solved = solve_equations_linear(eqs, list(states), solved)
    if solved is not None:
        out = dict(solved)
        for n in states:
            if n not in out:
                # untouched coordinate: keep its initial value
                out[n] = point.get(n, RationalFunction.of(ctx.zero()))
        residuals = [e.subs(out) for e in eqs]
        if all(r.is_zero() for r in residuals):
            return out
    raise ReductionError(
        "the manifold and the integral level sets have no exact sequential linear solution"
    )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def reduce_model(system: GradedSystem, fast: Sequence[str], mode: str = "auto") -> ReducedSystem:
    """Consistency check, route choice, reduction and reduced initial value.

    The one way into either route, for the CLI and the library alike: the
    scaled fast block [G0 | g1] is eliminated once and that elimination
    goes to the route taken.  ``mode`` "auto" takes the standard route
    (mu = fast variables) when G0(x,0) has full rank and the rank-deficient
    route on the scaled system otherwise; "standard" and "nonstandard" force
    one route.  Raises InconsistentScalingError when the partition is not
    fully consistent, and ReductionError when the chosen route is refused.
    Both routes fill ``eliminated``; a failure there or in the reduced
    initial value is recorded in ``errors["elimination"]`` or
    ``["initial_value"]``.
    """
    if mode not in ("auto", "standard", "nonstandard"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    part = Partition.from_fast(system, fast)
    _require_full_ltc(system, part)
    scaled = apply_scaling(system, part)
    elimination = fast_block_elimination(scaled)
    rank, s = elimination.rank, len(part.fast)
    if mode == "standard" or mode == "auto" and rank == s:
        red = standard_reduce(system, part, elimination)
        refused = {"route": "nonstandard", "reason": NONSTANDARD_REFUSAL}
    else:
        red = reduce_with(nonstandard_decomposition(scaled, elimination), scaled.system.grade(1))
        refused = {"route": "standard", "reason": STANDARD_REFUSAL}
        try:
            red.eliminated = eliminate_on_manifold(red, [], list(scaled.fast_star))
        except ReductionError as exc:
            red.errors["elimination"] = str(exc)
    red.route = {
        "chosen": red.decomposition.mode, "requested": mode, "g0_rank": rank, "fast_count": s, "refused": refused,
    }
    red.scaled = scaled
    try:
        red.initial_values = _reduced_start(red)
    except ReductionError as exc:
        red.errors["initial_value"] = str(exc)
    return red


def _reduced_start(red: ReducedSystem) -> dict[str, RationalFunction]:
    """Reduced initial value at eps -> 0.

    Standard route: the slow initial values.  Nonstandard route: the manifold
    meets the level sets of the fast flow's linear first integrals through
    the scaled initial point, which fixes one point when the integrals and
    the manifold codimension together number the states; solved from
    ``red.eliminated``'s relations, and refused without them.
    """
    dec, scaled = red.decomposition, red.scaled
    if dec.mode == "standard":
        return _initial_limit(scaled.system, red.states)
    if red.eliminated is None:
        raise ReductionError(f"the manifold could not be solved: {red.errors['elimination']}")
    integrals = fast_linear_integrals(scaled.system)
    if len(integrals) + dec.r != dec.n:
        raise ReductionError(
            f"{len(integrals)} linear first integrals of the fast flow and {dec.r} manifold "
            f"equations do not fix one point among {dec.n} states"
        )
    z0 = scaled_initial_symbolic(scaled)
    sol = reduced_initial_value(integrals, list(dec.mu), z0, list(dec.states), red.eliminated.solved)
    return {n: sol[n] for n in dec.states}


def reduce_extras(
    red: ReducedSystem, system: GradedSystem, n_samples: int = 25, seed: int = 0
) -> EigenCertificate:
    """Report-only stages on a ``reduce_model`` result; returns the certificate.

    On the nonstandard route, fills the transported linear first integrals of
    ``system`` (the unscaled model) and, when the eliminated form leaves some
    scaled fast variables, the conserved form: that elimination continued
    with the conservation levels.  Its failure goes to ``errors["conserved"]``.
    """
    scaled = red.scaled
    dec = red.decomposition
    if dec.mode == "standard":
        # the manifold is y = 0
        zero = RationalFunction.coerce(dec.ctx, 0)
        solved = [(name, zero) for name in scaled.partition.fast]
    else:
        fast = list(scaled.fast_star)
        extra_relations = []
        for phi in linear_integral_forms(system):
            try:
                ti = transform_first_integral(phi, system, scaled)
            except ReductionError:
                continue
            ti.level = integral_level(ti, scaled)
            red.transported_integrals.append(ti)
            # only level sets that constrain the scaled fast variables help the
            # manifold elimination; slow-variable laws stay informational
            if not set(ti.rf.num.symbols_used()).isdisjoint(fast):
                extra_relations.append(ti.rf - ti.level)
        solved = red.eliminated.solved if red.eliminated is not None else None
        if solved is not None and extra_relations and any(n in red.eliminated.states for n in fast):
            try:
                conserved = eliminate_on_manifold(red, extra_relations, fast)
                if len(conserved.states) < len(red.eliminated.states):
                    red.eliminated_conserved = conserved
            except ReductionError as exc:
                red.errors["conserved"] = str(exc)
    return eigen_certificate(dec, n_samples=n_samples, seed=seed, solved=solved)
