"""Reductions onto the critical manifold: decompositions, projections, certificates.

The central object is a decomposition h0 = P*mu with rank P = rank Dmu = r near
a sample point.  From it come the projection Q = Id - P(Dmu P)^(-1) Dmu, the
reduced slow-time field q = Q*h1 (computed without forming Q, through one
linear solve), the critical manifold mu = 0, first-order manifold corrections,
eigenvalue certificates for the fast block, transported first integrals, and
reduced initial values obtained by intersecting the manifold with the level
sets of fast-system first integrals.

Three decomposition builders cover the use cases: the classical fast-variable
one (mu = y), a greedy one picking functionally independent entries of h0, and
the rank-factorization route for scaled systems whose fast-block matrix is
singular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from .matrices import (
    NoSolution,
    RFMatrix,
    RankError,
    fraction_echelon,
    fraction_solve,
    hadamard_factor,
    jacobian,
    linear_solve,
    rank_and_factor,
    solve_matrix,
)
from .rational import (
    Context,
    Polynomial,
    Q,
    RationalFunction,
    SymbolicError,
    cancel_common_factors,
    substitute,
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
    star_name,
)


# Highest degree of the polynomial coefficients find_decomposition tries for P.
MAX_POLY_DEGREE = 4
# Sample points the nonstandard route tries for its rank factorization.
RANK_RETRIES = 5
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
    rank_data: "tuple[int, RFMatrix, RFMatrix, list[RationalFunction]] | None" = None
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

    def dmup(self) -> RFMatrix:
        if self._dmup is None:
            self._dmup = self.dmu() @ self.P
        return self._dmup

    def projection(self) -> RFMatrix:
        """Q = Id - P (Dmu P)^(-1) Dmu, the projection along im P onto ker Dmu."""
        if self._q is None:
            Y = solve_matrix(self.dmup(), self.dmu())
            if isinstance(Y, NoSolution):
                raise ReductionError("Dmu*P is singular over the rational-function field")
            self._q = RFMatrix.identity(self.ctx, self.n) - self.P @ Y
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


def default_sample(ctx: Context, seed: int = 0) -> dict[str, Fraction]:
    """Random rational point in the open positive orthant, small entries."""
    rng = random.Random(seed)
    return {
        sym.name: Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for sym in ctx.symbols
    }


def standard_decomposition(sys: GradedSystem, part: Partition) -> Decomposition:
    """Classical decomposition of a fully consistent system: mu = fast block.

    h0 factors through the fast variables (Hadamard), P stacks the factor
    matrix rows in state order, and Dmu is the fast-coordinate selection.
    """
    _require_full_ltc(sys, part)
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
    chosen, _ = fraction_echelon([list(col) for col in zip(*J.eval(sample))], len(h0))
    r = len(chosen)
    if r >= n:
        raise ReductionError(f"rank Dh0 = {r} is not smaller than n = {n} at the sample")
    if r == 0:
        raise ReductionError("field has rank 0 at the sample; nothing to reduce onto")
    mu_polys = [h0[i] for i in chosen]
    P_rows: list[list[RationalFunction]] = []
    for i in range(n):
        if i in chosen:
            P_rows.append(
                [
                    RationalFunction.of(ctx.one() if chosen[k] == i else ctx.zero())
                    for k in range(r)
                ]
            )
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
    monomials = sorted(set().union(*[set(m.terms) for m in mu]) | set(target.terms))
    A = [[m.terms.get(e, Fraction(0)) for m in mu] for e in monomials]
    b = [target.terms.get(e, Fraction(0)) for e in monomials]
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
    all_monos = sorted(set().union(*[set(p.terms) for p in unknown_cols]) | set(target.terms))
    A2 = [[p.terms.get(e, Fraction(0)) for p in unknown_cols] for e in all_monos]
    b2 = [target.terms.get(e, Fraction(0)) for e in all_monos]
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


def nonstandard_decomposition(
    scaled: ScaledSystem, sample: Mapping[str, Fraction], seed: int = 0
) -> Decomposition:
    """Rank-factorization route for scaled systems with singular fast-block matrix.

    Writes the fast block of the lowest grade as G0(x)y* + b(x), factors
    G0 = G*R with rank s1 (0 < s1 < s), solves b = G*w, and forms
    mu = R(y*+w), P = (0; G).  Fails with NonstandardError when no w exists,
    naming the obstructed row.
    """
    sys = scaled.system
    ctx = sys.ctx
    if scaled.laurent_flag < 0:
        raise ReductionError("scaling was not locally consistent; no reduction")
    slow0 = scaled.slow_block(0)
    if any(not p.is_zero() for p in slow0):
        raise ReductionError("slow block of the lowest grade does not vanish (not fully consistent)")
    fast_names = list(scaled.fast_star)
    s = len(fast_names)
    fast0 = scaled.fast_block(0)
    A0 = jacobian(fast0, fast_names)
    for row in A0.entries:
        for v in row:
            if not set(v.num.symbols_used()).isdisjoint(fast_names) or not v.den.is_one():
                raise ReductionError("fast block is not affine in the scaled variables")
    b = [p.subs({n: 0 for n in fast_names}) for p in fast0]

    lastexc: Exception | None = None
    rng = random.Random(seed)
    pt = dict(sample)
    for _ in range(RANK_RETRIES):
        try:
            s1, G, R = rank_and_factor(A0, pt)
            break
        except RankError as exc:
            lastexc = exc
            pt = default_sample(ctx, seed=rng.randint(0, 10**9))
    else:
        raise NonstandardError(f"rank factorization failed after retries: {lastexc}")
    if s1 >= s:
        raise StandardCaseError(
            "fast-block matrix has full rank at the sample; use the standard reduction"
        )
    # shift w solves g1(x,0) = G0(x,0) w; any solution gives the same manifold
    w = linear_solve(A0, b)
    if isinstance(w, NoSolution):
        raise NonstandardError(
            f"no w with g1 = G0*w exists; obstruction in fast row {w.row} "
            f"({fast_names[w.row]})"
        )
    ystar = [RationalFunction.of(ctx.sym(n)) for n in fast_names]
    ypw = [y + wi for y, wi in zip(ystar, w)]
    mu = RFMatrix(ctx, [[v] for v in ypw])
    mu_vec = (R @ mu).col(0)
    P_rows = []
    fast_pos = {n: k for k, n in enumerate(fast_names)}
    for name in sys.states:
        if name in fast_pos:
            P_rows.append(G.row(fast_pos[name]))
        else:
            P_rows.append([RationalFunction.of(ctx.zero())] * s1)
    P = RFMatrix(ctx, P_rows)
    dec = Decomposition(
        ctx,
        tuple(sys.states),
        P,
        mu_vec,
        "nonstandard",
        rank_data=(s1, G, R, w),
    )
    return dec


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

    ``reduce_model`` also fills ``scaled`` (the scaled full system),
    ``initial_values`` (the reduced initial value in the limit eps -> 0) and
    ``errors`` (stage name -> why an optional stage produced nothing);
    ``reduce_extras`` fills the transported integrals and eliminated forms.
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

    def row(self, name: str) -> RationalFunction:
        return self.field[self.states.index(name)]


def reduce_with(dec: Decomposition, h1: Sequence[Polynomial]) -> ReducedSystem:
    """q = h1 - P*gamma with (Dmu P) gamma = Dmu h1; equals Q*h1 without forming Q."""
    h1_rf = [RationalFunction.coerce(dec.ctx, p) for p in h1]
    pg = dec.P.mul_vector(first_order_correction(dec, h1_rf))
    q = [a - b for a, b in zip(h1_rf, pg)]
    return ReducedSystem(dec.states, q, dec.manifold(), dec)


def standard_reduce(sys: GradedSystem, part: Partition) -> ReducedSystem:
    """Classical elimination of the fast block for a fully consistent system.

    Returns the r-dimensional slow field
    f1(x,0) - F0(x,0) G0(x,0)^(-1) g1(x,0) together with the first-order
    manifold data y* = -G0(x,0)^(-1) g1(x,0), and the standard decomposition
    whose P supplies F0 and G0.  Refuses (StandardCaseError) when G0(x,0) is
    singular.
    """
    dec = standard_decomposition(sys, part)
    ctx = sys.ctx
    h1 = sys.grade(1)
    fast = list(part.fast)
    at_zero = {n: 0 for n in fast}
    M = dec.P
    F0 = RFMatrix(ctx, [
        [M.entries[sys.state_index(x)][j].subs(at_zero) for j in range(len(fast))]
        for x in part.slow
    ])
    G0 = RFMatrix(ctx, [
        [M.entries[sys.state_index(y)][j].subs(at_zero) for j in range(len(fast))]
        for y in part.fast
    ])
    f1 = [RationalFunction.of(h1[sys.state_index(x)].subs(at_zero)) for x in part.slow]
    g1 = [RationalFunction.of(h1[sys.state_index(y)].subs(at_zero)) for y in part.fast]
    # one elimination of [G0 | g1]: no unique solution means G0 is singular
    U = solve_matrix(G0, RFMatrix.column(ctx, g1))
    if isinstance(U, NoSolution):
        raise StandardCaseError(
            "G0(x,0) is singular; the scaling needs the rank-deficient (nonstandard) route"
        )
    u = U.col(0)
    corr = F0.mul_vector(u)
    reduced = [a - b for a, b in zip(f1, corr)]
    # first-order manifold: y*_j = -(G0^-1 g1)_j
    qss = [-(ui) for ui in u]
    manifold_eqs = tuple(
        RationalFunction.of(ctx.sym(n)) - expr for n, expr in zip(part.fast, qss)
    )
    red = ReducedSystem(tuple(part.slow), reduced, CriticalManifold(manifold_eqs, part.r), dec)
    red.eliminated = EliminatedForm(
        [(n, expr) for n, expr in zip(part.fast, qss)], tuple(part.slow), reduced
    )
    return red


def nonstandard_reduce(
    scaled: ScaledSystem, sample: Mapping[str, Fraction], seed: int = 0
) -> ReducedSystem:
    dec = nonstandard_decomposition(scaled, sample, seed=seed)
    return reduce_with(dec, scaled.system.grade(1))


# ---------------------------------------------------------------------------
# Slow manifold, first order
# ---------------------------------------------------------------------------


def slow_manifold_first_order(dec: Decomposition, h1: Sequence[Polynomial]) -> list[RationalFunction]:
    """Defining equations mu + eps*(Dmu P)^(-1) Dmu h1 of the first-order manifold."""
    eps = RationalFunction.of(dec.ctx.sym(dec.ctx.eps.name))
    return [m + eps * p for m, p in zip(dec.mu, first_order_correction(dec, h1))]


def first_order_correction(dec: Decomposition, h1: Sequence[Polynomial]) -> list[RationalFunction]:
    """The order-eps coefficient Psi0 of the first-order manifold equations.

    Psi0 solves (Dmu P) Psi0 = Dmu h1; it is also the gamma of ``reduce_with``.
    """
    h1_rf = [RationalFunction.coerce(dec.ctx, p) for p in h1]
    psi = solve_matrix(dec.dmup(), RFMatrix.column(dec.ctx, dec.dmu().mul_vector(h1_rf)))
    if isinstance(psi, NoSolution):
        raise ReductionError("Dmu*P is singular over the rational-function field")
    return psi.col(0)


# ---------------------------------------------------------------------------
# Eigenvalue certificates
# ---------------------------------------------------------------------------


@dataclass
class EigenSample:
    point: dict[str, Fraction]
    max_real_part: float
    hurwitz_ok: "bool | None"


@dataclass
class EigenCertificate:
    matrix: RFMatrix
    verdict: str  # pass | fail | indeterminate
    nu_margin: float
    samples: list[EigenSample]
    method: str
    rejected: int = 0

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "nu_margin": self.nu_margin,
            "method": self.method,
            "rejected_samples": self.rejected,
            "samples": [
                {
                    "point": {k: str(v) for k, v in s.point.items()},
                    "max_real_part": s.max_real_part,
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
    the dependent ones from ``solved``, the manifold relations as returned by
    :func:`solve_equations_linear` (None: no relations).  Each sample is
    checked to satisfy the manifold equations exactly; the verdict is "pass"
    only if every sample has eigenvalues with real part at most -NU_MIN and
    the exact sign test agrees.
    """
    ctx = dec.ctx
    M = dec.dmup()
    # each point with its values by symbol index, converted once
    points: list[tuple[dict[str, Fraction], list]] = []
    rejected = 0
    if sample_points is not None:
        for p in sample_points:
            vals = ctx.point_values(p)
            if _on_manifold(dec.mu, vals):
                points.append((dict(p), vals))
        rejected = len(sample_points) - len(points)
    else:
        rng = random.Random(seed)
        tries = 0
        while len(points) < n_samples and tries < 50 * n_samples:
            tries += 1
            pt = default_sample(ctx, seed=rng.randint(0, 10**9))
            vals = ctx.point_values(pt)
            if solved is not None:
                try:
                    for name, expr in solved:
                        pt[name] = vals[ctx.index[name]] = expr.eval_at(vals)
                except ZeroDivisionError:
                    continue
            if _on_manifold(dec.mu, vals):
                points.append((pt, vals))
    samples: list[EigenSample] = []
    for pt, vals in points:
        try:
            exact = M.eval_at(vals)
        except ZeroDivisionError:
            rejected += 1
            continue
        numeric = [[float(v) for v in row] for row in exact]
        mrp = max_real_part(numeric)
        # exact sign test on the sample's characteristic polynomial
        hw = is_hurwitz_stable(_fraction_char_poly(exact))
        samples.append(EigenSample(pt, mrp, hw))
    if not samples:
        return EigenCertificate(M, "indeterminate", float("nan"), [], "no admissible samples", rejected)
    worst = max(s.max_real_part for s in samples)
    margin = -worst
    ok = worst <= -NU_MIN and all(s.hurwitz_ok is not False for s in samples)
    verdict = "pass" if ok else "fail"
    return EigenCertificate(M, verdict, margin, samples, "routh_hurwitz_exact+numeric", rejected)


def _on_manifold(mu: Sequence[RationalFunction], vals: Sequence) -> bool:
    """Every manifold equation vanishes exactly at the point (and is defined there).

    ``vals`` are the point's values from :meth:`Context.point_values`.
    """
    try:
        return all(m.eval_at(vals) == 0 for m in mu)
    except ZeroDivisionError:
        return False


# ---------------------------------------------------------------------------
# Sequential linear elimination (manifold solving, eliminated forms)
# ---------------------------------------------------------------------------


def _fraction_char_poly(m: list[list[Fraction]]) -> list[Fraction]:
    """Monic characteristic polynomial [1, c1, ..., cn] of an exact numeric matrix.

    Division-free, after Berkowitz (1984), on integers.  m is cleared once to
    B = D*m, D the lcm of its denominators.  Bordering the leading block B_k
    with column c, row r and corner a multiplies the coefficient vector of its
    characteristic polynomial by the lower triangular Toeplitz matrix with
    first column (1, -a, -r c, -r B_k c, ..., -r B_k^(k-1) c).  That is
    O(n^4) integer products, less those with a zero entry of B, which are
    skipped.  B's coefficients are D^k c_k.
    """
    n = len(m)
    if not n:
        return [1]
    fracs = [v for row in m for v in row if v.__class__ is not int]
    d = lcm(*[v.denominator for v in fracs]) if fracs else 1
    b = [[v.numerator * (d // v.denominator) for v in row] for row in m] if fracs else m
    a = b[0][0]
    p = [1, -a]
    # cols[i], vals[i]: the nonzero entries of row i of the leading block B_k
    cols = [[0] if a else []]
    vals = [[a] if a else []]
    for k in range(1, n):
        bk = b[k]
        a = bk[k]
        rc = [j for j in range(k) if bk[j]]
        c = [b[i][k] for i in range(k)]
        if rc and any(c):
            rv = [bk[j] for j in rc]
            q = [1, -a]
            v = c
            for t in range(k):
                q.append(-sum(map(mul, rv, map(v.__getitem__, rc))))
                if t < k - 1:
                    get = v.__getitem__
                    v = [sum(map(mul, vi, map(get, ci))) for ci, vi in zip(cols, vals)]
            rq = q[::-1]
            p = [sum(map(mul, rq[k + 1 - i:], p)) for i in range(k + 2)]
        else:
            # r B_k^t c = 0 for every t: p times (x - a)
            p = [x - a * y for x, y in zip(p + [0], [0] + p)]
        if k + 1 < n:
            for i in range(k):
                if c[i]:
                    cols[i].append(k)
                    vals[i].append(c[i])
            if a:
                rc.append(k)
            cols.append(rc)
            vals.append([bk[j] for j in rc])
    if d == 1:
        return p
    out, dk = [1], 1
    for x in p[1:]:
        dk *= d
        out.append(Fraction(x, dk) if x % dk else x // dk)
    return out


def solve_equations_linear(
    equations: Sequence[RationalFunction],
    unknowns: Sequence[str],
    allow_underdetermined: bool = False,
) -> "list[tuple[str, RationalFunction]] | None":
    """Solve equations = 0 for the unknowns by sequential linear elimination.

    Picks, at each step, an equation that is degree-one in some remaining
    unknown (preferring coefficients free of unknowns), solves and substitutes.
    Returns the solved assignments in dependency-free order (later entries
    already substituted into earlier ones), or None if stuck or inconsistent.
    """
    if not equations:
        return []
    ctx = equations[0].ctx
    remaining = [RationalFunction.coerce(ctx, e) for e in equations]
    todo = list(unknowns)
    solved: list[tuple[str, RationalFunction]] = []
    progress = True
    while remaining and todo and progress:
        progress = False
        best: "tuple[tuple, int, str, RationalFunction] | None" = None
        for idx, eq in enumerate(remaining):
            num = eq.num
            if num.is_zero():
                continue
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
        new_remaining = []
        for eq in remaining:
            try:
                new_remaining.append(eq.subs({u: sol}))
            except ZeroDivisionError:
                return None
        remaining = [e for e in new_remaining if not e.is_zero()]
        progress = True
    if remaining:
        # leftover equations must be identically zero for a consistent solve
        if not allow_underdetermined or any(not e.is_zero() for e in remaining):
            return None
    # back-substitute later solutions into earlier expressions; factors worth
    # cancelling come from solution and input-equation denominators
    candidates = [e.den for _, e in solved if not e.den.is_one()]
    candidates += [
        RationalFunction.coerce(ctx, e).den
        for e in equations
        if not RationalFunction.coerce(ctx, e).den.is_one()
    ]
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
    red: ReducedSystem,
    extra_relations: Sequence[RationalFunction] = (),
    unknowns: "Sequence[str] | None" = None,
) -> EliminatedForm:
    """Substitute solved manifold (and conservation) relations into the field.

    Unknowns default to every state appearing in the manifold equations; the
    relations are solved sequentially (linear steps only) and substituted into
    the rows of the remaining states.
    """
    eqs = list(red.manifold.equations) + list(extra_relations)
    if unknowns is None:
        used: set[str] = set()
        for e in eqs:
            used |= set(e.num.symbols_used()) | set(e.den.symbols_used())
        unknowns = [n for n in red.states if n in used]
    solved = solve_equations_linear(eqs, unknowns, allow_underdetermined=True)
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


def lie_derivative(phi: RationalFunction, field_rows: Sequence[RationalFunction], states: Sequence[str]) -> RationalFunction:
    acc = RationalFunction.of(phi.ctx.zero())
    for n, f in zip(states, field_rows):
        acc = acc + phi.diff(n) * f
    return acc


def transform_first_integral(
    phi: RationalFunction, sys: GradedSystem, scaled: ScaledSystem
) -> TransportedIntegral:
    """Carry a first integral of the unscaled system through the scaling.

    Verifies the Lie derivative vanishes identically (grade by grade, eps
    formal), substitutes y = eps*y_star, and returns the lowest nonvanishing
    eps-coefficient with its order.
    """
    rows = sys.flatten_rf()
    lie = lie_derivative(phi, rows, sys.states)
    if not lie.is_zero():
        raise ReductionError(
            f"not a first integral; Lie derivative residue: {lie.render()}"
        )
    sctx = scaled.system.ctx
    eps = sctx.sym(sctx.eps.name)
    images = {n: eps * sctx.sym(star_name(n)) for n in scaled.partition.fast}
    num, den = (substitute(q, sctx, images)[0] for q in (phi.num, phi.den))
    order, lead = RationalFunction(num, den).eps_expansion()
    return TransportedIntegral(order, lead)


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
    point = scaled_initial_symbolic(scaled)
    return ti.rf.subs(point)


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
) -> dict[str, RationalFunction]:
    """Intersect the manifold with the integral level sets through z0.

    The intersection is solved exactly, by sequential linear elimination, or
    refused with ReductionError; there is no numeric fallback.  The number of
    independent integrals plus the manifold codimension should equal the state
    count; surplus equations must vanish on the solution.
    """
    if not integrals and not manifold_eqs:
        raise ReductionError("nothing to intersect")
    ctx = (list(integrals) + list(manifold_eqs))[0].ctx
    point = {n: RationalFunction.coerce(ctx, v) for n, v in z0.items()}
    eqs: list[RationalFunction] = []
    for psi in integrals:
        eqs.append(psi - psi.subs(point))
    eqs.extend(manifold_eqs)
    solved = solve_equations_linear(eqs, list(states))
    if solved is not None:
        out = {n: e for n, e in solved}
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


def reduce_model(
    system: GradedSystem, fast: Sequence[str], mode: str = "auto", seed: int = 0
) -> ReducedSystem:
    """Consistency check, route choice, reduction and reduced initial value.

    ``mode`` "auto" takes the standard route (mu = fast variables) when the
    fast-block matrix G0(x,0) is invertible and the rank-deficient route on
    the scaled system otherwise; "standard" and "nonstandard" force one
    route.  Raises InconsistentScalingError when the partition is not fully
    consistent, and ReductionError when the chosen route is refused.  A
    failed reduced initial value is recorded in ``errors["initial_value"]``.
    """
    if mode not in ("auto", "standard", "nonstandard"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    part = Partition.from_fast(system, fast)
    red = None
    if mode == "nonstandard":
        _require_full_ltc(system, part)
    else:
        # standard_decomposition checks consistency on this route
        try:
            red = standard_reduce(system, part)
        except StandardCaseError:
            if mode == "standard":
                raise
    scaled = apply_scaling(system, part)
    if red is None:
        ssample = default_sample(scaled.system.ctx, seed=seed)
        red = nonstandard_reduce(scaled, ssample, seed=seed)
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
    the manifold codimension together number the states.
    """
    dec, scaled = red.decomposition, red.scaled
    if dec.mode == "standard":
        return _initial_limit(scaled.system, red.states)
    integrals = fast_linear_integrals(scaled.system)
    if len(integrals) + dec.r != dec.n:
        raise ReductionError(
            f"{len(integrals)} linear first integrals of the fast flow and {dec.r} manifold "
            f"equations do not fix one point among {dec.n} states"
        )
    z0 = scaled_initial_symbolic(scaled)
    sol = reduced_initial_value(integrals, list(dec.mu), z0, list(dec.states))
    return {n: sol[n] for n in dec.states}


def reduce_extras(
    red: ReducedSystem, system: GradedSystem, n_samples: int = 25, seed: int = 0
) -> EigenCertificate:
    """Report-only stages on a ``reduce_model`` result; returns the certificate.

    On the nonstandard route, fills the transported linear first integrals of
    ``system`` (the unscaled model) and the eliminated forms: the manifold
    solved for the scaled fast variables and, when that leaves some of them,
    the form with the conservation levels added.  A failed elimination is
    recorded in ``errors["elimination"]``.
    """
    scaled = red.scaled
    dec = red.decomposition
    if dec.mode == "standard":
        # the manifold is y = 0
        solved = solve_equations_linear(
            list(dec.mu), list(scaled.partition.fast), allow_underdetermined=True
        )
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
        try:
            red.eliminated = eliminate_on_manifold(red, [], fast)
            if extra_relations and any(n in red.eliminated.states for n in fast):
                conserved = eliminate_on_manifold(red, extra_relations, fast)
                if len(conserved.states) < len(red.eliminated.states):
                    red.eliminated_conserved = conserved
        except ReductionError as exc:
            red.errors["elimination"] = str(exc)
        solved = red.eliminated.solved if red.eliminated is not None else None
    return eigen_certificate(dec, n_samples=n_samples, seed=seed, solved=solved)
