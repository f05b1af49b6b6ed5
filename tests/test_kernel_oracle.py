"""Differential test of the exact kernel against sympy (a test-only oracle).

Random polynomials in two to four symbols go through tfred's products, sums,
differences, exact division, substitution and linear solves, and every result
is compared with sympy's ``expand`` / ``cancel`` on the same input.  The
certificate's integer characteristic polynomials of transport_binding(8) are
compared with sympy's ``DomainMatrix.charpoly`` over QQ, cleared to integers.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from tfred import reduction  # noqa: E402
from tfred.builtin_models import transport_binding  # noqa: E402
from tfred.matrices import NoSolution, RFMatrix, linear_solve, solve_matrix  # noqa: E402
from tfred.rational import Context, Polynomial, RationalFunction  # noqa: E402

NAMES = ["x", "y", "a", "b"]
CTX = Context(["x", "y"], ["a", "b"])
SYMS = {n: sympy.Symbol(n) for n in NAMES + ["eps"]}

coeffs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def polys(draw, max_terms=5, max_deg=3):
    """A polynomial over 2-4 of the context's symbols."""
    used = draw(st.integers(2, 4))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = [draw(st.integers(0, max_deg)) if i < used else 0 for i in range(CTX.nvars)]
        terms[tuple(expo)] = Fraction(draw(coeffs))
    return Polynomial(CTX, terms)


def nonzero_polys(**kw):
    return polys(**kw).filter(lambda p: not p.is_zero())


def to_sympy(v):
    if isinstance(v, RationalFunction):
        return to_sympy(v.num) / to_sympy(v.den)
    total = sympy.Integer(0)
    for e, c in v.monomials().items():
        c = Fraction(c)
        mono = sympy.Rational(c.numerator, c.denominator)
        for sym, k in zip(v.ctx.symbols, e):
            mono *= sympy.Symbol(sym.name) ** k
        total += mono
    return total


def same(v, expr) -> bool:
    return sympy.cancel(to_sympy(v) - expr) == 0


def poly_equals(p: Polynomial, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


FAST = settings(max_examples=60, deadline=None)


@FAST
@given(polys(), polys())
def test_ring_operations_match_sympy(p, q):
    sp, sq = to_sympy(p), to_sympy(q)
    assert poly_equals(p * q, sp * sq)
    assert poly_equals(p + q, sp + sq)
    assert poly_equals(p - q, sp - sq)
    assert poly_equals(p ** 2, sp ** 2)


@FAST
@given(polys(), nonzero_polys(max_terms=3, max_deg=2))
def test_exact_divide_recovers_the_cofactor(p, d):
    q = (p * d).exact_divide(d)
    assert q is not None
    assert poly_equals(q, to_sympy(p))


@FAST
@given(nonzero_polys(), nonzero_polys(max_terms=3, max_deg=2))
def test_exact_divide_is_none_exactly_when_sympy_leaves_a_remainder(p, d):
    gens = [SYMS[n] for n in NAMES]
    _, rem = sympy.div(to_sympy(p), to_sympy(d), *gens, domain="QQ")
    q = p.exact_divide(d)
    if rem == 0:
        assert q is not None and poly_equals(q * d, to_sympy(p))
    else:
        assert q is None


@FAST
@given(polys(), polys(max_terms=3, max_deg=2), polys(max_terms=3, max_deg=2))
def test_subs_matches_sympy(p, u, v):
    got = p.subs({"x": u, "a": v})
    want = to_sympy(p).subs({SYMS["x"]: to_sympy(u), SYMS["a"]: to_sympy(v)}, simultaneous=True)
    assert poly_equals(got, sympy.expand(want))


@FAST
@given(polys(max_deg=2), polys(max_terms=3, max_deg=2), nonzero_polys(max_terms=3, max_deg=1))
def test_subs_rf_matches_sympy(p, u, d):
    r = RationalFunction(u, d)
    got = p.subs_rf({"y": r, "b": 3})
    want = to_sympy(p).subs({SYMS["y"]: to_sympy(r), SYMS["b"]: 3}, simultaneous=True)
    assert same(got, want)


@FAST
@given(
    polys(max_deg=2),
    polys(max_terms=3, max_deg=2),
    polys(max_terms=3, max_deg=2),
    nonzero_polys(max_terms=3, max_deg=1),
    nonzero_polys(max_terms=2, max_deg=1),
    st.booleans(),
)
def test_subs_rf_over_grouped_denominators_matches_sympy(p, u, v, d, f, nested):
    """Two images over one shared denominator d, or over d and d*f (d divides d*f)."""
    r = RationalFunction(u, d)
    s = RationalFunction(v, d * f if nested else d)
    got = p.subs_rf({"x": r, "a": s})
    want = to_sympy(p).subs({SYMS["x"]: to_sympy(r), SYMS["a"]: to_sympy(s)}, simultaneous=True)
    assert same(got, want)


def _matrix(entries, n):
    return [entries[i * n:(i + 1) * n] for i in range(n)]


def cramer(M: RFMatrix, rhs) -> "list | None":
    """x of M x = rhs by Cramer's rule over sympy's fraction field; None if M is singular."""
    n = M.cols
    A = DomainMatrix.from_Matrix(sympy.Matrix(
        [[to_sympy(v) for v in row] + [to_sympy(b)] for row, b in zip(M.entries, rhs)]
    )).to_field()
    det = A[:, :n].det()
    if not det:
        return None
    cols = [A[:, j] for j in range(n + 1)]
    dets = [DomainMatrix.hstack(*(cols[n] if j == i else cols[j] for j in range(n))).det() for i in range(n)]
    return [A.domain.to_sympy(d / det) for d in dets]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(polys(max_terms=2, max_deg=1), min_size=n * n, max_size=n * n),
        st.lists(polys(max_terms=2, max_deg=1), min_size=n, max_size=n),
    )
))
def test_solves_match_sympy(case):
    n, entries, rhs = case
    M = RFMatrix(CTX, _matrix(entries, n))
    X = solve_matrix(M, RFMatrix.column(CTX, rhs))
    want = cramer(M, rhs)
    if want is None:
        assert isinstance(X, NoSolution)
        return
    assert not isinstance(X, NoSolution)
    x = linear_solve(M, rhs)
    for i in range(n):
        assert same(X[i, 0], want[i])
        assert same(x[i], want[i])


def test_certificate_char_polys_of_transport_binding_8_match_sympy(monkeypatch):
    # n = 15: too large for the O(n^4) Fraction oracle of test_exact_kernel
    spec = transport_binding(8)
    red = reduction.reduce_model(spec.system, list(spec.fast))
    char_poly = reduction._fraction_char_poly
    seen = []

    def recording(m):
        seen.append([row[:] for row in m])
        return char_poly(m)

    monkeypatch.setattr(reduction, "_fraction_char_poly", recording)
    cert = reduction.reduce_extras(red, spec.system)
    assert cert.verdict == "pass"
    assert len(seen) == 25 and {len(m) for m in seen} == {15}
    QQ = sympy.QQ
    for m in seen:
        A = DomainMatrix([[QQ(v.numerator, v.denominator) for v in row] for row in m], (15, 15), QQ)
        # the contract: d^k c_k for the lcm d of m's denominators, all ints
        d = lcm(*[v.denominator for row in m for v in row])
        want = [Fraction(int(c.numerator), int(c.denominator)) * d**k for k, c in enumerate(A.charpoly())]
        got = char_poly(m)
        assert got == want and all(type(c) is int for c in got)
