"""Polynomial and rational-function arithmetic: exactness, canonical form, calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfred.rational import Context, SubstitutionError, SymbolicError, substitute


@pytest.fixture
def mm():
    return Context(["s", "e", "c"], ["k1", "km1", "k2"])


def test_construction_drops_zero_coefficients(mm):
    p = mm.parse_poly("s + e - s - e")
    assert p.is_zero()
    assert p.terms == {}


def test_equality_is_representation_independent(mm):
    a = mm.parse_poly("(s + e)^2")
    b = mm.parse_poly("s^2 + 2*s*e + e^2")
    assert a == b
    assert hash(a) == hash(b)


def test_derivative_monomial_power_rule(mm):
    p = mm.parse_poly("k1*e*s")
    assert p.diff("s") == mm.parse_poly("k1*e")


def test_derivative_mm_complex_row(mm):
    # d/dc of the complex equation right-hand side
    p = mm.parse_poly("k1*e*s - (km1 + k2)*c")
    assert p.diff("c") == mm.parse_poly("-(km1 + k2)")


def test_derivative_quotient_rule(mm):
    rf = mm.parse("1/s")
    assert rf.diff("s") == mm.parse("-1/s^2")


def test_substitute_scaling(mm):
    # e -> eps*e, c -> eps*c pulls out one factor of eps
    p = mm.parse_poly("k1*e*s - km1*c")
    scaled = p.subs({"e": mm.parse_poly("eps*e"), "c": mm.parse_poly("eps*c")})
    assert scaled == mm.parse_poly("eps*(k1*e*s - km1*c)")


def test_substitute_identity_and_zero(mm):
    p = mm.parse_poly("s^2 + e*c")
    assert p.subs({"s": mm.sym("s")}) == p
    assert mm.parse_poly("s + e").subs({"e": 0}) == mm.sym("s")
    assert mm.parse("(s + e)/c").subs({"s": mm.parse("c")}) == mm.parse("(c + e)/c")


def test_substitution_keeps_one_common_denominator(mm):
    # b*s^2 + s with s -> e/b is (b*e^2 + b*e)/b^2 over the common denominator;
    # trial division by b leaves (e^2 + e)/b
    b = mm.parse_poly("k1 + k2")
    p = b * mm.sym("s") ** 2 + mm.sym("s")
    image = mm.sym("e") / b
    num, den = substitute(p, mm, {"s": image})
    assert (num.terms, den.terms) == (mm.parse_poly("e^2 + e").terms, b.terms)
    got = p.subs_rf({"s": image})
    assert (got.num.terms, got.den.terms) == (num.terms, den.terms)


def test_substitute_into_another_context(mm):
    # s is replaced, every other symbol keeps its name in the target context
    small = Context(["e", "c"], ["k1", "km1", "k2"])
    p = mm.parse_poly("k1*s*e - km1*c")
    num, den = substitute(p, small, {"s": small.parse("c/(k1 + k2)")})
    assert num / den == small.parse("(k1*c*e - km1*c*(k1 + k2))/(k1 + k2)")
    with pytest.raises(SymbolicError):
        substitute(p, small, {"e": small.sym("c")})
    with pytest.raises(SymbolicError):
        substitute(p, small, {"s": mm.sym("e")})


def test_substitution_reports_vanishing_denominator(mm):
    rf = mm.parse("1 / (s - e)")
    with pytest.raises(SubstitutionError) as err:
        rf.subs({"s": mm.sym("e")})
    assert "s" in str(err.value)


def test_rational_equality_cross_multiplication(mm):
    a = mm.parse("s^2 / s")
    b = mm.parse("s")
    assert a == b
    c = mm.parse("(s^2 - e^2) / (s - e)")
    d = mm.parse("s + e")
    assert c == d


def test_rational_equality_matches_random_evaluation(mm):
    rng = random.Random(7)
    exprs = [
        mm.parse("(s + e) / (s * e)"),
        mm.parse("1/s + 1/e"),
        mm.parse("(k1*s + km1) / (k1*s + km1 + k2)"),
        mm.parse("1 - k2 / (k1*s + km1 + k2)"),
    ]
    pairs = [(exprs[0], exprs[1]), (exprs[2], exprs[3])]
    for a, b in pairs:
        assert a == b
        for _ in range(10):
            pt = {
                name: Fraction(rng.randint(1, 40), rng.randint(1, 17))
                for name in ("s", "e", "c", "k1", "km1", "k2", "eps")
            }
            assert a.eval(pt) == b.eval(pt)


def test_inequality_detected(mm):
    assert mm.parse("s/e") != mm.parse("e/s")


def test_canonical_rendering_graded_lex(mm):
    p = mm.parse_poly("c + s^2*e - 3*s + 1/2*c^2")
    assert p.render() == "s^2*e + 1/2*c^2 - 3*s + c"


def test_rendering_roundtrip_through_parser(mm):
    p = mm.parse_poly("k1*e*s - (km1 + k2)*c + 5/3*s^2")
    assert mm.parse_poly(p.render()) == p


def test_exact_divide(mm):
    a = mm.parse_poly("(s + e)*(k1*s - k2*c)")
    q = a.exact_divide(mm.parse_poly("s + e"))
    assert q == mm.parse_poly("k1*s - k2*c")
    assert a.exact_divide(mm.parse_poly("s + c")) is None


def test_eps_coefficients(mm):
    p = mm.parse_poly("s + eps*(e + c) + eps^2*k1")
    parts = p.eps_coefficients()
    assert parts[0] == mm.sym("s")
    assert parts[1] == mm.parse_poly("e + c")
    assert parts[2] == mm.sym("k1")
    assert all(q.eps_free() for q in parts.values())


def test_power_and_constant_folding(mm):
    p = mm.parse_poly("2") ** 3
    assert p.constant_value() == 8
    assert (mm.sym("s") ** 0).is_one()


names = st.sampled_from(["s", "e", "c", "k1", "km1", "k2"])


@st.composite
def polys(draw):
    ctx = polys.ctx
    n_terms = draw(st.integers(min_value=0, max_value=5))
    p = ctx.zero()
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        term = ctx.const(coeff)
        for _ in range(draw(st.integers(0, 3))):
            term = term * ctx.sym(draw(names))
        p = p + term
    return p


polys.ctx = Context(["s", "e", "c"], ["k1", "km1", "k2"])


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_derivative_is_linear(p, q):
    for n in ("s", "e", "k1"):
        assert (p + q).diff(n) == p.diff(n) + q.diff(n)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_substitution_is_multiplicative(p, q):
    ctx = polys.ctx
    sigma = {"s": ctx.parse_poly("e + 1"), "c": ctx.parse_poly("k1*s")}
    assert (p * q).subs(sigma) == p.subs(sigma) * q.subs(sigma)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_product_rule(p, q):
    lhs = (p * q).diff("s")
    rhs = p.diff("s") * q + p * q.diff("s")
    assert lhs == rhs
