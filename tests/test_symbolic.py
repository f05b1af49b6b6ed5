"""Polynomial and rational-function arithmetic: exactness, canonical form, calculus."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfred.rational import (
    MAX_NESTING,
    MAX_POWER_TERMS,
    Context,
    Polynomial,
    RationalFunction,
    SubstitutionError,
    SymbolicError,
    _Parser,
    substitute,
)


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


def test_an_unused_image_denominator_still_cancels():
    # y does not occur, but its image's denominator a + 1 is a factor of p
    # and of x's image denominator: it stays a candidate for the division
    ctx = Context(["x", "y"], ["a", "b"])
    p = ctx.parse_poly("(a + 1)*(a + 2)*x")
    got = p.subs_rf({"x": ctx.parse("1/((a + 1)*(b + 1))"), "y": ctx.parse("1/(a + 1)")})
    assert got.render() == "(a + 2) / (b + 1)"


def test_substitution_of_symbols_that_do_not_occur_returns_the_terms_in_order(mm):
    # terms inserted out of graded-lex order, a Fraction coefficient, and
    # images with denominators: the result is p itself over 1
    p = Polynomial(mm, {(0, 1, 0, 0, 0, 0, 0): 2, (0, 0, 0, 1, 0, 0, 0): Fraction(-1, 3), (0, 1, 1, 0, 0, 0, 1): 1})
    images = {"s": mm.parse("e/(k1 + k2)"), "km1": mm.parse("c/(k1*k2)"), "k2": 0}
    num, den = substitute(p, mm, images)
    assert list(num.terms.items()) == list(p.terms.items())
    assert den.is_one()
    got = p.subs_rf(images)
    assert list(got.num.terms.items()) == list(p.terms.items()) and got.den.is_one()
    assert list(mm.parse("(e + 1)/(k1 + 2)").subs(images).num.terms) == list(mm.parse_poly("e + 1").terms)


def test_substitution_into_another_context_checks_every_unbound_symbol(mm):
    # s does not occur in p: binding it is enough for the target without s,
    # and leaving it unbound is refused, as when it occurs
    small = Context(["e", "c"], ["k1", "km1", "k2"])
    p = mm.parse_poly("k1*e - km1*c")
    num, den = substitute(p, small, {"s": small.sym("c")})
    assert (list(num.terms.items()), den.is_one()) == (list(small.parse_poly("k1*e - km1*c").terms.items()), True)
    with pytest.raises(SymbolicError, match="^symbol s missing from the target context$"):
        substitute(p, small, {"e": small.sym("c")})
    with pytest.raises(SymbolicError, match="^symbol s missing from the target context$"):
        substitute(p, small, {})


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


def test_only_the_zero_polynomial_is_falsy(mm):
    assert not mm.zero()
    assert not mm.parse_poly("s - s")
    assert mm.one() and mm.const(Fraction(-1, 2)) and mm.parse_poly("s - e")
    assert [bool(p) for p in (mm.zero(), mm.sym("s"), mm.zero() * mm.sym("s"))] == [False, True, False]
    assert any([mm.zero(), mm.sym("c")]) and not any([mm.zero(), mm.const(0)])


def test_reflected_subtraction(mm):
    p = mm.parse_poly("s + 2*e - 1")
    assert 1 - p == mm.parse_poly("2 - s - 2*e")
    assert Fraction(1, 3) - p == mm.const(Fraction(1, 3)) - p
    assert 0 - p == -p
    assert (1 - mm.zero()).is_one()
    assert isinstance(1 - p, Polynomial) and isinstance(0 - mm.zero(), Polynomial)
    with pytest.raises(TypeError):
        "1" - p


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


@settings(max_examples=100, deadline=None)
@given(polys(), st.lists(st.sampled_from(["s", "c", "k1"]), unique=True))
def test_subs_over_a_denominator_of_one_equals_the_quotient_of_both_substitutions(p, names):
    # RationalFunction.subs substitutes only the numerator over a denominator
    # of 1: the same terms in the same order as num.subs_rf / den.subs_rf
    ctx = polys.ctx
    images = {"s": ctx.parse("e/(k1 + 1)"), "c": ctx.parse("k1*s/(e + k2)"), "k1": ctx.parse_poly("km1 + 2")}
    bindings = {n: images[n] for n in names}
    rf = RationalFunction.of(p)
    got = rf.subs(bindings)
    want = rf.num.subs_rf(bindings) / rf.den.subs_rf(bindings)
    assert list(got.num.terms.items()) == list(want.num.terms.items())
    assert list(got.den.terms.items()) == list(want.den.terms.items())


# -- grading -----------------------------------------------------------------

# polys.ctx with e renamed in place, as apply_scaling renames a fast state
SCALED = Context(["s", "e_star", "c"], ["k1", "km1", "k2"])


@settings(max_examples=100, deadline=None)
@given(polys(), st.lists(st.sampled_from(["s", "e", "c", "k1"]), unique=True))
def test_the_degree_zero_group_is_the_polynomial_at_zero(p, names):
    groups = p.by_degree(names)
    assert list(groups[0].terms.items()) == list(p.subs({n: 0 for n in names}).terms.items())
    # every term sits in the group of its degree, in term order
    for k, g in enumerate(groups):
        assert list(g.terms.items()) == [
            (e, c) for e, c in p.terms.items() if sum(p.ctx.unpack(e)[p.ctx.index[n]] for n in names) == k
        ]
    assert len(groups) == 1 or groups[-1]


@settings(max_examples=100, deadline=None)
@given(polys())
def test_relabelled_groups_times_eps_powers_are_the_scaling_substitution(p):
    eps = SCALED.sym("eps")
    scaled = substitute(p, SCALED, {"e": eps * SCALED.sym("e_star")})[0]
    groups = p.by_degree(["e"])
    for k, g in enumerate(groups):
        moved = g.relabel(SCALED) * eps**k
        assert list(moved.terms.items()) == [
            (e, c) for e, c in scaled.terms.items() if SCALED.unpack(e)[SCALED.index["eps"]] == k
        ]
    assert sum((g.relabel(SCALED) * eps**k for k, g in enumerate(groups)), SCALED.zero()) == scaled


def test_relabel_keeps_the_terms_and_refuses_a_context_that_does_not_rename_in_place(mm):
    p = mm.parse_poly("k1*e*s - km1*c + 2")
    q = p.relabel(SCALED)
    assert q.ctx is SCALED and list(q.terms.items()) == list(p.terms.items())
    assert q == SCALED.parse_poly("k1*e_star*s - km1*c + 2")
    assert p.relabel(mm) is p
    for other in (
        Context(["s", "e", "c"], ["k1", "km1"]),  # another symbol count
        Context(["s", "e", "c", "x"], ["k1", "km1", "k2"]),
        Context(["s", "e"], ["k1", "km1", "k2", "x"]),  # same count, another kind order
    ):
        with pytest.raises(SymbolicError, match="does not rename"):
            p.relabel(other)


def test_by_degree_of_zero_and_of_no_names(mm):
    assert [g.is_zero() for g in mm.zero().by_degree(["s"])] == [True]
    p = mm.parse_poly("s^2*e + c")
    assert list(p.by_degree([])[0].terms.items()) == list(p.terms.items())
    assert [g.render() for g in p.by_degree(["s", "e"])] == ["c", "0", "0", "s^2*e"]


# -- parser ------------------------------------------------------------------


class RationalParser(_Parser):
    """The expression grammar on RationalFunctions throughout: the reference for ``Context.parse``."""

    def parse(self):
        rf = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return rf

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        total = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term(self):
        total = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            total = total * rhs if op == "*" else total / rhs
        return total

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = self.peek() == "-"
            if neg:
                self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"expected integer exponent, got {tok!r}")
            return base ** (-int(tok) if neg else int(tok))
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if tok.isdigit():
            return RationalFunction.of(self.ctx.const(int(tok)))
        if tok in self.ctx.index:
            return RationalFunction.of(self.ctx.sym(tok))
        raise ValueError(f"unknown symbol {tok!r}")


def expressions(depth):
    """Expression strings: sums, products, quotients, parentheses, unary minus, powers."""
    leaf = st.sampled_from(["s", "e", "c", "k1", "eps", "0", "1", "2", "3", "12"])
    powers = st.sampled_from(["^0", "^1", "^2", "^-1", "^-2"])
    if depth == 0:
        return st.one_of(leaf, st.tuples(leaf, powers).map("".join))
    sub = expressions(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, st.sampled_from([" + ", " - ", "*", "/", " - -", "*-"]), sub).map("".join),
        sub.map(lambda a: f"({a})"),
        sub.map(lambda a: f"-{a}"),
        st.tuples(sub.map(lambda a: f"({a})"), powers).map("".join),
    )


def parsed(parse, text):
    """(num terms, den terms) in term order, or the error's type and message."""
    try:
        rf = parse(text)
    except (ZeroDivisionError, SymbolicError) as exc:
        return type(exc), str(exc)
    return list(rf.num.terms.items()), list(rf.den.terms.items())


@settings(max_examples=300, deadline=None)
@given(expressions(3))
def test_parse_equals_the_rational_function_parser_term_for_term(text):
    ctx = polys.ctx
    want = parsed(lambda t: RationalParser(ctx, t).parse(), text)
    assert parsed(ctx.parse, text) == want
    if isinstance(want[0], list):
        assert ctx.parse(text).__class__ is RationalFunction


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("s e", ValueError, "trailing input at token 'e'"),
        ("s)", ValueError, "trailing input at token ')'"),
        ("(s e", ValueError, "unbalanced parentheses"),
        ("q*s", ValueError, "unknown symbol 'q'"),
        ("s^e", ValueError, "expected integer exponent, got 'e'"),
        ("s^(2)", ValueError, "expected integer exponent, got '('"),
        ("s $ e", ValueError, "unexpected character '$' in expression"),
        ("1.5*s", ValueError, "unexpected character '.' in expression"),
        ("s +", ValueError, "unexpected end of expression"),
        ("(s", ValueError, "unexpected end of expression"),
        ("", ValueError, "unexpected end of expression"),
        ("s/0", ZeroDivisionError, "division by zero rational function"),
        ("s/(e - e)", ZeroDivisionError, "division by zero rational function"),
        ("0^-1", ZeroDivisionError, "rational function with zero denominator"),
        ("(s - s)^-2", ZeroDivisionError, "rational function with zero denominator"),
    ],
)
def test_parse_errors(mm, text, error, message):
    with pytest.raises(error) as info:
        mm.parse(text)
    assert str(info.value) == message


def test_parse_nests_parentheses_up_to_the_bound(mm):
    assert mm.parse("(" * MAX_NESTING + "s" + ")" * MAX_NESTING) == mm.parse("s")
    with pytest.raises(SymbolicError, match=f"^expression nested deeper than {MAX_NESTING} parentheses$"):
        mm.parse("(" * (MAX_NESTING + 1) + "s" + ")" * (MAX_NESTING + 1))


def test_parse_keeps_a_coefficient_up_to_the_print_limit(mm):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("ints print without a digit limit")
    # 2^top has limit digits and 2^(top + 1) has limit + 1 (14284 for 4300)
    top = math.ceil(limit * math.log2(10)) - 1
    assert len(str(2**top)) == limit
    half = top // 2
    for text in (f"2^{half}*2^{top - half}*s", f"s/(2^{half}*2^{top - half}*e + 1)"):
        mm.parse(text)
    for text in (f"2^{half}*2^{top + 1 - half}*s", f"s/(2^{half}*2^{top + 1 - half}*e + 1)",
                 f"(s + 2^{top + 1 - half}*e)*2^{half}"):
        with pytest.raises(SymbolicError, match=f"^a coefficient has more than {limit} digits$"):
            mm.parse(text)


def test_parse_keeps_a_multi_term_power_up_to_the_term_budget():
    ctx = Context(["x", "y"], ["a"])
    # (x + y + 1)^n has C(n + 2, 2) terms: 1953 at n = 61, 2016 at n = 62
    assert len(ctx.parse_poly("(x + y + 1)^61").terms) == 1953 <= MAX_POWER_TERMS
    # the multinomial bound C(102, 2) is past the budget, the degree bound 201 is not
    assert len(ctx.parse_poly("(x^2 + 2*x + 1)^100").terms) == 201
    for text, terms, n in [("(x + y + 1)^62", 3, 62), ("(x + y + 1)^-62", 3, 62), ("(1/(x + y + 1))^62", 3, 62),
                           ("(x + 1)^2000", 2, 2000), ("((x + y + 1)^40)^2", 861, 2)]:
        with pytest.raises(SymbolicError, match=f"^a {terms}-term expression to the power {n} may have more than"):
            ctx.parse(text)


def test_parse_keeps_a_product_up_to_the_term_budget():
    ctx = Context(["x", "y"], ["a"])
    # 40 * 50 terms is the budget itself
    assert len(ctx.parse_poly("(x + 1)^39*(y + 1)^49").terms) == 2000 == MAX_POWER_TERMS
    # 101 * 100 terms is past the budget, the degree bound 200 is not
    assert len(ctx.parse_poly("(x^2 + 2*x + 1)^50*(x + 1)^99").terms) == 200
    # a sum over two denominators of 231 terms each, within the degree bound 41 * 41
    assert len(ctx.parse("1/(x + y + 1)^20 + 1/(x + y + 2)^20").den.terms) == 861
    # a sum over one denominator forms no product
    assert ctx.parse("x/(x + y + 1)^61 + y/(x + y + 1)^61") == ctx.parse("(x + y)/(x + y + 1)^61")
    for text, terms in [("(x + 1)^40*(y + 1)^49", (41, 50)), ("(x + y + 1)^61*(x + y + 1)^61", (1953, 1953)),
                        ("(x + y + 1)^61/(1/(x + y + 1)^61)", (1953, 1953)),
                        ("1/(x + y + 1)^30 - 1/(x + y + 2)^30", (496, 496))]:
        with pytest.raises(SymbolicError, match="^a product of a {}-term and a {}-term expression may have more than".format(*terms)):
            ctx.parse(text)


def test_parse_reads_a_run_of_signs_without_recursion(mm):
    assert mm.parse("s*" + "-" * 3001 + "e") == mm.parse("-s*e")


def test_zero_divisor_is_a_symbolic_error(mm):
    with pytest.raises(SymbolicError):
        mm.parse("1/(s - s)")
