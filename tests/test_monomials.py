"""The packed monomial encoding of the exact kernel, and its exponent limit.

Property tests draw exponent vectors over 1-40 symbols and check the packed
ints against the exponent tuples they stand for: the round trip, graded-lex
order, products, divisibility, the per-field minimum and the moves of kept
exponents in a substitution.  The limit tests check that an exponent above
``EXPONENT_MAX`` is refused with ``SymbolicError`` wherever it can arise,
never carried into a neighbour.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfred.rational import EXPONENT_MAX, Context, Polynomial, SymbolicError, substitute

SETTINGS = settings(max_examples=150, deadline=None)

exponent = st.one_of(st.sampled_from([0, 1, EXPONENT_MAX]), st.integers(0, EXPONENT_MAX))


def context(n: int) -> Context:
    """A context of n symbols: n - 1 states and eps."""
    return Context([f"x{i}" for i in range(n - 1)])


@st.composite
def vectors(draw, count: int):
    """A context and ``count`` exponent vectors over its symbols."""
    n = draw(st.integers(1, 40))
    return context(n), [tuple(draw(st.lists(exponent, min_size=n, max_size=n))) for _ in range(count)]


@SETTINGS
@given(vectors(1))
def test_pack_unpack_round_trip(drawn):
    ctx, (e,) = drawn
    m = ctx.pack(e)
    assert ctx.unpack(m) == e
    assert m >> ctx.dshift == sum(e)
    assert not m & ctx.guard


@SETTINGS
@given(vectors(2))
def test_packed_order_is_graded_lex_order(drawn):
    ctx, (a, b) = drawn
    assert (ctx.pack(a) < ctx.pack(b)) == ((sum(a), a) < (sum(b), b))
    assert (ctx.pack(a) == ctx.pack(b)) == (a == b)


@SETTINGS
@given(vectors(2))
def test_product_adds_exponents_or_refuses_a_carry(drawn):
    ctx, (a, b) = drawn
    s = tuple(map(sum, zip(a, b)))
    product = lambda: Polynomial(ctx, {a: 1}) * Polynomial(ctx, {b: 2})  # noqa: E731
    if max(s) > EXPONENT_MAX:
        with pytest.raises(SymbolicError, match=f"above the limit {EXPONENT_MAX}"):
            product()
    else:
        assert ctx.pack(a) + ctx.pack(b) == ctx.pack(s)
        assert product().monomials() == {s: 2}


@st.composite
def divisor_pairs(draw):
    """(ctx, a, b): b at most a in every field, then maybe one field raised above it."""
    ctx, (a,) = draw(vectors(1))
    b = [draw(st.integers(0, k)) for k in a]
    j = draw(st.integers(0, len(a) - 1))
    if a[j] < EXPONENT_MAX and draw(st.booleans()):
        b[j] = draw(st.integers(a[j] + 1, EXPONENT_MAX))
    return ctx, a, tuple(b)


@SETTINGS
@given(divisor_pairs())
def test_guard_mask_divisibility_is_fieldwise_comparison(drawn):
    ctx, a, b = drawn
    assert ctx.divides(ctx.pack(b), ctx.pack(a)) == all(x >= y for x, y in zip(a, b))
    assert ctx.divides(ctx.pack(a), ctx.pack(b)) == all(x <= y for x, y in zip(a, b))


@SETTINGS
@given(vectors(2), st.integers(1, 5), st.data())
def test_per_field_minimum(drawn, count, data):
    ctx, (a, b) = drawn
    assert ctx.meet(ctx.pack(a), ctx.pack(b)) == ctx.pack(tuple(map(min, a, b)))
    n = len(a)
    rows = data.draw(st.lists(st.lists(exponent, min_size=n, max_size=n).map(tuple), min_size=count, max_size=count))
    content = Polynomial(ctx, {e: 1 for e in rows}).monomial_content()
    assert content == ctx.pack(tuple(map(min, zip(*rows))))


@SETTINGS
@given(vectors(4), st.data())
def test_substitution_moves_kept_exponents_to_their_namesakes(drawn, data):
    # x0 -> 1 (when there is an x0) into a context holding the other states
    # in a drawn order among extra symbols; eps stays last in both
    ctx, rows = drawn
    p = Polynomial(ctx, {e: k + 1 for k, e in enumerate(rows)})
    names = [s.name for s in ctx.symbols]
    bound = {"x0": 1} if len(names) > 1 else {}
    kept = data.draw(st.permutations([n for n in names[:-1] if n not in bound]))
    for extra in ("z0", "z1", "z2"):
        kept.insert(data.draw(st.integers(0, len(kept))), extra)
    target = Context(kept)
    num, den = substitute(p, target, bound)
    expected: dict = {}
    for e, c in p.monomials().items():
        named = dict(zip(names, e))
        t = tuple(named.get(s.name, 0) for s in target.symbols)
        expected[t] = expected.get(t, 0) + c
    assert den.is_one()
    assert list(num.monomials().items()) == list(expected.items())


# -- the exponent limit ----------------------------------------------------------


def test_pack_refuses_an_exponent_outside_the_fields():
    ctx = Context(["x", "y"])
    assert ctx.unpack(ctx.pack((EXPONENT_MAX, 0, 1))) == (EXPONENT_MAX, 0, 1)
    with pytest.raises(SymbolicError, match="exponent 32768 of x is above the limit 32767"):
        ctx.pack((EXPONENT_MAX + 1, 0, 0))
    with pytest.raises(SymbolicError, match="of y is above the limit"):
        Polynomial(ctx, {(0, 40000, 0): 1})


def test_parser_refuses_a_power_above_the_limit():
    ctx = Context(["x", "y"])
    assert ctx.parse_poly("x^32767").degree_in("x") == EXPONENT_MAX
    assert ctx.parse_poly("x^20000*y^20000").total_degree() == 40000
    for text, exponent in [("x^32768", 32768), ("x^40000", 40000), ("(x^2*y)^20000", 40000),
                           ("x^-40000", 40000), ("x^20000*x^20000", 40000), ("(x + y)*x^32767", 32768)]:
        with pytest.raises(SymbolicError, match=f"exponent {exponent} of x is above the limit 32767"):
            ctx.parse(text)


def test_substitution_refuses_a_power_above_the_limit():
    ctx = Context(["x", "y"])
    p = ctx.parse_poly("x^16384*y + 1")
    assert p.subs({"y": ctx.parse_poly("x^16383")}) == ctx.parse_poly("x^32767 + 1")
    with pytest.raises(SymbolicError, match="exponent 36384 of x is above the limit 32767"):
        p.subs({"y": ctx.parse_poly("x^20000")})
