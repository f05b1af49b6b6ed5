"""The integer-first exact kernel: coefficient types, float traps, the O(n^3)
characteristic polynomial against Faddeev-LeVerrier."""

import random
from fractions import Fraction
from math import lcm

import pytest

from tfred import reduction
from tfred.builtin_models import BUILTINS
from tfred.cli import main
from tfred.matrices import fraction_nullspace, fraction_rank, fraction_solve
from tfred.networks import Reaction, ReactionNetwork, compile_network
from tfred.rational import Context, Polynomial, RationalFunction
from tfred.reduction import ReductionError, reduce_extras, reduce_model
from tfred.stability import is_hurwitz_stable
from tfred.systems import InitialValue, eliminate_with_integral

from conftest import flattened


def exact(c) -> bool:
    """An int, or a Fraction that is not integral (never a float, never an integral Fraction)."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def poly_exact(p: Polynomial) -> bool:
    return all(exact(c) for c in p.terms.values())


def rf_exact(v) -> bool:
    if isinstance(v, Polynomial):
        return poly_exact(v)
    return poly_exact(v.num) and poly_exact(v.den)


# -- coefficient types after a whole reduction -----------------------------------


def test_every_reduced_coefficient_is_an_int_or_a_proper_fraction():
    reduced = 0
    for name in sorted(BUILTINS):
        spec = BUILTINS[name]()
        try:
            red = reduce_model(spec.system, spec.fast)
        except ReductionError:
            continue
        reduce_extras(red, spec.system, n_samples=3)
        reduced += 1
        dec = red.decomposition
        values = list(red.field) + list(red.initial_values.values()) + list(dec.mu)
        values += [v for row in dec.P.entries for v in row]
        values += [v for row in dec.projection().entries for v in row]
        for form in (red.eliminated, red.eliminated_conserved):
            if form is not None:
                values += [e for _, e in form.solved] + list(form.field)
        values += [t.rf for t in red.transported_integrals]
        values += [g for grade in red.scaled.system.grades for g in grade]
        bad = [v for v in values if not rf_exact(v)]
        assert not bad, (name, bad[:3])
    assert reduced >= 9


# -- float traps: every division of two ints stays exact ---------------------------


@pytest.fixture
def ctx():
    return Context(["x", "y"], ["k"])


def test_exact_divide_by_a_constant_stays_exact(ctx):
    p = ctx.parse_poly("3*x + 2*y + 6")
    q = p.exact_divide(ctx.const(3))
    assert q.terms == ctx.parse_poly("x + 2/3*y + 2").terms
    assert poly_exact(q)
    assert type(q.monomials()[(1, 0, 0, 0)]) is int


def test_rational_function_normalisation_stays_exact(ctx):
    num, den = ctx.parse_poly("x + 4"), ctx.parse_poly("y + 3")
    rf = RationalFunction(num, den * 2)
    assert rf.den.terms == den.terms
    assert rf.num.monomials() == {(1, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 0): 2}
    assert rf_exact(rf)
    assert rf.eval({"x": 2, "y": 3}) == 1 / Fraction(2)
    assert type(rf.eval({"x": 8, "y": 3})) is int


def test_cancellation_of_an_exact_factor_has_no_size_cap():
    # 12 denominator terms times the ~1000 terms of d*q: far above any cap
    # on the term product, and still cancelled
    big = Context([f"x{i}" for i in range(1, 7)], ["a", "b", "c", "d", "f"])
    d = big.parse_poly("a + b + c + d + f + x1 + x2 + x3 + x4 + x5 + x6 + 1")
    q = big.parse_poly("x1 + x2 + x3 + x4 + x5 + 2") ** 4
    rf = RationalFunction(d * q, d)
    assert rf.num.terms == q.terms
    assert rf.den.is_one()


def test_context_constants_are_ints(ctx):
    assert ctx.one().monomials() == {(0, 0, 0, 0): 1}
    assert type(ctx.one().monomials()[(0, 0, 0, 0)]) is int
    assert type(ctx.sym("k").monomials()[(0, 0, 1, 0)]) is int
    assert type(ctx.const(Fraction(6, 3)).monomials()[(0, 0, 0, 0)]) is int
    assert ctx.const(Fraction(1, 3)).monomials() == {(0, 0, 0, 0): Fraction(1, 3)}
    # products and sums of proper fractions that become integral come back as ints
    half = ctx.const(Fraction(1, 2)) * ctx.sym("x")
    assert type((half * 2).monomials()[(1, 0, 0, 0)]) is int
    assert type((half + half).monomials()[(1, 0, 0, 0)]) is int


def test_eliminate_with_integral_integer_weights_stay_exact():
    net = ReactionNetwork(
        species=["s", "e", "c"],
        reactions=[
            Reaction({"e": 1, "s": 1}, {"c": 1}, "k1"),
            Reaction({"c": 1}, {"e": 1, "s": 1}, "km1"),
        ],
        extra_params=["e0"],
        initial_values={"s": InitialValue(1, 0), "e": InitialValue("e0", 0), "c": InitialValue(0, 0)},
    )
    sys = compile_network(net)
    # 2e + 2c is conserved; eliminating e divides by its weight 2
    out = eliminate_with_integral(sys, {"e": 2, "c": 2}, "e", "e0")
    rows = flattened(out)
    assert all(poly_exact(p) for p in rows)
    want = out.ctx.parse_poly("-k1*s*(1/2*e0 - c) + km1*c")
    assert rows[out.states.index("s")] == want
    assert any(type(c) is Fraction for p in rows for c in p.terms.values())


def test_fraction_kernels_on_int_matrices_stay_exact():
    m = [[2, 4, 1], [1, 3, 0], [3, 7, 1]]
    assert fraction_rank(m) == 2
    (v,) = fraction_nullspace(m)
    assert all(exact(x) for x in v)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    assert v == [Fraction(-3, 2), Fraction(1, 2), 1]
    x = fraction_solve([[2, 0], [0, 4]], [1, 8])
    assert x == [Fraction(1, 2), 2]
    assert all(exact(c) for c in x)
    assert fraction_solve([[1, 1], [1, 1]], [1, 2]) is None


# -- characteristic polynomial ---------------------------------------------------


def faddeev_leverrier(m):
    """The O(n^4) characteristic polynomial this kernel replaced (the oracle)."""
    n = len(m)
    coeffs = [Fraction(1)]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        ck = Fraction(-tr, k)
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = [
                [sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return coeffs


def cleared_faddeev_leverrier(m):
    """The oracle in _fraction_char_poly's form: [1, d*c1, ..., d^n*cn], d the lcm of m's denominators."""
    d = lcm(*[v.denominator for row in m for v in row])
    out = [c * d**k for k, c in enumerate(faddeev_leverrier(m))]
    assert all(c.denominator == 1 for c in out)
    return [c.numerator for c in out]


def _hurwitz_minors(coeffs):
    """Leading principal minors of the Hurwitz matrix of [1, a1, ..., an].

    The minor of order k is (-1)^k times the constant term of its
    Faddeev-LeVerrier polynomial.
    """
    n = len(coeffs) - 1
    H = [[coeffs[t] if 0 <= (t := 2 * j - i + 1) <= n else 0 for j in range(n)] for i in range(n)]
    return [(-1) ** k * faddeev_leverrier([row[:k] for row in H[:k]])[k] for k in range(1, n + 1)]


KINDS = ["dense", "sparse", "zero_column", "block", "hessenberg_gap", "swap", "integer"]


def _random_matrix(rng, n, kind):
    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        # mostly zeros: pivots must be searched for and swapped in
        m = [[v if rng.random() < 0.25 else Fraction(0) for v in row] for row in m]
    elif kind == "zero_column":
        for c in rng.sample(range(n), rng.randint(1, n)):
            for row in m:
                row[c] = Fraction(0)
    elif kind == "block":
        # block upper triangular: a zero lower-left block
        k = rng.randint(1, max(1, n - 1))
        for i in range(k, n):
            for j in range(k):
                m[i][j] = Fraction(0)
    elif kind == "hessenberg_gap":
        # already Hessenberg, with zero subdiagonal entries
        for i in range(n):
            for j in range(i - 1):
                m[i][j] = Fraction(0)
        for i in range(1, n):
            if rng.random() < 0.5:
                m[i][i - 1] = Fraction(0)
    elif kind == "swap":
        # the subdiagonal entry of every column is zero but a lower one is not
        for j in range(n - 2):
            m[j + 1][j] = Fraction(0)
            m[rng.randint(j + 2, n - 1)][j] = entry() or Fraction(1)
    elif kind == "integer":
        m = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    return m


def test_char_poly_agrees_with_faddeev_leverrier():
    # the oracle itself is exact on an int matrix: no float coefficients
    oracle = faddeev_leverrier([[1, 2], [3, 7]])
    assert oracle == [1, -8, 1]
    assert all(type(c) is Fraction for c in oracle)
    # (x - 1/2)(x - 1/3) = x^2 - 5/6 x + 1/6, times 6 and 36
    assert cleared_faddeev_leverrier([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == [1, -5, 6]
    rng = random.Random(17)
    for case in range(500):
        # every size 1..12 ten times, then sizes up to 8 (the oracle is O(n^4))
        n = case % 12 + 1 if case < 120 else case % 8 + 1
        kind = KINDS[case % len(KINDS)]
        m = _random_matrix(rng, n, kind)
        before = [row[:] for row in m]
        got = reduction._fraction_char_poly(m)
        assert got == cleared_faddeev_leverrier(m), (kind, m)
        assert all(type(c) is int for c in got)
        assert m == before


def test_routh_verdict_on_the_integer_char_poly_matches_hurwitz_minors():
    # the Routh test on d*m's integer polynomial gives the verdict that the
    # Hurwitz minors of m's monic rational polynomial give
    rng = random.Random(29)
    verdicts = {n: [] for n in range(1, 9)}
    for case in range(240):
        n = case % 8 + 1
        m = _random_matrix(rng, n, KINDS[case % len(KINDS)])
        # a random shift to the left, so that both verdicts occur at every size
        shift = Fraction(rng.randint(0, 2 * n), rng.randint(1, 3))
        for i in range(n):
            m[i][i] -= shift
        want = all(h > 0 for h in _hurwitz_minors(faddeev_leverrier(m)))
        assert is_hurwitz_stable(reduction._fraction_char_poly(m)) == want, m
        verdicts[n].append(want)
    assert all(True in v and False in v for v in verdicts.values())


def test_certificates_unchanged_under_the_oracle_char_poly(capsys, monkeypatch):
    # every builtin's certificate (verdict, margin, per-sample exact sign
    # test) is the same with the Faddeev-LeVerrier oracle swapped in
    def certificates():
        out = {}
        for name in sorted(BUILTINS):
            main(["reduce", "--builtin", name, "--format", "json"])
            out[name] = capsys.readouterr().out
        return out

    new = certificates()
    monkeypatch.setattr(reduction, "_fraction_char_poly", cleared_faddeev_leverrier)
    assert certificates() == new
