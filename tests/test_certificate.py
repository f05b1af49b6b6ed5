"""The eigenvalue certificate's sampling loop: sample table, exact evaluation,
stacked eigenvalues, and which samples it rejects or fails on."""

import json
import math
import os
import random
import runpy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfred.builtin_models import BUILTINS
from tfred.matrices import RFMatrix
from tfred.rational import Q, Context, Point, Polynomial, RationalFunction, SymbolicError
from tfred.reduction import Decomposition, default_sample, eigen_certificate
from tfred.stability import max_real_part


# -- stacked eigenvalues ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_max_real_part_of_a_stack_is_bit_identical_to_one_call_per_matrix(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((6, n, n))
    if n >= 2:
        # a rotation block: a complex pair whose real part is the largest
        stack[0] = np.diag(np.full(n, -3.0))
        stack[0][:2, :2] = [[0.5, -2.0], [2.0, 0.5]]
    got = max_real_part(stack.tolist())
    want = [max(float(v.real) for v in np.linalg.eigvals(m)) for m in stack]
    assert got == want
    assert max_real_part(stack[:1].tolist()) == want[:1]
    if n >= 2:
        assert got[0] == 0.5


# -- sample table ------------------------------------------------------------------------


def test_default_sample_keeps_the_seeded_stream():
    ctx = Context(["x", "y", "z"], ["a", "b"])
    for seed in range(1000):
        rng = random.Random(seed)
        want = {s.name: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for s in ctx.symbols}
        got = default_sample(ctx, seed)
        assert got == want
        assert list(got) == list(want)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_a_drawn_point_is_cleared_as_point_values_clears_its_sample(name):
    from tfred.reduction import _draw

    ctx = BUILTINS[name]().system.ctx
    for seed in range(1000):
        pt, cleared = _draw(ctx, seed)
        want = ctx.point_values(default_sample(ctx, seed))
        assert pt == default_sample(ctx, seed)
        assert (cleared.nums, cleared.den) == (want.nums, want.den)


# -- exact evaluation ----------------------------------------------------------------

CTX = Context(["x", "y"], ["a"])


def reference_value(poly: Polynomial, vals) -> Fraction:
    """Sum of coefficient times powers, straight from ``poly.monomials()``."""
    total = Fraction(0)
    for e, c in poly.monomials().items():
        term = Fraction(c)
        for i, k in enumerate(e):
            if k:
                if vals[i] is None:
                    raise SymbolicError(f"unbound symbol {CTX.symbols[i].name} in evaluation")
                term *= vals[i] ** k
        total += term
    return total


def reference_eval(rf: RationalFunction, vals) -> Fraction:
    d = reference_value(rf.den, vals)
    if d == 0:
        raise ZeroDivisionError(f"denominator {rf.den.render()} vanishes at sample point")
    return reference_value(rf.num, vals) / d


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its exception."""
    try:
        return fn(*args)
    except (SymbolicError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@st.composite
def polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = tuple(draw(st.integers(0, 3)) for _ in range(CTX.nvars))
        terms[expo] = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)))
    return Polynomial(CTX, terms)


rfs = st.builds(RationalFunction, polys(), polys().filter(lambda p: not p.is_zero()))
# None leaves a symbol unbound; small values make denominators vanish often
small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
points = st.lists(st.one_of(st.none(), small), min_size=CTX.nvars, max_size=CTX.nvars)
# a value bound into a cleared point later, often over a new denominator
later = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))


def cleared(values):
    """The point of a value list (None: unbound), cleared by ``Context.point_values``."""
    return CTX.point_values({s.name: v for s, v in zip(CTX.symbols, values) if v is not None})


def assert_value(rf, point, values):
    got = outcome(rf.eval_at, point)
    assert got == outcome(reference_eval, rf, values)
    if not isinstance(got, tuple):
        # an int exactly when the value is integral
        assert type(got) is type(Q(got))
    for poly in (rf.num, rf.den):
        try:
            want = reference_value(poly, values)
        except SymbolicError as exc:
            want = (SymbolicError, str(exc))
        assert outcome(poly.eval_at, point) == want


@settings(max_examples=300, deadline=None)
@given(rfs, points, points, st.integers(0, CTX.nvars - 1), later)
def test_eval_at_matches_the_term_sum_at_cleared_and_extended_points(rf, first, second, i, value):
    # the first evaluation clears the terms, the later ones reuse them
    for values in (first, second):
        values = [None if v is None else Q(v) for v in values]
        point = cleared(values)
        assert point.den > 0
        assert point.nums == [None if v is None else v * point.den for v in values]
        assert_value(rf, point, values)
    # extended in place: a new denominator rescales the integers
    point.bind(CTX.symbols[i].name, value)
    values[i] = Q(value)
    assert point.den % value.denominator == 0
    assert point.nums == [None if v is None else v * point.den for v in values]
    assert_value(rf, point, values)


def test_eval_at_raises_on_an_unbound_symbol_and_a_vanishing_denominator():
    rf = CTX.parse("x*y / (x - 1)")
    with pytest.raises(SymbolicError, match="unbound symbol y"):
        rf.eval_at(CTX.point_values({"x": 2}))
    with pytest.raises(ZeroDivisionError, match="vanishes"):
        rf.eval_at(CTX.point_values({"x": 1, "y": 1}))
    assert rf.eval_at(CTX.point_values({"x": 3, "y": 1})) == Fraction(3, 2)
    # the denominator is evaluated first: its unbound symbol, or its zero,
    # is reported before anything in the numerator
    rf = CTX.parse("x*a / (a*y^2 - y + x)")
    for bound, name in [({}, "y"), ({"x": 1}, "y"), ({"y": 1}, "a")]:
        with pytest.raises(SymbolicError, match=f"^unbound symbol {name} in evaluation$"):
            rf.eval_at(CTX.point_values(bound))
    with pytest.raises(ZeroDivisionError, match=r"^denominator a\*y\^2 \+ x - y vanishes at sample point$"):
        rf.eval_at(CTX.point_values({"y": 1, "a": Fraction(1, 2), "x": Fraction(1, 2)}))
    # in a polynomial, the first unbound symbol in term order
    with pytest.raises(SymbolicError, match="^unbound symbol x in evaluation$"):
        rf.num.eval_at(CTX.point_values({}))


# -- rejected samples -------------------------------------------------------------------


def fast_block(entry: str) -> Decomposition:
    """Manifold y = 0 with Dmu*P = [[entry]]."""
    P = RFMatrix(CTX, [[CTX.parse("0")], [CTX.parse(entry)]])
    return Decomposition(CTX, ("x", "y"), P, [RationalFunction.of(CTX.sym("y"))], "general")


def point(x, y):
    return {"x": Fraction(x), "y": Fraction(y), "a": Fraction(1), "eps": Fraction(1)}


def test_certificate_counts_off_manifold_and_undefined_samples_as_rejected():
    dec = fast_block("-1/(x - 1)")
    off, undefined, valid = point(2, 1), point(1, 0), point(2, 0)
    cert = eigen_certificate(dec, sample_points=[off, undefined, valid])
    assert cert.rejected == 2
    assert [s.point for s in cert.samples] == [valid]
    assert cert.samples[0].max_real_part == -1.0
    assert cert.verdict == "pass"


def test_certificate_rejects_a_stable_sample_too_large_for_a_float():
    dec = fast_block(f"-{10**400}*(x - 1) - 1")
    cert = eigen_certificate(dec, sample_points=[point(2, 0), point(1, 0)])
    assert cert.rejected == 1
    assert [s.point for s in cert.samples] == [point(1, 0)]
    assert (cert.verdict, cert.nu_margin) == ("pass", 1.0)


def test_certificate_fails_on_an_unstable_sample_too_large_for_a_float():
    # at x = 2 the entry is 10^400 - 1: exactly unstable, with no float eigenvalue
    dec = fast_block(f"{10**400}*(x - 1) - 1")
    cert = eigen_certificate(dec, sample_points=[point(2, 0), point(1, 0)])
    assert cert.rejected == 0
    assert [(s.point, s.hurwitz_ok) for s in cert.samples] == [(point(2, 0), False), (point(1, 0), True)]
    assert math.isnan(cert.samples[0].max_real_part) and cert.samples[1].max_real_part == -1.0
    assert (cert.verdict, cert.nu_margin) == ("fail", 1.0)
    # with no float sample at all, the margin is NaN and the verdict still fails
    alone = eigen_certificate(dec, sample_points=[point(2, 0)])
    assert alone.verdict == "fail" and math.isnan(alone.nu_margin)


def test_certificate_without_a_float_value_is_strict_json():
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    dec = fast_block(f"{10**400}*(x - 1) - 1")
    for points, margin in [([point(2, 0), point(1, 0)], 1.0), ([point(2, 0)], None)]:
        cert = eigen_certificate(dec, sample_points=points)
        payload = json.loads(json.dumps(cert.to_json()), parse_constant=refuse)
        assert payload["nu_margin"] == margin
        assert payload["samples"][0]["max_real_part"] is None


# -- generated samples ---------------------------------------------------------------


def test_a_drawn_point_where_a_solved_relation_is_undefined_is_skipped(monkeypatch):
    # the manifold y*(x - 1) = 1 solved as y = 1/(x - 1), and Dmu*P = -1 on it;
    # a draw with x = 1 has no y: it is skipped, not counted or evaluated
    from tfred import reduction

    P = RFMatrix(CTX, [[CTX.parse("0")], [CTX.parse("-1/(x - 1)")]])
    dec = Decomposition(CTX, ("x", "y"), P, [CTX.parse("y*(x - 1) - 1")], "general")
    drawn = []
    draw = reduction._draw

    def recording(ctx, seed):
        pt, cleared = draw(ctx, seed)
        drawn.append(dict(pt))
        return pt, cleared

    monkeypatch.setattr(reduction, "_draw", recording)
    cert = eigen_certificate(dec, n_samples=25, seed=3, solved=[("y", CTX.parse("1/(x - 1)"))])
    assert any(p["x"] == 1 for p in drawn)
    kept = [p for p in drawn if p["x"] != 1]
    assert [s.point for s in cert.samples] == [{**p, "y": 1 / (p["x"] - 1)} for p in kept]
    assert (len(cert.samples), cert.rejected, cert.verdict) == (25, 0, "pass")
    assert all(s.max_real_part == -1.0 and s.hurwitz_ok for s in cert.samples)


def test_certificate_clears_each_drawn_point_once_and_skips_zero_entries(monkeypatch):
    # transport_binding(4): each drawn point is cleared once, by the draw
    # (one Point built, no point_values call), and extended by the solved
    # relations; the zero entries of Dmu*P are filled in, never evaluated
    from tfred import reduction
    from tfred.modelfile import model_from_dict
    from tfred.reduction import reduce_model

    workloads = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = model_from_dict(runpy.run_path(workloads)["transport_model"](4))
    red = reduce_model(spec.system, list(spec.fast))
    dec, solved = red.decomposition, red.eliminated.solved
    M = dec.dmup()
    zeros = {id(v) for row in M.entries for v in row if v.is_zero()}
    assert (M.rows * M.cols, len(zeros)) == (49, 23)
    counts = {"drawn": 0, "cleared": 0, "point_values": 0, "bound": 0, "zero_evals": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    eval_at = RationalFunction.eval_at

    def entry_eval(self, point):
        counts["zero_evals"] += id(self) in zeros
        return eval_at(self, point)

    monkeypatch.setattr(reduction, "_draw", counting("drawn", reduction._draw))
    monkeypatch.setattr(Point, "__init__", counting("cleared", Point.__init__))
    monkeypatch.setattr(Context, "point_values", counting("point_values", Context.point_values))
    monkeypatch.setattr(Point, "bind", counting("bound", Point.bind))
    monkeypatch.setattr(RationalFunction, "eval_at", entry_eval)
    cert = eigen_certificate(dec, n_samples=25, seed=1, solved=solved)
    assert len(cert.samples) == 25 and cert.verdict == "pass"
    assert counts["cleared"] == counts["drawn"] >= 25
    assert counts["point_values"] == 0
    assert counts["bound"] == len(solved) * counts["drawn"]
    assert counts["zero_evals"] == 0
