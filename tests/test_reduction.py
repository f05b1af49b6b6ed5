"""Reduction engine: decompositions, projections, reductions, certificates."""

import os
import random
import runpy
from fractions import Fraction

import numpy as np
import pytest

from tfred.builtin_models import (
    BUILTINS,
    chain3,
    chain3_slowk4,
    inhibitor,
    linex,
    mm2d,
    mm3d,
    mm3d_deg,
)
from tfred.modelfile import model_from_dict
from tfred.matrices import RFMatrix, fraction_nullspace, jacobian, minus_product, solve_blocks
from tfred.rational import Context, RationalFunction
from tfred.reduction import (
    NonstandardError,
    ReducedSystem,
    ReductionError,
    StandardCaseError,
    default_sample,
    eigen_certificate,
    eliminate_on_manifold,
    fast_block_elimination,
    fast_linear_integrals,
    find_decomposition,
    integral_level,
    nonstandard_decomposition,
    reduce_extras,
    reduce_model,
    reduce_with,
    reduced_initial_value,
    scaled_initial_symbolic,
    solve_equations_linear,
    standard_decomposition,
    transform_first_integral,
)
from tfred.systems import Partition, apply_scaling, raw_system

from conftest import first_order_psi, flattened


def lie_derivative(phi, field_rows, states):
    """The derivative of phi along the field, as a RationalFunction."""
    acc = RationalFunction.of(phi.ctx.zero())
    for n, f in zip(states, field_rows):
        acc = acc + phi.diff(n) * f
    return acc


def sample_for(ctx, seed=1):
    return default_sample(ctx, seed=seed)


@pytest.fixture
def mm3d_scaled():
    spec = mm3d()
    part = Partition.from_fast(spec.system, ["e", "c"])
    return apply_scaling(spec.system, part)


# -- find_decomposition --------------------------------------------------------


def test_find_decomposition_mm3d_scaled(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    assert dec.r == 1
    # P carries the stoichiometric column (0, 1, -1)
    col = [dec.P.entries[i][0] for i in range(3)]
    assert col[0].is_zero()
    assert col[1] == ctx.parse("1")
    assert col[2] == ctx.parse("-1")
    # with that P, the factor is the e_star-row itself
    assert dec.mu[0] == ctx.parse("-k1*e_star*s + (km1 + k2)*c_star")
    assert dec.verify(sys.grade(0))


def test_find_decomposition_rejects_full_rank():
    ctx = Context(["x", "y"], ["a"])
    rows = [ctx.parse_poly("x"), ctx.parse_poly("y")]
    with pytest.raises(ReductionError):
        find_decomposition(rows, sample_for(ctx))


def test_find_decomposition_inhibitor_constant_p():
    spec = inhibitor()
    part = Partition.from_fast(spec.system, list(spec.fast))
    scaled = apply_scaling(spec.system, part)
    sys = scaled.system
    dec = find_decomposition(sys.grade(0), sample_for(sys.ctx))
    assert dec.r == 2
    assert dec.verify(sys.grade(0))
    # the s- and y-rows of P vanish, so those reduced rows equal h1 directly
    i_s = sys.state_index("s")
    i_y = sys.state_index("y")
    assert all(dec.P.entries[i_s][j].is_zero() for j in range(2))
    assert all(dec.P.entries[i_y][j].is_zero() for j in range(2))


def test_find_decomposition_rational_coefficient_r1():
    # entries differing by an x-dependent smooth factor force a rational P row;
    # the rank sample sits on the critical manifold y = 0
    ctx = Context(["x", "y"], ["k1", "km1", "k2"])
    rows = [ctx.parse_poly("(k1*x + km1)*y"), ctx.parse_poly("-(k1*x + km1 + k2)*y")]
    dec = find_decomposition(rows, {**sample_for(ctx), "y": Fraction(0)})
    assert dec.r == 1
    assert dec.verify(rows)
    assert dec.P.entries[1][0] == ctx.parse("-(k1*x + km1 + k2) / (k1*x + km1)")


# -- projection and reduction -----------------------------------------------------


def test_projection_mm_matches_display(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    Q = dec.projection()
    d = "(k1*s + km1 + k2)"
    expected = [
        ["1", "0", "0"],
        [f"-k1*e_star/{d}", f"(km1 + k2)/{d}", f"(km1 + k2)/{d}"],
        [f"k1*e_star/{d}", f"k1*s/{d}", f"k1*s/{d}"],
    ]
    for i in range(3):
        for j in range(3):
            assert Q.entries[i][j] == ctx.parse(expected[i][j]), (i, j)


def test_reduce_mm3d_gives_displayed_limit_system(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    red = reduce_with(dec, sys.grade(1))
    d = "(k1*s + km1 + k2)"
    assert red.row("s") == ctx.parse("-k1*e_star*s + km1*c_star")
    assert red.row("e_star") == ctx.parse(f"-k1*e_star*(-k1*e_star*s + km1*c_star)/{d}")
    assert red.row("c_star") == ctx.parse(f"k1*e_star*(-k1*e_star*s + km1*c_star)/{d}")
    # q equals Q*h1 (dual route)
    Qh1 = dec.projection().mul_vector([RationalFunction.of(p) for p in sys.grade(1)])
    for a, b in zip(red.field, Qh1):
        assert a == b
    # every factor entry is a first integral of the reduced field (Dmu q = 0)
    dq = dec.dmu().mul_vector(red.field)
    assert all(v.is_zero() for v in dq)


def _terms(M):
    return [[(list(v.num.terms.items()), list(v.den.terms.items())) for v in row] for row in M.entries]


def _survey_raw_models(seeds):
    """The benchmark's survey-shaped raw systems, each also with its states in reverse order."""
    raw_model = runpy.run_path(WORKLOADS)["raw_model"]
    for seed in seeds:
        model = raw_model(random.Random(seed), seed)[0]
        yield f"raw seed {seed}", model_from_dict(model)
        model.update(states=model["states"][::-1], raw_system=model["raw_system"][::-1])
        yield f"raw seed {seed} reversed", model_from_dict(model)


def test_standard_route_reads_dmup_and_q_off_the_fast_coordinates():
    # every standard-route builtin and survey-shaped raw systems, fast states
    # last and first; at seed 262 a factor met only in a fast row of P cancels
    # in a slow row of Q
    specs = [(name, BUILTINS[name]()) for name in sorted(BUILTINS)]
    specs += _survey_raw_models((*range(60), 262))
    checked = []
    for name, spec in specs:
        try:
            dec = reduce_model(spec.system, list(spec.fast)).decomposition
        except ReductionError:
            continue
        if dec.mode != "standard":
            continue
        checked.append(name)
        dmu = dec.dmu()
        assert _terms(dec.dmup()) == _terms(dmu @ dec.P), name
        ident = RFMatrix.identity(dec.ctx, dec.n).entries
        want = minus_product(ident, dec.P, solve_blocks(dmu @ dec.P, dmu))
        got = dec.projection().entries
        assert [[v.render() for v in row] for row in got] == [[v.render() for v in row] for row in want], name
        assert dec.verify(spec.system.grade(0)), name
    assert [n for n in checked if not n.startswith("raw")] == ["chain3", "linex", "mm2d"]
    assert sum(n.startswith("raw") for n in checked) >= 100


def test_reduce_with_zero_h1_gives_zero(mm3d_scaled):
    sys = mm3d_scaled.system
    dec = find_decomposition(sys.grade(0), sample_for(sys.ctx))
    red = reduce_with(dec, [sys.ctx.zero()] * 3)
    assert all(v.is_zero() for v in red.field)


def test_mm3d_elimination_recovers_mm_equation(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    red = reduce_with(dec, sys.grade(1))
    # conservation of e* + c* at level e0 plus the manifold equation
    conservation = ctx.parse("e_star + c_star - e0")
    elim = eliminate_on_manifold(red, [conservation], ["c_star", "e_star"])
    assert elim.states == ("s",)
    assert elim.field[0] == ctx.parse("-k1*k2*e0*s / (k1*s + km1 + k2)")


def mm3d_scaled_obj():
    spec = mm3d()
    return apply_scaling(spec.system, Partition.from_fast(spec.system, ["e", "c"]))


# -- standard route ---------------------------------------------------------------


def test_standard_reduce_mm2d_benchmark():
    spec = mm2d()
    red = reduce_model(spec.system, ["c"], mode="standard")
    ctx = spec.system.ctx
    assert red.states == ("s",)
    assert red.field[0] == ctx.parse("-k1*k2*e0*s / (k1*s + km1 + k2)")
    # first-order manifold: c_star = k1*e0*s / (k1*s + km1 + k2)
    solved = dict(red.eliminated.solved)
    assert solved["c"] == ctx.parse("k1*e0*s / (k1*s + km1 + k2)")


def test_standard_reduce_zero_slow_part():
    ctx = Context(["x", "y"], ["a"])
    rows = [ctx.parse_poly("a*x*y"), ctx.parse_poly("-y + x*y")]
    sys = raw_system(ctx, rows)
    red = reduce_model(sys, ["y"], mode="standard")
    assert red.field[0].is_zero()


def test_standard_reduce_refuses_singular_g0(mm3d_scaled):
    spec = mm3d()
    with pytest.raises(StandardCaseError):
        reduce_model(spec.system, ["e", "c"], mode="standard")


def test_standard_reduce_chain3_denominator():
    # ds/dt = -k1*k2*k3*k4*e0*s/d.  d carries six s-monomials and four constant
    # ones (the three km1-led terms plus k2*k3*k4); the extra constant term is
    # pinned by the cofactor oracle below and by a unit-rate numeric check.
    spec = chain3()
    red = reduce_model(spec.system, list(spec.fast), mode="standard")
    ctx = spec.system.ctx
    num = "-k1*k2*k3*k4*e0*s"
    den = (
        "(k1*k2*k3 + k1*k2*k4 + k1*k2*km3 + k1*k3*k4 + k1*k4*km2 + k1*km2*km3)*s"
        " + k3*k4*km1 + k4*km1*km2 + km1*km2*km3 + k2*k3*k4"
    )
    assert red.field[0] == ctx.parse(f"({num}) / ({den})")
    # independent oracle: Cramer's rule on G0(x,0) built by hand
    from tfred.matrices import determinant

    G0 = RFMatrix(
        ctx,
        [
            [ctx.parse("-(k1*s + km1 + k2)"), ctx.parse("-k1*s + km2"), ctx.parse("-k1*s")],
            [ctx.parse("k2"), ctx.parse("-(km2 + k3)"), ctx.parse("km3")],
            [ctx.parse("0"), ctx.parse("k3"), ctx.parse("-(km3 + k4)")],
        ],
    )
    detG0 = determinant(G0)
    assert -detG0 == ctx.parse(den)
    # unit-rate spot check: s' = -s/(6s + 4)
    pt = {name.name: Fraction(1) for name in ctx.symbols}
    assert red.field[0].eval(pt) == Fraction(-1, 10)


def test_standard_equals_general_on_mm2d():
    spec = mm2d()
    part = Partition.from_fast(spec.system, ["c"])
    red_std = reduce_model(spec.system, ["c"], mode="standard")
    dec = standard_decomposition(spec.system, part)
    red_gen = reduce_with(dec, spec.system.grade(1))
    # restrict the general x-row to the zero-order manifold y = 0
    x_row = red_gen.row("s").subs({"c": 0})
    assert x_row == red_std.field[0]


# -- nonstandard route -------------------------------------------------------------


def test_nonstandard_mm3d_matches_general(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    elimination = fast_block_elimination(mm3d_scaled)
    dec = nonstandard_decomposition(mm3d_scaled, elimination)
    s1, G, R, w = elimination.factor()
    assert s1 == 1
    assert all(v.is_zero() for v in w)
    # manifold: c_star = k1*e_star*s/(km1+k2)
    assert dec.mu[0] == ctx.parse("c_star - k1*e_star*s/(km1 + k2)")
    red_ns = reduce_with(dec, sys.grade(1))
    red_gen = reduce_with(find_decomposition(sys.grade(0), sample_for(ctx)), sys.grade(1))
    for a, b in zip(red_ns.field, red_gen.field):
        assert a == b
    # dimension bookkeeping: manifold dimension n - s1 exceeds slow count
    assert red_ns.manifold.dimension == 3 - s1 > 1


def test_nonstandard_mm3d_deg_matches_display():
    spec = mm3d_deg()
    part = Partition.from_fast(spec.system, ["e", "c"])
    scaled = apply_scaling(spec.system, part)
    sys = scaled.system
    ctx = sys.ctx
    # the route's limit system, before reduce_model eliminates e_star
    red = reduce_with(nonstandard_decomposition(scaled, fast_block_elimination(scaled)), sys.grade(1))
    d = "(k1*s + km1 + k2)"
    assert red.row("s") == ctx.parse("-k1*e_star*s + km1*c_star")
    assert red.row("e_star") == ctx.parse(
        f"-k1*e_star*(-k1*e_star*s + km1*c_star + delta*(km1 + k2)/k1)/{d}"
    )
    assert red.row("c_star") == ctx.parse(
        f"k1*e_star*(-k1*e_star*s + km1*c_star - delta*s)/{d}"
    )
    # two-dimensional eliminated form on the manifold
    elim = eliminate_on_manifold(red, [], ["c_star"])
    assert set(elim.states) == {"s", "e_star"}
    srow = elim.field[list(elim.states).index("s")]
    erow = elim.field[list(elim.states).index("e_star")]
    assert srow == ctx.parse("-k1*k2*e_star*s/(km1 + k2)")
    assert erow == ctx.parse(
        f"-k1*e_star*(-k1*k2*e_star*s/(km1 + k2) + delta*(km1 + k2)/k1)/{d}"
    )


def test_nonstandard_block_system_kernel_oracle():
    # constant-matrix block system: kernel of the fast block fixes the manifold
    ctx = Context(["x", "y1", "y2", "y3"], ["a"])
    A22 = [[-2, 1, 0], [1, -2, 0], [0, 0, -1]]
    A12 = [[1, 0, 1]]
    rows = [ctx.zero()] * 4
    # x-row: eps * (A12 y); y-rows: A22 y (kernel is trivial here, so adjust)
    A22 = [[-1, 1, 0], [1, -1, 0], [0, 0, -1]]  # rank 2, kernel span (1,1,0)
    ynames = ["y1", "y2", "y3"]
    xrow = ctx.zero()
    for j, yn in enumerate(ynames):
        xrow = xrow + ctx.sym(yn) * A12[0][j]
    yrows = []
    for i in range(3):
        acc = ctx.zero()
        for j, yn in enumerate(ynames):
            acc = acc + ctx.sym(yn) * A22[i][j]
        yrows.append(acc)
    eps = ctx.sym("eps")
    sys = raw_system(ctx, [eps * xrow] + yrows)
    scaled = apply_scaling(sys, Partition.from_fast(sys, ynames))
    elimination = fast_block_elimination(scaled)
    dec = nonstandard_decomposition(scaled, elimination)
    s1, G, R, w = elimination.factor()
    assert s1 == 2
    assert dec.manifold().dimension == 4 - 2
    # oracle: kernel vectors of A22 satisfy the manifold equations
    null = fraction_nullspace([[Fraction(v) for v in row] for row in A22])
    assert len(null) == 1
    sctx = scaled.system.ctx
    for vec in null:
        binding = {f"{yn}_star": sctx.const(v) for yn, v in zip(ynames, vec)}
        for m in dec.mu:
            assert m.subs(binding).is_zero()


def test_nonstandard_reports_obstruction_when_no_w_exists():
    # g1(x,0) outside the column space of the rank factorization
    ctx = Context(["x", "y1", "y2"], ["a"])
    eps = ctx.sym("eps")
    rows = [
        ctx.zero(),
        -ctx.sym("y1") + eps * ctx.parse_poly("x^2"),
        ctx.zero(),
    ]
    # y2-row identically zero: G0 = diag(-1, 0) has rank 1; g1 = (x^2, 0) works.
    # Put the order-eps source on the *kernel* row instead to create an obstruction
    rows = [
        ctx.zero(),
        -ctx.sym("y1"),
        eps * ctx.parse_poly("x^2"),
    ]
    sys = raw_system(ctx, rows)
    scaled = apply_scaling(sys, Partition.from_fast(sys, ["y1", "y2"]))
    with pytest.raises(NonstandardError) as err:
        nonstandard_decomposition(scaled, fast_block_elimination(scaled))
    assert "y2" in str(err.value)


def test_chain3_slowk4_reduces_to_frozen_substrate():
    spec = chain3_slowk4()
    elim = reduce_model(spec.system, list(spec.fast), mode="nonstandard").eliminated
    assert "s" in elim.states
    assert elim.field[list(elim.states).index("s")].is_zero()


# the benchmark's transport_binding(N) model file, built through the
# `transport` section
WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def test_transport_binding_7_reduced_rows_stay_small():
    # expression size, not time: with one common denominator per exact solve
    # the largest reduced row has 47 numerator and 8 denominator terms
    spec = model_from_dict(runpy.run_path(WORKLOADS)["transport_model"](7))
    red = reduce_model(spec.system, list(spec.fast))
    assert red.decomposition.mode == "nonstandard"
    assert max(len(row.num.terms) for row in red.field) <= 100
    assert max(len(row.den.terms) for row in red.field) <= 20


# -- slow manifold first order -------------------------------------------------------


def test_first_order_manifold_standard_agreement():
    spec = mm2d()
    part = Partition.from_fast(spec.system, ["c"])
    dec = standard_decomposition(spec.system, part)
    psi = first_order_psi(dec, spec.system.grade(1))
    # the standard manifold is c = -eps*G0^(-1)g1: correction must match
    red = reduce_model(spec.system, ["c"], mode="standard")
    expected = dict(red.eliminated.solved)["c"]
    # Psi0 at y=0 equals G0^-1 g1 = -expected
    assert psi[0].subs({"c": 0}) == -expected


def test_first_order_manifold_zero_h1(mm3d_scaled):
    sys = mm3d_scaled.system
    dec = find_decomposition(sys.grade(0), sample_for(sys.ctx))
    eps = RationalFunction.of(sys.ctx.sym("eps"))
    phi = [m + eps * p for m, p in zip(dec.mu, first_order_psi(dec, [sys.ctx.zero()] * 3))]
    for p, m in zip(phi, dec.mu):
        assert p == m


def test_first_order_manifold_invariance_identity(mm3d_scaled):
    # residual D(Phi)*(h0 + eps h1) - (L0 + eps L1)*Phi has no eps^0/eps^1 part
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    h1 = sys.grade(1)
    psi0 = first_order_psi(dec, h1)
    eps = RationalFunction.of(ctx.sym("eps"))
    Phi = [m + eps * p for m, p in zip(dec.mu, psi0)]
    h = [RationalFunction.of(a) + eps * b for a, b in zip(sys.grade(0), h1)]
    states = list(sys.states)
    DPhi = jacobian(Phi, states)
    Dpsi0 = jacobian(psi0, states)
    L0 = dec.dmup()
    L1 = Dpsi0 @ dec.P
    lhs = DPhi.mul_vector(h)
    lam = [
        sum(
            (L0.entries[i][j] + eps * L1.entries[i][j]) * Phi[j]
            for j in range(dec.r)
        )
        for i in range(dec.r)
    ]
    for a, b in zip(lhs, lam):
        residual = a - b
        if residual.is_zero():
            continue
        num_orders = residual.num.eps_coefficients()
        den_orders = residual.den.eps_coefficients()
        val = min(num_orders) - min(den_orders)
        assert val >= 2, f"residual has eps-order {val}"


# -- eigen certificates ---------------------------------------------------------------


def test_eigen_certificate_mm_passes(mm3d_scaled):
    sys = mm3d_scaled.system
    dec = find_decomposition(sys.grade(0), sample_for(sys.ctx))
    solved = solve_equations_linear(list(dec.mu), list(sys.states))
    cert = eigen_certificate(dec, n_samples=10, seed=3, solved=solved)
    assert cert.verdict == "pass"
    assert cert.nu_margin > 0
    assert all(s.hurwitz_ok for s in cert.samples)


def test_eigen_certificate_zero_matrix_fails():
    ctx = Context(["x", "y"], ["a"])
    from tfred.reduction import Decomposition

    # mu = x and P = (0, 1): Dmu*P = [[0]]
    mu = [RationalFunction.of(ctx.sym("x"))]
    dec = Decomposition(ctx, ("x", "y"), RFMatrix(ctx, [[ctx.zero()], [ctx.one()]]), mu, "general")
    cert = eigen_certificate(dec, sample_points=[{**default_sample(ctx, 5), "x": Fraction(0)}])
    assert cert.verdict == "fail"


def test_eigen_certificate_chain_matrix_companion_oracle():
    spec = chain3()
    part = Partition.from_fast(spec.system, list(spec.fast))
    dec = standard_decomposition(spec.system, part)
    pt = {name: Fraction(1) for name in [s.name for s in spec.system.ctx.symbols]}
    pt.update({name: Fraction(0) for name in part.fast})  # on the manifold
    cert = eigen_certificate(dec, sample_points=[pt])
    assert cert.verdict == "pass"
    # numeric oracle: eigenvalues of the evaluated fast-block matrix
    M = dec.dmup()
    numeric = [[float(v.eval(pt)) for v in row] for row in M.entries]
    eig = np.linalg.eigvals(np.array(numeric))
    assert max(e.real for e in eig) < 0
    assert abs(cert.nu_margin - (-max(e.real for e in eig))) < 1e-9


# -- first integrals ---------------------------------------------------------------------


def test_transform_first_integral_mm(mm3d_scaled):
    spec = mm3d()
    ctx = spec.system.ctx
    phi = RationalFunction.of(ctx.parse_poly("e + c"))
    ti = transform_first_integral(phi, spec.system, mm3d_scaled)
    sctx = mm3d_scaled.system.ctx
    assert ti.order == 1
    assert ti.rf == sctx.parse("e_star + c_star")
    # its level at the scaled initial point is the enzyme total
    assert integral_level(ti, mm3d_scaled) == sctx.parse("e0")


def test_transform_first_integral_constant():
    spec = mm3d()
    ctx = spec.system.ctx
    scaled = mm3d_scaled_obj()
    phi = RationalFunction.of(ctx.const(Fraction(7, 2)))
    ti = transform_first_integral(phi, spec.system, scaled)
    assert ti.order == 0
    assert ti.rf == Fraction(7, 2)


def test_transform_first_integral_refuses_an_eps_carrying_integral(mm3d_scaled):
    spec = mm3d()
    ctx = spec.system.ctx
    # eps*(e + c) is a first integral too, but its eps would mix with the scaling's
    phi = RationalFunction.of(ctx.parse_poly("eps*(e + c)"))
    assert lie_derivative(phi, flattened(spec.system), spec.system.states).is_zero()
    with pytest.raises(ReductionError, match="eps-free"):
        transform_first_integral(phi, spec.system, mm3d_scaled)


def test_transform_first_integral_of_zero_is_zero_of_order_zero(mm3d_scaled):
    spec = mm3d()
    ti = transform_first_integral(RationalFunction.of(spec.system.ctx.zero()), spec.system, mm3d_scaled)
    assert ti.order == 0
    assert ti.rf.is_zero() and ti.rf.ctx is mm3d_scaled.system.ctx
    assert integral_level(ti, mm3d_scaled).is_zero()


@pytest.mark.parametrize(
    "num, den, order, lead",
    [("(e + c)^2", "e + c + 1", 2, "(e_star + c_star)^2"), ("2", "e + c", -1, "2/(e_star + c_star)")],
)
def test_transform_first_integral_takes_the_lowest_groups_of_a_quotient(mm3d_scaled, num, den, order, lead):
    # functions of the enzyme total e + c are first integrals of mm3d
    spec = mm3d()
    ctx = spec.system.ctx
    ti = transform_first_integral(RationalFunction(ctx.parse_poly(num), ctx.parse_poly(den)), spec.system, mm3d_scaled)
    assert ti.order == order
    assert ti.rf == mm3d_scaled.system.ctx.parse(lead)


def test_transform_first_integral_rejects_non_integral(mm3d_scaled):
    spec = mm3d()
    ctx = spec.system.ctx
    phi = RationalFunction.of(ctx.parse_poly("s + e"))
    with pytest.raises(ReductionError) as err:
        transform_first_integral(phi, spec.system, mm3d_scaled)
    assert "residue" in str(err.value)


def test_transported_integral_is_integral_of_reduced_field(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    red = reduce_with(dec, sys.grade(1))
    spec = mm3d()
    phi = RationalFunction.of(spec.system.ctx.parse_poly("e + c"))
    ti = transform_first_integral(phi, spec.system, mm3d_scaled)
    lie = lie_derivative(ti.rf, red.field, sys.states)
    assert lie.is_zero()


# -- fast integrals and reduced initial values ----------------------------------------------


def test_fast_integrals_linex_level_set():
    spec = linex()
    ctx = spec.system.ctx
    # x - b*y/c: first integral of the fast flow x' = b*y, y' = c*y
    psi = [ctx.parse("x - b*y/c")]
    # level set through (x0, y0) meets y = 0 at x0 - b*y0/c
    z0 = {"x": ctx.parse("x0"), "y": ctx.parse("y0")}
    out = reduced_initial_value(psi, [RationalFunction.of(ctx.sym("y"))], z0, ["x", "y"])
    assert out["y"].is_zero()
    assert out["x"] == ctx.parse("x0 - b*y0/c")


def test_reduced_initial_value_already_on_manifold(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    # fast-system first integrals: s and e* + c*
    integrals = [
        RationalFunction.of(ctx.sym("s")),
        RationalFunction.of(ctx.parse_poly("e_star + c_star")),
    ]
    z0 = {"s": Fraction(1), "e_star": Fraction(2, 3), "c_star": Fraction(1, 3)}
    pt = {**z0, "k1": Fraction(1), "km1": Fraction(1), "k2": Fraction(1)}
    # (1, 2/3, 1/3) lies on the manifold for unit rates
    assert dec.mu[0].eval({**pt, "eps": Fraction(0), "e0": 1, "s0": 1}) == 0
    out = reduced_initial_value(
        [i.subs({"k1": 1, "km1": 1, "k2": 1}) for i in integrals],
        [m.subs({"k1": 1, "km1": 1, "k2": 1}) for m in dec.mu],
        z0,
        list(sys.states),
    )
    assert out["s"] == Fraction(1)
    assert out["e_star"] == Fraction(2, 3)
    assert out["c_star"] == Fraction(1, 3)


def test_reduced_initial_value_mm3d_symbolic(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    integrals = [
        RationalFunction.of(ctx.sym("s")),
        RationalFunction.of(ctx.parse_poly("e_star + c_star")),
    ]
    z0 = scaled_initial_symbolic(mm3d_scaled)
    out = reduced_initial_value(integrals, list(dec.mu), z0, list(sys.states))
    # on the manifold with e* + c* = e0 and s = s0
    assert out["s"] == ctx.parse("s0")
    assert out["e_star"] == ctx.parse("(km1 + k2)*e0 / (k1*s0 + km1 + k2)")
    assert out["c_star"] == ctx.parse("k1*s0*e0 / (k1*s0 + km1 + k2)")


def test_reduced_initial_value_is_exact_or_refused():
    # x + y = 3 meets x*y = 1 at irrational points: no exact linear solve
    # exists, and no float approximation may pass for an exact value
    ctx = Context(["x", "y"])
    with pytest.raises(ReductionError):
        reduced_initial_value(
            [ctx.parse("x + y")], [ctx.parse("x*y - 1")], {"x": 0, "y": 3}, ["x", "y"]
        )


# -- solves that continue the manifold's -------------------------------------------------


NONSTANDARD_CASES = [
    "chain3_slowk4", "inhibitor", "mm3d", "mm3d_deg", "mm_diffusion", "transport_binding",
    "transport_binding_slow", "transport_model(2)", "transport_model(3)", "transport_model(5)",
]


def _spec(case):
    from tfred.builtin_models import load_builtin

    if case.startswith("transport_model("):
        return model_from_dict(runpy.run_path(WORKLOADS)["transport_model"](int(case[16:-1])))
    return load_builtin(case)


def _rendered(solved):
    return [(n, e.render()) for n, e in solved]


@pytest.mark.parametrize("case", NONSTANDARD_CASES)
def test_continued_solves_equal_the_solves_from_scratch(case):
    # reduce_model solves the manifold once; the conserved form and the
    # initial value continue that solve.  From scratch, with no eliminated
    # form and no solved relations, both come out the same, to the rendering
    spec = _spec(case)
    red = reduce_model(spec.system, list(spec.fast))
    reduce_extras(red, spec.system, n_samples=1)
    dec, scaled = red.decomposition, red.scaled
    assert dec.mode == "nonstandard" and not red.errors, case
    fast = list(scaled.fast_star)
    scratch = ReducedSystem(red.states, red.field, red.manifold, dec)
    assert scratch.eliminated is None
    relations = [
        t.rf - t.level for t in red.transported_integrals if not set(t.rf.num.symbols_used()).isdisjoint(fast)
    ]
    if red.eliminated_conserved is not None:
        want = eliminate_on_manifold(scratch, relations, fast)
        got = red.eliminated_conserved
        assert got.states == want.states and got.solved == want.solved and got.field == want.field
        assert _rendered(got.solved) == _rendered(want.solved)
        assert [r.render() for r in got.field] == [r.render() for r in want.field]
    start = reduced_initial_value(
        fast_linear_integrals(scaled.system), list(dec.mu), scaled_initial_symbolic(scaled), list(dec.states)
    )
    assert list(red.initial_values) == list(dec.states)
    assert all(red.initial_values[n] == start[n] for n in dec.states)
    assert _rendered(red.initial_values.items()) == _rendered((n, start[n]) for n in dec.states)
    # the manifold's rows vanish under its own solution: the prefix comes back
    prefix = red.eliminated.solved
    again = solve_equations_linear(list(dec.mu), fast, solved=prefix)
    assert again == prefix and _rendered(again) == _rendered(prefix)
    assert solve_equations_linear([], fast, solved=prefix) == prefix


# -- property suite over random consistent systems --------------------------------------


def random_ltc_system(rng: random.Random, n_slow: int, n_fast: int, degree: int):
    states = [f"x{i}" for i in range(1, n_slow + 1)] + [f"y{j}" for j in range(1, n_fast + 1)]
    ctx = Context(states, ["a", "b"])
    ynames = states[n_slow:]

    def rterm(max_deg):
        term = ctx.const(rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(0, max_deg - 1)):
            term = term * ctx.sym(rng.choice(states + ["a", "b"]))
        return term

    rows = []
    for i in range(n_slow):
        p = ctx.zero()
        for _ in range(rng.randint(0, 2)):
            p = p + rterm(degree) * ctx.sym(rng.choice(ynames))
        rows.append(p)
    # fast block: diagonally dominant constant part keeps G0 invertible
    for j in range(n_fast):
        p = ctx.const(-3 - rng.randint(0, 2)) * ctx.sym(ynames[j])
        for _ in range(rng.randint(0, 2)):
            p = p + rterm(degree) * ctx.sym(rng.choice(ynames))
        rows.append(p)
    h1 = [sum((rterm(degree) for _ in range(rng.randint(0, 2))), ctx.zero()) for _ in states]
    eps = ctx.sym("eps")
    full = [r + eps * q for r, q in zip(rows, h1)]
    sys = raw_system(ctx, full)
    return ctx, sys, states[:n_slow], ynames


def test_property_suite_random_consistent_systems():
    rng = random.Random(2024)
    checked = 0
    for trial in range(12):
        n_slow = rng.randint(1, 2)
        n_fast = rng.randint(1, 3)
        ctx, sys, xnames, ynames = random_ltc_system(rng, n_slow, n_fast, 3)
        part = Partition.from_fast(sys, ynames)
        from tfred.systems import check_ltc, FULL_LTC

        assert check_ltc(sys, part).status == FULL_LTC
        dec = standard_decomposition(sys, part)
        h0 = sys.grade(0)
        # hadamard identity is part of verify (P mu = h0)
        if not dec.verify(h0):
            pytest.fail(f"identities failed on trial {trial}")
        red = reduce_with(dec, sys.grade(1))
        dq = dec.dmu().mul_vector(red.field)
        assert all(v.is_zero() for v in dq)
        checked += 1
    assert checked == 12


# -- expression sizes ---------------------------------------------------------------


def _term_counts(name):
    """num + den terms of a builtin's reduced rows, Q entries and eliminated forms."""
    from tfred.builtin_models import load_builtin
    from tfred.reduction import reduce_extras

    def size(rf):
        return len(rf.num.terms) + len(rf.den.terms)

    def eliminated(form):
        if form is None:
            return None
        return {"solved": [size(e) for _, e in form.solved], "rows": [size(r) for r in form.field]}

    spec = load_builtin(name)
    red = reduce_model(spec.system, list(spec.fast))
    reduce_extras(red, spec.system)
    return {
        "reduced": [size(r) for r in red.field],
        "Q": [[size(v) for v in row] for row in red.decomposition.projection().entries],
        "eliminated": eliminated(red.eliminated),
        "eliminated_conserved": eliminated(red.eliminated_conserved),
    }


def test_no_builtin_expression_has_more_terms_than_recorded():
    # tests/golden/term_counts.json holds the counts of the reductions that
    # formed P*gamma and Q from one rational function per product; carrying
    # one denominator per block may cancel more, never less
    import json
    from tfred.builtin_models import BUILTINS

    with open(os.path.join(os.path.dirname(__file__), "golden", "term_counts.json")) as fh:
        ceiling = json.load(fh)
    assert sorted(ceiling) == sorted(BUILTINS)

    def at_most(got, cap, where):
        if isinstance(cap, dict):
            assert got.keys() == cap.keys(), where
            for key in cap:
                at_most(got[key], cap[key], f"{where}.{key}")
        elif isinstance(cap, list):
            assert len(got) == len(cap), where
            for i, (g, c) in enumerate(zip(got, cap)):
                at_most(g, c, f"{where}[{i}]")
        elif cap is None:
            assert got is None, where
        else:
            assert got <= cap, where

    for name in sorted(BUILTINS):
        at_most(_term_counts(name), ceiling[name], name)
    # inhibitor's (km1 + k2) powers cancel: Q[0][0] = (km1 + k2) km3 / (...)
    counts = _term_counts("inhibitor")
    assert counts["Q"][0][0] == 7 < ceiling["inhibitor"]["Q"][0][0]


def test_reduced_rows_keep_the_term_order_that_converge_sums_in():
    # a compiled float field sums each row's terms in dict order, so a
    # reordered but equal reduced row moves converge's numbers in the last
    # digits.  tests/golden/term_order.json holds a sha256 of each builtin's
    # reduced rows as exponent tuples in term order, recorded while P*gamma
    # was formed from one rational function per product; inhibitor's entry
    # is newer, its rows having lost their uncancelled (km1 + k2) powers
    import hashlib
    import json
    from tfred.builtin_models import BUILTINS, load_builtin

    with open(os.path.join(os.path.dirname(__file__), "golden", "term_order.json")) as fh:
        recorded = json.load(fh)
    assert sorted(recorded) == sorted(BUILTINS)
    for name in sorted(BUILTINS):
        spec = load_builtin(name)
        red = reduce_model(spec.system, list(spec.fast))
        rows = [[[list(e), str(c)] for e, c in p.monomials().items()] for r in red.field for p in (r.num, r.den)]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == recorded[name], name
