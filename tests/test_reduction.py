"""Reduction engine: decompositions, projections, reductions, certificates."""

import random
from fractions import Fraction

import numpy as np
import pytest

from tfred.builtin_models import (
    chain3,
    chain3_slowk4,
    inhibitor,
    linex,
    mm2d,
    mm3d,
    mm3d_deg,
)
from tfred.modelfile import model_from_dict
from tfred.matrices import RFMatrix, jacobian, fraction_nullspace
from tfred.rational import Context, RationalFunction
from tfred.reduction import (
    NonstandardError,
    ReductionError,
    StandardCaseError,
    default_sample,
    eigen_certificate,
    eliminate_on_manifold,
    find_decomposition,
    first_order_correction,
    integral_level,
    lie_derivative,
    nonstandard_decomposition,
    nonstandard_reduce,
    reduce_model,
    reduce_with,
    reduced_initial_value,
    scaled_initial_symbolic,
    slow_manifold_first_order,
    solve_equations_linear,
    standard_decomposition,
    standard_reduce,
    transform_first_integral,
)
from tfred.systems import Partition, apply_scaling, raw_system


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


# -- standard_reduce ------------------------------------------------------------


def test_standard_reduce_mm2d_benchmark():
    spec = mm2d()
    red = standard_reduce(spec.system, Partition.from_fast(spec.system, ["c"]))
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
    red = standard_reduce(sys, Partition.from_fast(sys, ["y"]))
    assert red.field[0].is_zero()


def test_standard_reduce_refuses_singular_g0(mm3d_scaled):
    spec = mm3d()
    with pytest.raises(StandardCaseError):
        standard_reduce(spec.system, Partition.from_fast(spec.system, ["e", "c"]))


def test_standard_reduce_chain3_denominator():
    # ds/dt = -k1*k2*k3*k4*e0*s/d.  d carries six s-monomials and four constant
    # ones (the three km1-led terms plus k2*k3*k4); the extra constant term is
    # pinned by the cofactor oracle below and by a unit-rate numeric check.
    spec = chain3()
    part = Partition.from_fast(spec.system, list(spec.fast))
    red = standard_reduce(spec.system, part)
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
    red_std = standard_reduce(spec.system, part)
    dec = standard_decomposition(spec.system, part)
    red_gen = reduce_with(dec, spec.system.grade(1))
    # restrict the general x-row to the zero-order manifold y = 0
    x_row = red_gen.row("s").subs({"c": 0})
    assert x_row == red_std.field[0]


# -- nonstandard route -------------------------------------------------------------


def test_nonstandard_mm3d_matches_general(mm3d_scaled):
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = nonstandard_decomposition(mm3d_scaled, sample_for(ctx))
    s1, G, R, w = dec.rank_data
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
    red = nonstandard_reduce(scaled, sample_for(ctx))
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
    dec = nonstandard_decomposition(scaled, sample_for(scaled.system.ctx))
    s1, G, R, w = dec.rank_data
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
        nonstandard_decomposition(scaled, sample_for(scaled.system.ctx))
    assert "y2" in str(err.value)


def test_chain3_slowk4_reduces_to_frozen_substrate():
    spec = chain3_slowk4()
    part = Partition.from_fast(spec.system, list(spec.fast))
    scaled = apply_scaling(spec.system, part)
    red = nonstandard_reduce(scaled, sample_for(scaled.system.ctx))
    elim = eliminate_on_manifold(red, [], None)
    assert "s" in elim.states
    assert elim.field[list(elim.states).index("s")].is_zero()


def _transport_model_file(N):
    """transport_binding(N) as a model file, built through the `transport` section."""
    comps = range(1, N + 1)
    return {
        "name": f"transport_binding_N{N}",
        "species": ["s", "p", "c"],
        "reactions": [
            {"reactants": {"s": 1, "p": 1}, "products": {"c": 1}, "rate": "k1"},
            {"reactants": {"c": 1}, "products": {"s": 1, "p": 1}, "rate": "km1"},
        ],
        "parameters": ["k1", "km1"] + [f"{x}0_{a}" for x in "spc" for a in comps],
        "transport": {
            "N": N,
            "species": {
                x: {"kind": "laplacian", "eps_order": int(x != "s"), "rate": f"delta_{x}"} for x in "spc"
            },
        },
        "initial_values": {
            f"{x}{a}": {"base": f"{x}0_{a}", "eps_order": int(x != "p")} for x in "spc" for a in comps
        },
        "fast": [f"s{a}" for a in comps] + [f"c{a}" for a in comps],
    }


def test_transport_binding_7_reduced_rows_stay_small():
    # expression size, not time: with one common denominator per exact solve
    # the largest reduced row has 47 numerator and 8 denominator terms
    spec = model_from_dict(_transport_model_file(7))
    red = reduce_model(spec.system, list(spec.fast))
    assert red.decomposition.mode == "nonstandard"
    assert max(len(row.num.terms) for row in red.field) <= 100
    assert max(len(row.den.terms) for row in red.field) <= 20


# -- slow manifold first order -------------------------------------------------------


def test_first_order_manifold_standard_agreement():
    spec = mm2d()
    part = Partition.from_fast(spec.system, ["c"])
    dec = standard_decomposition(spec.system, part)
    psi = first_order_correction(dec, spec.system.grade(1))
    ctx = spec.system.ctx
    # the standard manifold is c = -eps*G0^(-1)g1: correction must match
    red = standard_reduce(spec.system, part)
    expected = dict(red.eliminated.solved)["c"]
    # Psi0 at y=0 equals G0^-1 g1 = -expected
    assert psi[0].subs({"c": 0}) == -expected


def test_first_order_manifold_zero_h1(mm3d_scaled):
    sys = mm3d_scaled.system
    dec = find_decomposition(sys.grade(0), sample_for(sys.ctx))
    phi = slow_manifold_first_order(dec, [sys.ctx.zero()] * 3)
    for p, m in zip(phi, dec.mu):
        assert p == m


def test_first_order_manifold_invariance_identity(mm3d_scaled):
    # residual D(Phi)*(h0 + eps h1) - (L0 + eps L1)*Phi has no eps^0/eps^1 part
    sys = mm3d_scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), sample_for(ctx))
    h1 = sys.grade(1)
    psi0 = first_order_correction(dec, h1)
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
    solved = solve_equations_linear(list(dec.mu), list(sys.states), allow_underdetermined=True)
    cert = eigen_certificate(dec, n_samples=10, seed=3, solved=solved)
    assert cert.verdict == "pass"
    assert cert.nu_margin > 0
    assert all(s.hurwitz_ok for s in cert.samples)


def test_eigen_certificate_zero_matrix_fails():
    ctx = Context(["x", "y"], ["a"])
    rows = [ctx.zero(), ctx.sym("x") * ctx.sym("y")]
    # custom decomposition with Dmu*P = [[0]]
    from tfred.reduction import Decomposition

    P = RFMatrix(ctx, [[ctx.zero()], [ctx.one()]])
    mu = [RationalFunction.of(ctx.sym("x") * ctx.sym("y"))]
    dec = Decomposition(ctx, ("x", "y"), P, mu, "general")
    # Dmu = (y, x); Dmu*P = x -- force the zero case directly instead
    Pz = RFMatrix(ctx, [[ctx.one()], [ctx.zero()]])
    decz = Decomposition(ctx, ("x", "y"), Pz, mu, "general")
    # Dmu*Pz = y ... evaluate certificate on given samples with y = 0 is off-manifold;
    # simplest: matrix [[0]] through mu = x with P = (0,1)
    mu2 = [RationalFunction.of(ctx.sym("x"))]
    dec2 = Decomposition(ctx, ("x", "y"), RFMatrix(ctx, [[ctx.zero()], [ctx.one()]]), mu2, "general")
    cert = eigen_certificate(dec2, sample_points=[{**default_sample(ctx, 5), "x": Fraction(0)}])
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
