"""Graded systems: network compilation, scalings, rescaling, first integrals, transport."""

import os
import random
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable

import pytest

import tfred
from tfred.rational import Context, RationalFunction, substitute
from tfred.networks import (
    LAPLACIAN,
    Reaction,
    ReactionNetwork,
    SpeciesTransport,
    TransportSpec,
    build_transport_system,
    compile_network,
    neumann_laplacian,
)
from tfred.systems import (
    CONSISTENT_ONLY,
    FULL_LTC,
    INCONSISTENT,
    GradedSystem,
    InitialValue,
    ModelError,
    Partition,
    TO_FAST,
    TO_SLOW,
    apply_scaling,
    check_ltc,
    eliminate_with_integral,
    epsilon_grade,
    grade_parameter,
    is_first_integral,
    linear_change_of_states,
    linear_first_integrals,
    raw_system,
    star_name,
    time_rescale,
)
from conftest import mm_network


def reaction_flux_at(net: ReactionNetwork, point) -> dict[str, Fraction]:
    """Independent flux-summation evaluation of the network's net rates.

    A cross-check oracle for the compiled polynomial field; eps is taken at
    the value bound in ``point``.
    """
    eps = Fraction(point.get("eps", 1))
    out = {sp: Fraction(0) for sp in net.species}
    for r in net.reactions:
        v = Fraction(point[r.rate]) * eps ** r.eps_order
        for sp, k in r.reactants.items():
            v *= Fraction(point[sp]) ** k
        for sp in net.species:
            delta = r.products.get(sp, 0) - r.reactants.get(sp, 0)
            if delta:
                out[sp] += delta * v
    return out


# -- compile_network -----------------------------------------------------------


def test_compile_mm_matches_mass_action_rows(mm3d):
    ctx = mm3d.ctx
    h0 = mm3d.grade(0)
    assert h0[0] == ctx.parse_poly("-k1*e*s + km1*c")
    assert h0[1] == ctx.parse_poly("-k1*e*s + (km1 + k2)*c")
    assert h0[2] == ctx.parse_poly("k1*e*s - (km1 + k2)*c")
    assert mm3d.orders() == [0]


def test_compile_empty_network_is_zero():
    net = ReactionNetwork(species=["a", "b"], reactions=[])
    sys = compile_network(net)
    assert all(p.is_zero() for p in sys.grade(0))


def test_compile_slow_k2_agrees_with_substitution_oracle():
    net = mm_network()
    slow = ReactionNetwork(
        species=net.species,
        reactions=[
            Reaction({"e": 1, "s": 1}, {"c": 1}, "k1"),
            Reaction({"c": 1}, {"e": 1, "s": 1}, "km1"),
            Reaction({"c": 1}, {"e": 1}, "k2", eps_order=1),
        ],
        extra_params=["e0", "s0"],
    )
    base = compile_network(mm_network())
    sys_slow = compile_network(slow, ctx=base.ctx)
    # oracle: substitute k2 -> eps*k2 in the all-fast compilation
    eps = base.ctx.sym("eps")
    for i in range(3):
        direct = base.grade(0)[i].subs({"k2": eps * base.ctx.sym("k2")})
        graded = sys_slow.grade(0)[i] + eps * sys_slow.grade(1)[i]
        assert direct == graded


def test_compile_flux_oracle_random_points(mm3d):
    net = mm_network()
    rng = random.Random(42)
    h0 = mm3d.grade(0)
    for _ in range(10):
        pt = {
            name: Fraction(rng.randint(1, 30), rng.randint(1, 9))
            for name in ("s", "e", "c", "k1", "km1", "k2", "e0", "s0", "eps")
        }
        fluxes = reaction_flux_at(net, pt)
        for i, sp in enumerate(("s", "e", "c")):
            assert h0[i].eval(pt) == fluxes[sp]


# -- epsilon_grade ----------------------------------------------------------------


def test_epsilon_grade_linear_direction(mm3d):
    ctx = mm3d.ctx
    sys = epsilon_grade(ctx, mm3d.grade(0), pivot={"km1": 0}, direction={"km1": "km1"})
    # km1-terms move to grade 1, the rest stays in grade 0
    assert sys.grade(0)[0] == ctx.parse_poly("-k1*e*s")
    assert sys.grade(1)[0] == ctx.parse_poly("km1*c")
    assert sys.grade(0)[2] == ctx.parse_poly("k1*e*s - k2*c")
    assert sys.grade(1)[2] == ctx.parse_poly("-km1*c")


def test_epsilon_grade_quadratic_dependence_substitution_oracle():
    ctx = Context(["x"], ["a"])
    rows = [ctx.parse_poly("a^2*x + a*x + x")]
    sys = epsilon_grade(ctx, rows, pivot={"a": 1}, direction={"a": "a"})
    # oracle: direct substitution a -> 1 + eps*a
    direct = rows[0].subs({"a": ctx.const(1) + ctx.sym("eps") * ctx.sym("a")})
    assert direct == sys.flatten()[0]
    assert not sys.grade(2)[0].is_zero()


def test_epsilon_grade_term_order_does_not_follow_string_hashing():
    # compiled float fields sum a row's terms in dict order, so that order must
    # be the same in every interpreter, whatever its hash seed
    code = (
        "from tfred.rational import Context\n"
        "from tfred.systems import epsilon_grade\n"
        "ctx = Context(['x', 'y'], ['a', 'b'])\n"
        "rows = [ctx.parse_poly('a*b*x*y + a^2*x'), ctx.parse_poly('b*y')]\n"
        "sys = epsilon_grade(ctx, rows, {'a': 1, 'b': 2}, {'a': 'a', 'b': 'b'})\n"
        "print([list(p.terms) for g in sys.grades for p in g])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tfred.__file__).parent.parent)}
    orders = {
        subprocess.run(
            [executable, "-c", code], env={**env, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(6)
    }
    assert len(orders) == 1


def test_grade_parameter_roundtrip(mm3d):
    sys = grade_parameter(mm3d, "k2", 1)
    eps = mm3d.ctx.sym("eps")
    for i in range(3):
        assert sys.flatten()[i] == mm3d.grade(0)[i].subs({"k2": eps * mm3d.ctx.sym("k2")})


# -- check_ltc ------------------------------------------------------------------


def test_check_ltc_mm_fast_ec_is_full(mm3d):
    verdict = check_ltc(mm3d, Partition.from_fast(mm3d, ["e", "c"]))
    assert verdict.status == FULL_LTC


def test_check_ltc_mm_fast_s_inconsistent_with_witness(mm3d):
    verdict = check_ltc(mm3d, Partition.from_fast(mm3d, ["s"]))
    assert verdict.status == INCONSISTENT
    name, residual = verdict.witness
    assert name == "s"
    assert residual == mm3d.ctx.parse_poly("km1*c")


def test_check_ltc_consistent_only():
    ctx = Context(["x", "y"], ["a"])
    sys = raw_system(ctx, [ctx.parse_poly("a*x"), ctx.parse_poly("x*y")])
    verdict = check_ltc(sys, Partition.from_fast(sys, ["y"]))
    assert verdict.status == CONSISTENT_ONLY
    assert verdict.witness[0] == "x"


# -- apply_scaling -----------------------------------------------------------------


def test_scaling_mm2d_standard_form(mm2d):
    scaled = apply_scaling(mm2d, Partition.from_fast(mm2d, ["c"]))
    sys = scaled.system
    ctx = sys.ctx
    assert scaled.laurent_flag == 0
    assert scaled.iv_consistent
    # slow row: eps * (-k1*e0*s + (k1*s + km1)*c_star)
    assert sys.grade(0)[sys.state_index("s")].is_zero()
    assert sys.grade(1)[sys.state_index("s")] == ctx.parse_poly("-k1*e0*s + (k1*s + km1)*c_star")
    # fast row: k1*e0*s - (k1*s + km1 + k2)*c_star at grade 0
    assert sys.grade(0)[sys.state_index("c_star")] == ctx.parse_poly(
        "k1*e0*s - (k1*s + km1 + k2)*c_star"
    )


def test_scaling_mm3d_gives_displayed_system(mm3d):
    scaled = apply_scaling(mm3d, Partition.from_fast(mm3d, ["e", "c"]))
    sys = scaled.system
    ctx = sys.ctx
    assert sys.grade(1)[sys.state_index("s")] == ctx.parse_poly("-k1*e_star*s + km1*c_star")
    assert sys.grade(0)[sys.state_index("e_star")] == ctx.parse_poly(
        "-k1*e_star*s + (km1 + k2)*c_star"
    )
    assert sys.grade(0)[sys.state_index("c_star")] == ctx.parse_poly(
        "k1*e_star*s - (km1 + k2)*c_star"
    )
    assert scaled.laurent_flag == 0
    assert scaled.iv_consistent  # e0 had order 1, c starts at zero


def test_scaling_zero_system_stays_zero():
    ctx = Context(["x", "y"])
    sys = raw_system(ctx, [ctx.zero(), ctx.zero()])
    scaled = apply_scaling(sys, Partition.from_fast(sys, ["y"]))
    assert all(p.is_zero() for g in scaled.system.grades for p in g)


def test_scaling_inconsistent_partition_is_laurent(mm3d):
    scaled = apply_scaling(mm3d, Partition.from_fast(mm3d, ["s"]))
    assert scaled.laurent_flag == -1


def test_scaling_iv_certificate_flags_order_zero_data(mm3d):
    bad = mm3d.with_initial_values({"e": InitialValue("e0", 0)})
    scaled = apply_scaling(bad, Partition.from_fast(bad, ["e", "c"]))
    assert not scaled.iv_consistent


def test_scaling_roundtrip_identity(mm3d):
    part = Partition.from_fast(mm3d, ["e", "c"])
    scaled = apply_scaling(mm3d, part)
    octx = mm3d.ctx
    eps = RationalFunction.of(octx.sym("eps"))
    back = {star_name(n): octx.sym(n) / eps for n in part.fast}
    flat_scaled = scaled.system.flatten_rf()
    flat_orig = mm3d.flatten_rf()
    for i, name in enumerate(mm3d.states):
        # undo the substitution: y_star -> y/eps, back over the original symbols
        row = flat_scaled[i]
        restored = RationalFunction(*substitute(row.num, octx, back)) / RationalFunction(
            *substitute(row.den, octx, back)
        )
        if name in part.fast:
            restored = restored * eps
        assert restored == flat_orig[i]


def test_ltc_iff_scaled_grade0_slow_block_zero(mm3d):
    for fast in (["e", "c"], ["c"], ["s"]):
        part = Partition.from_fast(mm3d, fast)
        verdict = check_ltc(mm3d, part)
        scaled = apply_scaling(mm3d, part)
        slow0 = scaled.slow_block(0)
        is_full = verdict.status == FULL_LTC
        flag_and_zero = scaled.laurent_flag == 0 and all(p.is_zero() for p in slow0)
        assert is_full == flag_and_zero


# -- time_rescale -------------------------------------------------------------------


def test_time_rescale_standard_form_to_slow_time(mm2d):
    scaled = apply_scaling(mm2d, Partition.from_fast(mm2d, ["c"]))
    slow = time_rescale(scaled.system, TO_SLOW)
    # x row lands at order 0, fast row at order -1
    assert slow.lowest_order == -1
    idx_s = slow.state_index("s")
    assert slow.grade(0)[idx_s] == slow.ctx.parse_poly("-k1*e0*s + (k1*s + km1)*c_star")
    assert not slow.grade(-1)[slow.state_index("c_star")].is_zero()


def test_time_rescale_roundtrip(mm3d):
    back = time_rescale(time_rescale(mm3d, TO_SLOW), TO_FAST)
    assert back.grades == mm3d.grades and back.lowest_order == mm3d.lowest_order


def test_time_rescale_linex_example():
    ctx = Context(["x", "y"], ["a", "b", "c"])
    sys = raw_system(ctx, [ctx.parse_poly("eps*a*x + b*y"), ctx.parse_poly("c*y")])
    scaled = apply_scaling(sys, Partition.from_fast(sys, ["y"]))
    slow = time_rescale(scaled.system, TO_SLOW)
    assert slow.lowest_order == -1
    assert slow.grade(0)[0] == slow.ctx.parse_poly("a*x + b*y_star")
    assert slow.grade(-1)[1] == slow.ctx.parse_poly("c*y_star")
    assert slow.grade(-1)[0].is_zero()


# -- linear first integrals -----------------------------------------------------------


def test_first_integrals_mm(mm3d):
    basis = linear_first_integrals(mm3d)
    assert len(basis) == 1
    assert basis[0] == [Fraction(0), Fraction(1), Fraction(1)]  # e + c


def test_first_integrals_pure_diffusion():
    ctx = Context([f"u{a}" for a in range(1, 5)], ["d"])
    D = neumann_laplacian(4)
    rows = []
    for a in range(4):
        acc = ctx.zero()
        for b in range(4):
            if D[a][b]:
                acc = acc + ctx.sym(f"u{b+1}") * D[a][b]
        rows.append(ctx.sym("d") * acc)
    sys = raw_system(ctx, rows)
    basis = linear_first_integrals(sys)
    assert [Fraction(1)] * 4 in basis


def test_first_integrals_ptm_contains_weighted_sum():
    # two substrates, one intermediate: u1 + u2 <-> v1
    net = ReactionNetwork(
        species=["u1", "u2", "v1"],
        reactions=[
            Reaction({"u1": 1, "u2": 1}, {"v1": 1}, "a"),
            Reaction({"v1": 1}, {"u1": 1, "u2": 1}, "b"),
        ],
    )
    sys = compile_network(net)
    assert is_first_integral(sys, [1, 1, 2])  # sum u_i + 2 sum v_k
    basis = linear_first_integrals(sys)
    assert len(basis) == 2


def test_first_integral_property_per_grade(mm3d):
    graded = grade_parameter(mm3d, "k2", 1)
    for w in linear_first_integrals(graded):
        assert is_first_integral(graded, w)


# -- transport ---------------------------------------------------------------------


def binding_network():
    return ReactionNetwork(
        species=["s", "p", "c"],
        reactions=[
            Reaction({"s": 1, "p": 1}, {"c": 1}, "k1"),
            Reaction({"c": 1}, {"s": 1, "p": 1}, "km1"),
        ],
    )


def test_transport_n1_is_plain_network():
    net = binding_network()
    tspec = TransportSpec(1, {"s": SpeciesTransport(LAPLACIAN, 1, rate="delta_s")})
    sys = build_transport_system(net, tspec)
    assert sys.grade(0)[0] == sys.ctx.parse_poly("-k1*s1*p1 + km1*c1")
    assert len(sys.grades) == 1  # transport vanished


def test_transport_mm_diffusion_matches_display():
    # all species slow diffusion
    net = mm_network(extra_params=())
    tspec = TransportSpec(
        3,
        {
            "s": SpeciesTransport(LAPLACIAN, 1, rate="theta_s"),
            "e": SpeciesTransport(LAPLACIAN, 1, rate="theta_e"),
            "c": SpeciesTransport(LAPLACIAN, 1, rate="theta_c"),
        },
    )
    sys = build_transport_system(net, tspec)
    ctx = sys.ctx
    # interior compartment of s: reaction part at grade 0, diffusion at grade 1
    i = sys.state_index("s2")
    assert sys.grade(0)[i] == ctx.parse_poly("-k1*e2*s2 + km1*c2")
    assert sys.grade(1)[i] == ctx.parse_poly("theta_s*(s1 - 2*s2 + s3)")
    # boundary row uses the reflecting stencil
    j = sys.state_index("c1")
    assert sys.grade(1)[j] == ctx.parse_poly("theta_c*(c2 - c1)")


def test_transport_binding_slow_scaled_display():
    # every species slow transport; fast variables are all s and c compartments
    net = binding_network()
    N = 3
    tspec = TransportSpec(
        N,
        {
            "s": SpeciesTransport(LAPLACIAN, 1, rate="delta_s"),
            "p": SpeciesTransport(LAPLACIAN, 1, rate="delta_p"),
            "c": SpeciesTransport(LAPLACIAN, 1, rate="delta_c"),
        },
    )
    sys = build_transport_system(net, tspec)
    fast = [f"s{a}" for a in range(1, N + 1)] + [f"c{a}" for a in range(1, N + 1)]
    scaled = apply_scaling(sys, Partition.from_fast(sys, fast))
    out = scaled.system
    ctx = out.ctx
    assert scaled.laurent_flag == 0
    # ds*_2/dt = -k1 s*_2 p_2 + km1 c*_2 + eps*delta_s*(...)
    i = out.state_index("s2_star")
    assert out.grade(0)[i] == ctx.parse_poly("-k1*s2_star*p2 + km1*c2_star")
    assert out.grade(1)[i] == ctx.parse_poly("delta_s*(s1_star - 2*s2_star + s3_star)")
    # dp_2/dt = eps*(-k1 s*_2 p_2 + km1 c*_2 + delta_p*(...))
    j = out.state_index("p2")
    assert out.grade(0)[j].is_zero()
    assert out.grade(1)[j] == ctx.parse_poly(
        "-k1*s2_star*p2 + km1*c2_star + delta_p*(p1 - 2*p2 + p3)"
    )


def test_transport_all_ones_is_integral_of_transport_part():
    net = ReactionNetwork(species=["s"], reactions=[])
    tspec = TransportSpec(5, {"s": SpeciesTransport(LAPLACIAN, 0, rate="delta_s")})
    sys = build_transport_system(net, tspec)
    assert is_first_integral(sys, [1] * 5)


# -- linear change of states ----------------------------------------------------------


def test_linear_change_of_states_total_enzyme(mm3d):
    # w = e + c; in the closed network the total is conserved, so its row is 0
    B = [[1, 0, 0], [0, 0, 1], [0, 1, 1]]
    out = linear_change_of_states(mm3d, B, ["s", "c", "w"])
    ctx = out.ctx
    assert out.grade(0)[out.state_index("s")] == ctx.parse_poly("-k1*(w - c)*s + km1*c")
    assert out.grade(0)[out.state_index("c")] == ctx.parse_poly("k1*(w - c)*s - (km1 + k2)*c")
    assert out.grade(0)[out.state_index("w")].is_zero()
    assert out.initial_values["w"] == InitialValue("e0", 1)


def test_elimination_produces_reduced_2d(mm2d):
    ctx = mm2d.ctx
    assert tuple(mm2d.states) == ("s", "c")
    assert mm2d.grade(0)[0] == ctx.parse_poly("(k1*s + km1)*c")
    assert mm2d.grade(1)[0] == ctx.parse_poly("-k1*e0*s")
    assert mm2d.grade(0)[1] == ctx.parse_poly("-(k1*s + km1 + k2)*c")
    assert mm2d.grade(1)[1] == ctx.parse_poly("k1*e0*s")


def test_elimination_refuses_zero_weight_on_eliminated_state(mm3d):
    for weights in ({"e": 0, "c": 1}, {"c": 1}):
        with pytest.raises(ModelError, match="needs nonzero weight"):
            eliminate_with_integral(mm3d, weights, "e", "e0")


def test_elimination_refuses_weights_that_are_no_first_integral(mm3d):
    # s + c is not conserved: c -> e at rate k2 drains it
    with pytest.raises(ModelError, match="not a linear first integral"):
        eliminate_with_integral(mm3d, {"s": 1, "c": 1}, "s", "s0")
    # with k2 slow, s + c is conserved by the fast grade but not by the slow one
    net = mm_network()
    slow_k2 = ReactionNetwork(
        species=net.species,
        reactions=[Reaction(r.reactants, r.products, r.rate, int(r.rate == "k2")) for r in net.reactions],
        extra_params=["e0", "s0"],
    )
    sys = compile_network(slow_k2)
    assert is_first_integral(GradedSystem(sys.ctx, [sys.grade(0)], sys.initial_values, 0), [1, 0, 1])
    with pytest.raises(ModelError, match="not a linear first integral"):
        eliminate_with_integral(sys, {"s": 1, "c": 1}, "s", "s0")
    # a weight on a name that is no state is refused as well
    with pytest.raises(ModelError, match="unknown states"):
        eliminate_with_integral(mm3d, {"e": 1, "c": 1, "q": 1}, "e", "e0")
