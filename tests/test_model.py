"""Graded systems: network compilation, scalings, regradings, first integrals, transport."""

import os
import random
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tfred
from tfred.matrices import fraction_solve
from tfred.rational import Context, Polynomial, RationalFunction, substitute
from tfred.networks import (
    LAPLACIAN,
    MATRIX,
    Reaction,
    ReactionNetwork,
    SpeciesTransport,
    TransportSpec,
    build_transport_system,
    compartment_name,
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
    apply_scaling,
    check_ltc,
    eliminate_with_integral,
    grade_parameter,
    is_first_integral,
    linear_change_of_states,
    linear_first_integrals,
    raw_system,
    star_name,
)
from conftest import flattened, mm_network


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
    sys_slow = compile_network(slow)
    # the slow network's context names the same symbols in the same order
    assert [s.name for s in sys_slow.ctx.symbols] == [s.name for s in base.ctx.symbols]
    # oracle: substitute k2 -> eps*k2 in the all-fast compilation
    eps = base.ctx.sym("eps")
    for i in range(3):
        direct = base.grade(0)[i].subs({"k2": eps * base.ctx.sym("k2")})
        graded = sys_slow.grade(0)[i].relabel(base.ctx) + eps * sys_slow.grade(1)[i].relabel(base.ctx)
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


# -- grade_parameter ---------------------------------------------------------------


def layout(sys):
    """A graded system's symbol names, lowest order and grades, each entry's terms in dict order."""
    grades = [[list(p.terms.items()) for p in g] for g in sys.grades]
    return [s.name for s in sys.ctx.symbols], sys.lowest_order, grades


def substitution_grade_parameter(sys, name, order):
    """p -> eps^order * p substituted into the eps-carrying rows, their grades then split back out."""
    eps = sys.ctx.sym(sys.ctx.eps.name)
    rows = [p.subs({name: eps ** order * sys.ctx.sym(name)}) for p in flattened(sys)]
    return raw_system(sys.ctx, rows, sys.initial_values)


def test_epsilon_grade_linear_direction(mm3d):
    ctx = mm3d.ctx
    sys = grade_parameter(mm3d, "km1", 1)
    # km1-terms move to grade 1, the rest stays in grade 0
    assert sys.grade(0)[0] == ctx.parse_poly("-k1*e*s")
    assert sys.grade(1)[0] == ctx.parse_poly("km1*c")
    assert sys.grade(0)[2] == ctx.parse_poly("k1*e*s - k2*c")
    assert sys.grade(1)[2] == ctx.parse_poly("-km1*c")


def test_epsilon_grade_quadratic_dependence_substitution_oracle():
    ctx = Context(["x"], ["a"])
    rows = [ctx.parse_poly("a^2*x + a*x + x")]
    sys = grade_parameter(raw_system(ctx, rows), "a", 1)
    # oracle: direct substitution a -> eps*a
    direct = rows[0].subs({"a": ctx.sym("eps") * ctx.sym("a")})
    assert direct == flattened(sys)[0]
    assert sys.grade(2)[0] == ctx.parse_poly("a^2*x")


def test_epsilon_grade_term_order_does_not_follow_string_hashing():
    # compiled float fields sum a row's terms in dict order, so that order must
    # be the same in every interpreter, whatever its hash seed
    code = (
        "from tfred.builtin_models import chain3, mm2d, mm_diffusion\n"
        "from tfred.rational import Context\n"
        "from tfred.systems import raw_system, grade_parameter\n"
        "ctx = Context(['x', 'y'], ['a', 'b'])\n"
        "rows = [ctx.parse_poly('a*b*x*y + a^2*x + eps*b*x'), ctx.parse_poly('b*y + a*y')]\n"
        "sys = grade_parameter(raw_system(ctx, rows), 'a', 2)\n"
        "for s in (sys, chain3().system, mm2d().system, mm_diffusion().system):\n"
        "    print([list(p.terms) for g in s.grades for p in g])\n"
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
        assert flattened(sys)[i] == mm3d.grade(0)[i].subs({"k2": eps * mm3d.ctx.sym("k2")})


def test_grade_parameter_refuses_a_state_and_a_negative_order(mm3d):
    with pytest.raises(ModelError, match="s is not a parameter"):
        grade_parameter(mm3d, "s", 1)
    with pytest.raises(ValueError):
        grade_parameter(mm3d, "k2", -1)


GRADING_CTXS = [Context(["x", "y"], ["a", "b"]), Context(["x", "y", "z"], ["a", "b"])]


@st.composite
def graded_systems(draw, ctx):
    """A system over ctx of up to three grades, each term of degree at most 3 in each parameter."""
    n = len(ctx.states)

    def term():
        c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 2)))
        e = [draw(st.integers(0, 2)) for _ in range(n)] + [draw(st.integers(0, 3)) for _ in ctx.params]
        return Polynomial(ctx, {(*e, 0): c})

    def row():
        acc = ctx.zero()
        for _ in range(draw(st.integers(0, 3))):
            acc = acc + term()
        return acc

    return GradedSystem(ctx, [[row() for _ in range(n)] for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRADING_CTXS).flatmap(graded_systems), st.sampled_from(["a", "b"]), st.integers(0, 3))
def test_grade_parameter_equals_the_substitution(sys, name, order):
    assert layout(grade_parameter(sys, name, order)) == layout(substitution_grade_parameter(sys, name, order))


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
    flat_scaled = flattened(scaled.system)
    flat_orig = flattened(mm3d)
    for i, name in enumerate(mm3d.states):
        # undo the substitution: y_star -> y/eps, back over the original symbols
        restored = RationalFunction(*substitute(flat_scaled[i], octx, back))
        if name in part.fast:
            restored = restored * eps
        assert restored == flat_orig[i]


def substitution_scaling(sys, part):
    """The scaling as a substitution y -> eps*y_star, its grades then split back out by eps."""
    new_states = [star_name(n) if n in part.fast else n for n in sys.states]
    new_ctx = Context(new_states, [p.name for p in sys.ctx.params])
    eps = new_ctx.sym(new_ctx.eps.name)
    images = {n: eps * new_ctx.sym(star_name(n)) for n in part.fast}
    per_order = {}
    fast_idx = {sys.state_index(n) for n in part.fast}
    for order, g in zip(sys.orders(), sys.grades):
        for i, p in enumerate(g):
            q = substitute(p, new_ctx, images)[0]
            shift = -1 if i in fast_idx else 0
            for k, coeff in q.eps_coefficients().items():
                row = per_order.setdefault(order + k + shift, [new_ctx.zero()] * sys.n)
                row[i] = row[i] + coeff
    if not per_order:
        per_order = {0: [new_ctx.zero()] * sys.n}
    lo, hi = min(per_order), max(per_order)
    return lo, [per_order.get(k, [new_ctx.zero()] * sys.n) for k in range(lo, hi + 1)]


SCALING_CTX = Context(["u", "v", "w"], ["a", "b"])


@st.composite
def scaling_cases(draw):
    """A raw system over SCALING_CTX, a partition and the LTC verdict the system was built to have."""
    ctx = SCALING_CTX
    states = [s.name for s in ctx.states]
    fast = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2, unique=True))
    slow = [n for n in states if n not in fast]
    kind = draw(st.sampled_from([FULL_LTC, CONSISTENT_ONLY, INCONSISTENT]))

    def term(names):
        t = ctx.const(Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 2))))
        for n in draw(st.lists(st.sampled_from(names), max_size=3)):
            t = t * ctx.sym(n)
        return t

    eps = ctx.sym("eps")
    rows = []
    for _ in states:
        row = ctx.zero()
        for _ in range(draw(st.integers(0, 3))):
            # grade 0 vanishes at fast = 0: each of its terms carries a fast state
            row = row + term(states + ["a", "b"]) * ctx.sym(draw(st.sampled_from(fast)))
        for g in (1, 2):
            for _ in range(draw(st.integers(0, 2))):
                row = row + term(states + ["a", "b"]) * eps**g
        rows.append(row)
    # a term free of the fast states at grade 0: on a slow row, or on a fast one
    if kind != FULL_LTC:
        owner = draw(st.sampled_from(slow if kind == CONSISTENT_ONLY else fast))
        rows[states.index(owner)] = rows[states.index(owner)] + term(slow + ["a", "b"])
    bases = st.sampled_from([0, 1, Fraction(1, 2), "a"])
    ivs = {n: InitialValue(draw(bases), draw(st.integers(0, 2))) for n in states}
    sys = raw_system(ctx, rows, ivs)
    return sys, Partition.from_fast(sys, fast), kind


@settings(max_examples=150, deadline=None)
@given(scaling_cases())
def test_scaling_by_degree_equals_the_substitution(case):
    sys, part, kind = case
    assert check_ltc(sys, part).status == kind
    scaled = apply_scaling(sys, part)
    lo, grades = substitution_scaling(sys, part)
    got = scaled.system
    renamed = [star_name(n) if n in part.fast else n for n in sys.states]
    assert [s.name for s in got.ctx.symbols] == renamed + ["a", "b", "eps"]
    assert got.lowest_order == lo
    assert [[list(p.terms.items()) for p in g] for g in got.grades] == [[list(p.terms.items()) for p in g] for g in grades]
    assert scaled.laurent_flag == min(lo, 0) == (-1 if kind == INCONSISTENT else 0)
    assert scaled.iv_consistent == all(
        sys.initial_values[n].order >= 1 or sys.initial_values[n].is_zero() for n in part.fast)


def test_ltc_iff_scaled_grade0_slow_block_zero(mm3d):
    for fast in (["e", "c"], ["c"], ["s"]):
        part = Partition.from_fast(mm3d, fast)
        verdict = check_ltc(mm3d, part)
        scaled = apply_scaling(mm3d, part)
        slow0 = scaled.slow_block(0)
        is_full = verdict.status == FULL_LTC
        flag_and_zero = scaled.laurent_flag == 0 and all(p.is_zero() for p in slow0)
        assert is_full == flag_and_zero


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


def eps_multiplying_transport(net, tspec):
    """build_transport_system writing eps^order times each flux and law into one field, graded at the end."""
    N = tspec.N
    states = [compartment_name(sp, a) for sp in net.species for a in range(1, N + 1)]
    params = net.params()
    for law in tspec.species.values():
        if law.kind == LAPLACIAN and law.rate not in params:
            params.append(law.rate)
    ctx = Context(states, params)
    rows = [ctx.zero() for _ in states]
    eps = ctx.sym("eps")
    for a in range(1, N + 1):
        for r in net.reactions:
            flux = ctx.sym(r.rate) * eps ** r.eps_order
            for sp, k in r.reactants.items():
                flux = flux * ctx.sym(compartment_name(sp, a)) ** k
            for sp in net.species:
                delta = r.products.get(sp, 0) - r.reactants.get(sp, 0)
                if delta:
                    i = ctx.index[compartment_name(sp, a)]
                    rows[i] = rows[i] + flux * delta
    for sp, law in tspec.species.items():
        if law.kind == LAPLACIAN:
            theta, scale = neumann_laplacian(N), ctx.sym(law.rate)
        else:
            theta, scale = law.matrix, ctx.one()
        for a in range(N):
            i = ctx.index[compartment_name(sp, a + 1)]
            acc = ctx.zero()
            for b in range(N):
                if theta[a][b]:
                    acc = acc + ctx.sym(compartment_name(sp, b + 1)) * theta[a][b]
            rows[i] = rows[i] + eps ** law.eps_order * scale * acc
    return raw_system(ctx, rows)


@st.composite
def transport_cases(draw):
    """A random network of eps-orders 0 and 1 and Laplacian, matrix or absent laws over N = 1..4."""
    species = ["u", "v", "w"][: draw(st.integers(1, 3))]

    def stoichiometry():
        return {sp: k for sp in species if (k := draw(st.integers(0, 2)))}

    reactions = [
        Reaction(stoichiometry(), stoichiometry(), f"k{r}", draw(st.integers(0, 1)))
        for r in range(draw(st.integers(0, 4)))
    ]
    N = draw(st.integers(1, 4))
    laws = {}
    for sp in species:
        kind, order = draw(st.sampled_from([None, LAPLACIAN, MATRIX])), draw(st.integers(0, 1))
        if kind == LAPLACIAN:
            laws[sp] = SpeciesTransport(LAPLACIAN, order, rate=f"d_{sp}")
        elif kind == MATRIX:
            row = st.tuples(*[st.integers(-2, 2).map(Fraction)] * N)
            laws[sp] = SpeciesTransport(MATRIX, order, matrix=draw(st.tuples(*[row] * N)))
    return ReactionNetwork(species, reactions), TransportSpec(N, laws)


@settings(max_examples=100, deadline=None)
@given(transport_cases())
def test_network_compilers_equal_the_eps_multiplying_builder(case):
    net, tspec = case
    assert layout(build_transport_system(net, tspec)) == layout(eps_multiplying_transport(net, tspec))
    # one compartment without transport is the plain network, its states renamed
    plain = eps_multiplying_transport(net, TransportSpec(1, {}))
    names, lowest, grades = layout(compile_network(net))
    renamed = [compartment_name(n, 1) if n in net.species else n for n in names]
    assert (renamed, lowest, grades) == layout(plain)


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


def substitution_elimination(sys, weights, state, level, level_order):
    """eliminate_with_integral through the eps-carrying rows, their grades then split back out."""
    new_states = [n for n in sys.states if n != state]
    new_ctx = Context(new_states, [p.name for p in sys.ctx.params])
    repl = new_ctx.sym(level)
    for n, wi in weights.items():
        if n != state:
            repl = repl - new_ctx.sym(n) * wi
    repl = repl.exact_divide(new_ctx.const(weights[state]))
    rows = flattened(sys)
    keep = [substitute(rows[sys.state_index(n)], new_ctx, {state: repl})[0] for n in new_states]
    out = raw_system(new_ctx, keep, {n: sys.initial_values[n] for n in new_states})
    return substitution_grade_parameter(out, level, level_order) if level_order else out


def substitution_change_of_states(sys, B, new_names):
    """linear_change_of_states through the eps-carrying rows, their grades then split back out."""
    n = sys.n
    cols = [fraction_solve(B, [int(i == j) for i in range(n)]) for j in range(n)]
    new_ctx = Context(list(new_names), [p.name for p in sys.ctx.params])
    images = {}
    for i, old in enumerate(sys.states):
        expr = new_ctx.zero()
        for j, nn in enumerate(new_names):
            if cols[j][i]:
                expr = expr + new_ctx.sym(nn) * cols[j][i]
        images[old] = expr
    substituted = [substitute(p, new_ctx, images)[0] for p in flattened(sys)]
    rows = []
    for i in range(n):
        acc = new_ctx.zero()
        for j in range(n):
            if B[i][j]:
                acc = acc + substituted[j] * B[i][j]
        rows.append(acc)
    return raw_system(new_ctx, rows)


TRANSFORM_CTXS = [Context(["x", "y"], ["a", "b", "L"]), Context(["x", "y", "z"], ["a", "b", "L"])]


@st.composite
def conserving_cases(draw):
    """A system with the linear first integral w, the state it eliminates and the level's eps-order."""
    sys = draw(st.sampled_from(TRANSFORM_CTXS).flatmap(graded_systems))
    state = draw(st.sampled_from(sys.states))
    w = {n: Fraction(draw(st.integers(-2, 2))) for n in sys.states}
    w[state] = Fraction(draw(st.integers(-2, 2).filter(bool)), draw(st.integers(1, 3)))
    i = sys.state_index(state)
    grades = []
    for g in sys.grades:
        # the eliminated state's row makes w . h vanish in every grade
        rest = sys.ctx.zero()
        for n, p in zip(sys.states, g):
            if n != state and w[n]:
                rest = rest + p * w[n]
        grades.append([p if k != i else rest * (-1 / w[state]) for k, p in enumerate(g)])
    sys = GradedSystem(sys.ctx, grades)
    assert is_first_integral(sys, [w[n] for n in sys.states])
    return sys, w, state, draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(conserving_cases())
def test_eliminate_with_integral_equals_the_substitution(case):
    sys, w, state, level_order = case
    got = eliminate_with_integral(sys, w, state, "L", level_order)
    assert layout(got) == layout(substitution_elimination(sys, w, state, "L", level_order))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TRANSFORM_CTXS).flatmap(graded_systems), st.data())
def test_linear_change_of_states_equals_the_substitution(sys, data):
    n = sys.n
    B = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    assume(all(fraction_solve(B, [int(i == j) for i in range(n)]) is not None for j in range(n)))
    names = [f"z{i}" for i in range(n)]
    assert layout(linear_change_of_states(sys, B, names)) == layout(substitution_change_of_states(sys, B, names))
