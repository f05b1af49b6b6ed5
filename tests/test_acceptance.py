"""Acceptance gate: the twelve headline checks, one pass/fail line each.

Each criterion is exercised at its stated tolerance and budget.  Symbolic
comparisons are exact (cross-multiplied); numeric ones carry explicit bands.
Run with -s to see the per-criterion lines.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

from tfred.builtin_models import (
    chain3,
    chain3_slowk4,
    inhibitor,
    load_builtin,
    mm2d,
    mm3d,
    mm3d_deg,
    mm_diffusion,
    transport_binding,
)
from tfred.cli import main as cli_main
from tfred.ltc import minimal_ltc_sets, preassigned_conditions
from tfred.matrices import RFMatrix, determinant, hadamard_factor, jacobian
from tfred.rational import Context, RationalFunction
from tfred.reduction import (
    default_sample,
    eliminate_on_manifold,
    fast_linear_integrals,
    find_decomposition,
    first_order_correction,
    nonstandard_decomposition,
    nonstandard_reduce,
    reduce_with,
    reduced_initial_value,
    scaled_initial_symbolic,
    standard_decomposition,
    standard_reduce,
)
from tfred.sim import convergence_study, default_ladder, iv_inconsistency_demo
from tfred.systems import FULL_LTC, Partition, apply_scaling, check_ltc, raw_system


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def stopwatch():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


# ---------------------------------------------------------------------------


def test_criterion_01_mm_standard_reduction(capsys):
    elapsed = stopwatch()
    code = cli_main(["reduce", "--builtin", "mm2d", "--fast", "c", "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    took = elapsed()
    ctx = mm2d().system.ctx
    got = ctx.parse(payload["reduced"][0].split("=", 1)[1])
    want = ctx.parse("-k1*k2*e0*s / (k1*s + km1 + k2)")
    with capsys.disabled():
        report(1, code == 0 and got == want and took < 1.0,
               f"mm2d reduction equals the benchmark equation ({took:.2f}s)")


def test_criterion_02_mm_nonstandard_reduction(capsys):
    elapsed = stopwatch()
    spec = mm3d()
    part = Partition.from_fast(spec.system, ["e", "c"])
    scaled = apply_scaling(spec.system, part)
    sys = scaled.system
    ctx = sys.ctx
    dec = find_decomposition(sys.grade(0), default_sample(ctx, seed=1))
    ok = True
    # stoichiometric column (0, 1, -1); the factor is then forced to be the
    # e_star-row (the source display carries the opposite, inconsistent sign)
    col = [dec.P.entries[i][0] for i in range(3)]
    ok &= col[0].is_zero() and col[1] == ctx.parse("1") and col[2] == ctx.parse("-1")
    ok &= dec.mu[0] == ctx.parse("-(k1*e_star*s - (km1 + k2)*c_star)")
    ok &= dec.verify(sys.grade(0))
    # projection matrix with common denominator d = k1*s + km1 + k2
    Q = dec.projection()
    d = "(k1*s + km1 + k2)"
    expected_Q = [
        ["1", "0", "0"],
        [f"-k1*e_star/{d}", f"(km1 + k2)/{d}", f"(km1 + k2)/{d}"],
        [f"k1*e_star/{d}", f"k1*s/{d}", f"k1*s/{d}"],
    ]
    for i in range(3):
        for j in range(3):
            ok &= Q.entries[i][j] == ctx.parse(expected_Q[i][j])
    # limit system on the manifold
    red = reduce_with(dec, sys.grade(1))
    rate = "(-k1*e_star*s + km1*c_star)"
    ok &= red.row("s") == ctx.parse(rate)
    ok &= red.row("e_star") == ctx.parse(f"-k1*e_star*{rate}/{d}")
    ok &= red.row("c_star") == ctx.parse(f"k1*e_star*{rate}/{d}")
    # elimination through the conserved total recovers the benchmark equation
    conservation = ctx.parse("e_star + c_star - e0")
    elim = eliminate_on_manifold(red, [conservation], ["c_star", "e_star"])
    ok &= elim.states == ("s",)
    ok &= elim.field[0] == ctx.parse("-k1*k2*e0*s / (k1*s + km1 + k2)")
    took = elapsed()
    ok &= took < 2.0
    with capsys.disabled():
        report(2, ok, f"mm3d decomposition, projection, limit system, elimination ({took:.2f}s)")


def test_criterion_03_degradation_variant(capsys):
    spec = mm3d_deg()
    part = Partition.from_fast(spec.system, ["e", "c"])
    scaled = apply_scaling(spec.system, part)
    ctx = scaled.system.ctx
    red = nonstandard_reduce(scaled, default_sample(ctx, seed=1))
    d = "(k1*s + km1 + k2)"
    rate = "(-k1*e_star*s + km1*c_star)"
    ok = red.row("s") == ctx.parse(rate)
    ok &= red.row("e_star") == ctx.parse(f"-k1*e_star*({rate} + delta*(km1 + k2)/k1)/{d}")
    ok &= red.row("c_star") == ctx.parse(f"k1*e_star*({rate} - delta*s)/{d}")
    elim = eliminate_on_manifold(red, [], ["c_star"])
    srow = elim.field[list(elim.states).index("s")]
    erow = elim.field[list(elim.states).index("e_star")]
    ok &= srow == ctx.parse("-k1*k2*e_star*s/(km1 + k2)")
    ok &= erow == ctx.parse(
        f"-k1*e_star*(-k1*k2*e_star*s/(km1 + k2) + delta*(km1 + k2)/k1)/{d}"
    )
    with capsys.disabled():
        report(3, ok, "slow-degradation variant: limit system and 2-D eliminated form")


def test_criterion_04_chain_reductions(capsys):
    spec = chain3()
    part = Partition.from_fast(spec.system, list(spec.fast))
    red = standard_reduce(spec.system, part)
    ctx = spec.system.ctx
    # denominator pinned by an independent determinant oracle; it carries the
    # six s-monomials plus four constant ones (incl. k2*k3*k4, dropped in the
    # source display -- see the decisions ledger)
    G0 = RFMatrix(
        ctx,
        [
            [ctx.parse("-(k1*s + km1 + k2)"), ctx.parse("-k1*s + km2"), ctx.parse("-k1*s")],
            [ctx.parse("k2"), ctx.parse("-(km2 + k3)"), ctx.parse("km3")],
            [ctx.parse("0"), ctx.parse("k3"), ctx.parse("-(km3 + k4)")],
        ],
    )
    den = -determinant(G0)
    want = ctx.parse("-k1*k2*k3*k4*e0*s") / den
    ok = red.field[0] == want
    nine = ctx.parse(
        "(k1*k2*k3 + k1*k2*k4 + k1*k2*km3 + k1*k3*k4 + k1*k4*km2 + k1*km2*km3)*s"
        " + k3*k4*km1 + k4*km1*km2 + km1*km2*km3"
    )
    ok &= den == nine + ctx.parse("k2*k3*k4")
    # unit-rate spot check: s' = -1/10 at s = 1
    pt = {s.name: Fraction(1) for s in ctx.symbols}
    ok &= red.field[0].eval(pt) == Fraction(-1, 10)
    # slow-k4 variant: substrate frozen
    spec2 = chain3_slowk4()
    part2 = Partition.from_fast(spec2.system, list(spec2.fast))
    scaled2 = apply_scaling(spec2.system, part2)
    red2 = nonstandard_reduce(scaled2, default_sample(scaled2.system.ctx, seed=1))
    elim2 = eliminate_on_manifold(red2, [], None)
    ok &= elim2.field[list(elim2.states).index("s")].is_zero()
    with capsys.disabled():
        report(4, ok, "chain reduction denominator (oracle-pinned) and frozen slow-k4 variant")


def test_criterion_05_inhibitor(capsys):
    spec = inhibitor()
    part = Partition.from_fast(spec.system, list(spec.fast))
    scaled = apply_scaling(spec.system, part)
    ctx = scaled.system.ctx
    red = nonstandard_reduce(scaled, default_sample(ctx, seed=1))
    conservation = ctx.parse("e_star + c1_star + c2_star - e0")
    elim = eliminate_on_manifold(red, [conservation], list(scaled.fast_star))
    rows = {n: elim.field[list(elim.states).index(n)] for n in elim.states}
    # s' = -k2*e0*s / (M1 + s + M1*M2*y), y' = -k4*y with the stated constants
    want_s = ctx.parse("-k2*e0*s / ((km1 + k2)/k1 + s + ((km1 + k2)/k1)*(k3/km3)*y)")
    ok = rows["s"] == want_s
    ok &= rows["y"] == ctx.parse("-k4*y")
    with capsys.disabled():
        report(5, ok, "inhibitor limit system in the stated constants")


def test_criterion_06_transport_binding(capsys):
    elapsed = stopwatch()
    spec = transport_binding(4)
    part = Partition.from_fast(spec.system, list(spec.fast))
    scaled = apply_scaling(spec.system, part)
    sys = scaled.system
    ctx = sys.ctx
    dec = nonstandard_decomposition(scaled, default_sample(ctx, seed=1))
    red = reduce_with(dec, sys.grade(1))
    # manifold parametrization: common substrate level, bound form proportional
    manifold_sub = {}
    for a in range(2, 5):
        manifold_sub[f"s{a}_star"] = ctx.parse("s1_star")
    for a in range(1, 5):
        manifold_sub[f"c{a}_star"] = ctx.parse(f"k1*s1_star*p{a}/km1")
    ok = all(m.subs(manifold_sub).is_zero() for m in dec.mu)
    stencil = {1: "p2 - p1", 2: "p1 - 2*p2 + p3", 3: "p2 - 2*p3 + p4", 4: "p3 - p4"}
    for a in range(1, 5):
        row = red.row(f"p{a}").subs(manifold_sub)
        ok &= row == ctx.parse(f"delta_p*({stencil[a]})")
        ok &= red.row(f"s{a}_star").subs(manifold_sub).is_zero()
        want_c = ctx.parse(f"(k1*s1_star/km1)*delta_p*({stencil[a]})")
        ok &= red.row(f"c{a}_star").subs(manifold_sub) == want_c
    # reduced initial value: the common substrate level
    integrals = fast_linear_integrals(sys)
    sol = reduced_initial_value(
        integrals, list(dec.mu), scaled_initial_symbolic(scaled), list(sys.states)
    )
    total = "(s0_1 + s0_2 + s0_3 + s0_4 + c0_1 + c0_2 + c0_3 + c0_4)"
    psum = "(p0_1 + p0_2 + p0_3 + p0_4)"
    want = ctx.parse(f"km1*{total} / (km1*4 + k1*{psum})")
    for a in range(1, 5):
        ok &= sol[f"s{a}_star"] == want
        ok &= sol[f"p{a}"] == ctx.parse(f"p0_{a}")
        ok &= sol[f"c{a}_star"] == ctx.parse(f"k1*p0_{a}/km1") * want
    took = elapsed()
    ok &= took < 10.0
    with capsys.disabled():
        report(6, ok, f"4-compartment transport: diffusion limit and initial level ({took:.2f}s)")


def test_criterion_07_mm_diffusion(capsys):
    spec = mm_diffusion(4)
    part = Partition.from_fast(spec.system, list(spec.fast))
    scaled = apply_scaling(spec.system, part)
    sys = scaled.system
    ctx = sys.ctx
    N = 4
    stencil = {1: "{x}2 - {x}1", 2: "{x}1 - 2*{x}2 + {x}3", 3: "{x}2 - 2*{x}3 + {x}4", 4: "{x}3 - {x}4"}

    def D(x, a):
        return stencil[a].replace("{x}", x)

    ok = True
    # scaled system: reaction block at order 0 for the complexes, everything
    # else at order 1 with the transport stencils
    for a in range(1, N + 1):
        s_row1 = sys.grade(1)[sys.state_index(f"s{a}")]
        ok &= s_row1 == ctx.parse_poly(
            f"theta_s*({D('s', a)}) - k1*s{a}*w{a}_star + (k1*s{a} + km1)*c{a}_star"
        )
        ok &= sys.grade(0)[sys.state_index(f"s{a}")].is_zero()
        c_row0 = sys.grade(0)[sys.state_index(f"c{a}_star")]
        ok &= c_row0 == ctx.parse_poly(
            f"k1*s{a}*w{a}_star - (k1*s{a} + km1 + k2)*c{a}_star"
        )

    def star_stencil(x, a):
        body = stencil[a]
        return body.replace("{x}1", f"{x}1_star").replace("{x}2", f"{x}2_star").replace("{x}3", f"{x}3_star").replace("{x}4", f"{x}4_star")

    for a in range(1, N + 1):
        c_row1 = sys.grade(1)[sys.state_index(f"c{a}_star")]
        ok &= c_row1 == ctx.parse_poly(f"theta_c*({star_stencil('c', a)})")
        w_row1 = sys.grade(1)[sys.state_index(f"w{a}_star")]
        ok &= w_row1 == ctx.parse_poly(
            f"theta_e*({star_stencil('w', a)}) + (theta_c - theta_e)*({star_stencil('c', a)})"
        )
        ok &= sys.grade(0)[sys.state_index(f"w{a}_star")].is_zero()
    # reduced system on the manifold c* = k1*s*w*/(k1*s + km1 + k2)
    dec = nonstandard_decomposition(scaled, default_sample(ctx, seed=1))
    red = reduce_with(dec, sys.grade(1))
    elim = eliminate_on_manifold(red, [], [f"c{a}_star" for a in range(1, N + 1)])
    solved = dict(elim.solved)
    for a in range(1, N + 1):
        ok &= solved[f"c{a}_star"] == ctx.parse(f"k1*s{a}*w{a}_star/(k1*s{a} + km1 + k2)")
    rows = {n: elim.field[list(elim.states).index(n)] for n in elim.states}
    cm = {a: f"(k1*s{a}*w{a}_star/(k1*s{a} + km1 + k2))" for a in range(1, N + 1)}
    for a in range(1, N + 1):
        want_s = ctx.parse(
            f"theta_s*({D('s', a)}) - k1*k2*w{a}_star*s{a}/(k1*s{a} + km1 + k2)"
        )
        ok &= rows[f"s{a}"] == want_s
        # w-row: the transported stencil acts on the manifold value of c*
        # (the source display repeats the k1*k2 numerator here; the manifold
        # equation itself forces the k2-free value -- see the ledger)
        body = stencil[a]
        cm_stencil = (
            body.replace("{x}1", cm[1]).replace("{x}2", cm[2]).replace("{x}3", cm[3]).replace("{x}4", cm[4])
        )
        want_w = ctx.parse(f"theta_e*({star_stencil('w', a)}) + (theta_c - theta_e)*({cm_stencil})")
        ok &= rows[f"w{a}_star"] == want_w
    with capsys.disabled():
        report(7, ok, "4-compartment diffusion: scaled system and reduced equations")


def test_criterion_08_ltc_enumeration(capsys):
    ok = True
    spec = mm3d()
    out = minimal_ltc_sets(spec.system.grade(0))
    got = sorted(tuple(sorted(g)) for g in out.minimal_sets)
    ok &= got == [("c", "e"), ("c", "s")]
    # brute-force agreement for every builtin with at most 8 states
    for name in ("mm2d", "mm3d", "mm3d_deg", "chain3", "chain3_slowk4", "inhibitor", "linex"):
        sys = load_builtin(name).system
        if len(sys.states) > 8:
            continue
        rows = sys.grade(0)
        fast = minimal_ltc_sets(rows)
        brute = []
        names = list(sys.states)
        for size in range(1, len(names)):
            for J in combinations(names, size):
                binding = {n: 0 for n in J}
                if all(p.subs(binding).is_zero() for p in rows):
                    brute.append(set(J))
        brute_min = sorted(
            tuple(sorted(J)) for J in brute if not any(K < J for K in brute)
        )
        got = sorted(tuple(sorted(g)) for g in fast.minimal_sets)
        ok &= got == brute_min
        ok &= fast.complete
    with capsys.disabled():
        report(8, ok, "minimal fast sets match brute force on every small builtin")


def test_criterion_09_preassigned_case_study(capsys):
    spec = mm3d()
    rows = spec.system.grade(0)
    ctx = spec.system.ctx
    expected = {
        ("s",): {"km1"},
        ("e",): {"km1 + k2"},
        ("c",): {"k1"},
        ("s", "e"): {"km1", "km1 + k2"},
        ("s", "c"): set(),
        ("e", "c"): set(),
    }
    solved_expect = {
        ("s",): {"km1": 0},
        ("e",): {"km1": 0, "k2": 0},
        ("c",): {"k1": 0},
        ("s", "e"): {"km1": 0, "k2": 0},
        ("s", "c"): {},
        ("e", "c"): {},
    }
    ok = True
    for J, want in expected.items():
        out = preassigned_conditions(rows, list(J))
        got = {p.render() for p in out.conditions}
        want_polys = {ctx.parse_poly(w).render() for w in want}
        ok &= got == want_polys
        ok &= out.solved == {k: Fraction(v) for k, v in solved_expect[J].items()}
    with capsys.disabled():
        report(9, ok, "pre-assigned fast sets (i)-(vi) give the stated parameter conditions")


def test_criterion_10_property_suite(capsys):
    elapsed = stopwatch()
    import random

    rng = random.Random(20240817)
    checked = 0
    ok = True
    trials = 0
    while checked < 50 and trials < 200:
        trials += 1
        n_slow = rng.randint(1, 2)
        n_fast = rng.randint(1, 3)
        states = [f"x{i}" for i in range(1, n_slow + 1)] + [
            f"y{j}" for j in range(1, n_fast + 1)
        ]
        ctx = Context(states, ["a", "b"])
        ynames = states[n_slow:]

        def rterm(max_extra):
            term = ctx.const(rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, max_extra)):
                term = term * ctx.sym(rng.choice(states + ["a", "b"]))
            return term

        rows = []
        for _ in range(n_slow):
            p = ctx.zero()
            for _ in range(rng.randint(0, 2)):
                p = p + rterm(2) * ctx.sym(rng.choice(ynames))
            rows.append(p)
        for j in range(n_fast):
            p = ctx.const(-3 - rng.randint(0, 2)) * ctx.sym(ynames[j])
            for _ in range(rng.randint(0, 2)):
                p = p + rterm(2) * ctx.sym(rng.choice(ynames))
            rows.append(p)
        h1 = []
        for _ in states:
            p = ctx.zero()
            for _ in range(rng.randint(0, 2)):
                p = p + rterm(2)
            h1.append(p)
        eps = ctx.sym("eps")
        sys = raw_system(ctx, [r + eps * q for r, q in zip(rows, h1)])
        part = Partition.from_fast(sys, ynames)
        if check_ltc(sys, part).status != FULL_LTC:
            continue
        # hadamard identity
        M = hadamard_factor(sys.grade(0), ynames)
        recon = M.mul_vector([ctx.sym(n) for n in ynames])
        for got, want in zip(recon, sys.grade(0)):
            ok &= got == RationalFunction.of(want)
        dec = standard_decomposition(sys, part)
        ok &= dec.verify(sys.grade(0))  # P*mu = h0, Q^2 = Q, QP = 0, Dmu Q = 0
        red = reduce_with(dec, sys.grade(1))
        dq = dec.dmu().mul_vector(red.field)
        ok &= all(v.is_zero() for v in dq)
        # first-order manifold invariance at orders 0 and 1
        psi0 = first_order_correction(dec, sys.grade(1))
        eps_rf = RationalFunction.of(eps)
        Phi = [m + eps_rf * p for m, p in zip(dec.mu, psi0)]
        h = [RationalFunction.of(p0) + eps_rf * p1 for p0, p1 in zip(sys.grade(0), sys.grade(1))]
        DPhi = jacobian(Phi, states)
        L0 = dec.dmup()
        L1 = jacobian(psi0, states) @ dec.P
        lhs = DPhi.mul_vector(h)
        for i in range(dec.r):
            lam = RationalFunction.of(ctx.zero())
            for j in range(dec.r):
                lam = lam + (L0.entries[i][j] + eps_rf * L1.entries[i][j]) * Phi[j]
            residual = lhs[i] - lam
            if residual.is_zero():
                continue
            val = min(residual.num.eps_coefficients()) - min(residual.den.eps_coefficients())
            ok &= val >= 2
        checked += 1
        if not ok:
            break
    took = elapsed()
    ok &= checked == 50 and took < 60.0
    with capsys.disabled():
        report(10, ok, f"projection and manifold identities on {checked} random systems ({took:.1f}s)")


def test_criterion_11_convergence_mm2d(capsys):
    elapsed = stopwatch()
    spec = mm2d()
    part = Partition.from_fast(spec.system, ["c"])
    scaled = apply_scaling(spec.system, part)
    red = standard_reduce(spec.system, part)
    params = {"k1": 1, "km1": 1, "k2": 1, "e0": 1, "s0": 1}
    out = convergence_study(
        scaled.system,
        red.field,
        red.states,
        {"s": 1.0},
        params,
        ladder=default_ladder(1e-1, 1e-3),
        t1=0.1,
        t2=2.0,
    )
    took = elapsed()
    decreasing = all(a > b for a, b in zip(out.errors, out.errors[1:]))
    in_band = 0.8 <= out.fitted_order <= 1.2
    ok = decreasing and in_band and took < 30.0
    with capsys.disabled():
        report(
            11,
            ok,
            f"mm2d ladder decreasing, fitted order {out.fitted_order:.2f} in [0.8, 1.2] ({took:.1f}s)",
        )


def test_criterion_12_iv_counterexample(capsys):
    elapsed = stopwatch()
    bad = iv_inconsistency_demo(a=-1, b=1, c=-1, y0=1.0, tau_eval=1.0)
    good = iv_inconsistency_demo(a=-1, b=1, c=-1, y0=1.0, tau_eval=1.0, consistent=True)
    took = elapsed()
    ok = abs(bad.extrapolated - math.exp(-1)) < 1e-3
    ok &= abs(good.extrapolated) < 1e-3
    ok &= bad.verdict == "does_not_converge" and good.verdict == "converges"
    ok &= took < 10.0
    with capsys.disabled():
        report(
            12,
            ok,
            f"discrepancy limit {bad.extrapolated:.6f} vs exp(-1), consistent variant {good.extrapolated:.2e} ({took:.1f}s)",
        )
