"""LTC search: candidate slow sets, minimal fast sets, pre-assigned conditions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfred import ltc
from tfred.rational import Context
from tfred.ltc import (
    candidate_slow_set,
    is_ltc_set,
    minimal_ltc_sets,
    preassigned_conditions,
)
from tfred.networks import Reaction, ReactionNetwork, compile_network
from tfred.systems import Partition, check_ltc, raw_system, FULL_LTC


def brute_force_minimal(rows, state_names):
    """Independent oracle: test all 2^n - 2 proper subsets, keep the minimal ones."""
    admissible = []
    n = len(state_names)
    for size in range(1, n):
        for J in combinations(state_names, size):
            binding = {name: 0 for name in J}
            if all(p.subs(binding).is_zero() for p in rows):
                admissible.append(set(J))
    minimal = [J for J in admissible if not any(K < J for K in admissible)]
    return sorted(tuple(sorted(J)) for J in minimal)


@pytest.fixture
def mm_rows(mm3d):
    return mm3d.grade(0)


def test_candidate_slow_set_mm(mm_rows):
    assert set(candidate_slow_set(mm_rows)) == {"s", "e"}


def test_candidate_slow_set_linear_system_empty():
    ctx = Context(["x", "y"], ["a"])
    rows = [ctx.parse_poly("a*x + y"), ctx.parse_poly("x - y")]
    assert candidate_slow_set(rows) == ()


def test_candidate_slow_set_ptm_substrates():
    # chain with three intermediates, all reactions fast: S = {e, s}? no --
    # for the substrate/intermediate form, only substrates without pure powers remain
    net = ReactionNetwork(
        species=["u1", "u2", "v1"],
        reactions=[
            Reaction({"u1": 1, "u2": 1}, {"v1": 1}, "a"),
            Reaction({"v1": 1}, {"u1": 1, "u2": 1}, "b"),
        ],
    )
    sys = compile_network(net)
    assert set(candidate_slow_set(sys.grade(0))) == {"u1", "u2"}


def test_is_ltc_set_mm_cases(mm_rows):
    assert is_ltc_set(mm_rows, ["e", "c"])
    assert is_ltc_set(mm_rows, ["s", "c"])
    assert not is_ltc_set(mm_rows, ["c"])


def test_minimal_sets_mm(mm_rows, mm3d):
    report = minimal_ltc_sets(mm_rows)
    got = sorted(tuple(sorted(J)) for J in report.minimal_sets)
    assert got == [("c", "e"), ("c", "s")]
    assert report.complete
    assert got == brute_force_minimal(mm_rows, mm3d.states)


def test_minimal_sets_zero_field_all_singletons():
    ctx = Context(["x", "y", "z"])
    rows = [ctx.zero()] * 3
    report = minimal_ltc_sets(rows)
    got = sorted(report.minimal_sets)
    assert got == [("x",), ("y",), ("z",)]


def test_minimal_sets_constant_term_blocks_everything():
    ctx = Context(["x", "y"], ["a"])
    rows = [ctx.parse_poly("a + x*y"), ctx.zero()]
    report = minimal_ltc_sets(rows)
    assert report.minimal_sets == ()


def test_minimal_sets_chain_intermediates():
    # binding chain with three intermediates, every reaction fast
    net = chain_network()
    sys = compile_network(net)
    rows = sys.grade(0)
    report = minimal_ltc_sets(rows)
    got = sorted(tuple(sorted(J)) for J in report.minimal_sets)
    assert ("c1", "c2", "c3", "e") in got
    assert got == brute_force_minimal(rows, sys.states)
    # every minimal set contains all the intermediates
    for J in report.minimal_sets:
        assert {"c1", "c2", "c3"} <= set(J)


def chain_network():
    return ReactionNetwork(
        species=["e", "s", "c1", "c2", "c3"],
        reactions=[
            Reaction({"e": 1, "s": 1}, {"c1": 1}, "k1"),
            Reaction({"c1": 1}, {"e": 1, "s": 1}, "km1"),
            Reaction({"c1": 1}, {"c2": 1}, "k2"),
            Reaction({"c2": 1}, {"c1": 1}, "km2"),
            Reaction({"c2": 1}, {"c3": 1}, "k3"),
            Reaction({"c3": 1}, {"c2": 1}, "km3"),
            Reaction({"c3": 1}, {"e": 1}, "k4"),
        ],
        extra_params=["e0", "s0"],
    )


def test_minimal_sets_cubic_field_uses_fallback():
    ctx = Context(["x", "y", "z"], ["a"])
    rows = [
        ctx.parse_poly("a*x*y*z"),
        ctx.parse_poly("x^2*y"),
        ctx.zero(),
    ]
    report = minimal_ltc_sets(rows)
    got = sorted(tuple(sorted(J)) for J in report.minimal_sets)
    assert got == brute_force_minimal(rows, ["x", "y", "z"])
    assert report.complete


def test_fallback_guard_reports_incomplete(monkeypatch):
    monkeypatch.setattr(ltc, "SUBSET_GUARD", 1)
    ctx = Context(["x", "y", "z", "w"])
    rows = [ctx.parse_poly("x*y*z*w")] * 4
    report = minimal_ltc_sets(rows)
    assert not report.complete


def test_brute_force_agreement_random_degree2():
    rng = random.Random(99)
    names = ["z1", "z2", "z3", "z4", "z5"]
    ctx = Context(names, ["a"])
    for _ in range(15):
        rows = []
        for _ in range(5):
            p = ctx.zero()
            for _ in range(rng.randint(0, 4)):
                c = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    p = p + ctx.sym(rng.choice(names)) * ctx.sym(rng.choice(names)) * c
                else:
                    p = p + ctx.sym(rng.choice(names)) * c
            rows.append(p)
        if all(p.is_zero() for p in rows):
            continue
        report = minimal_ltc_sets(rows)
        got = sorted(tuple(sorted(J)) for J in report.minimal_sets)
        assert got == brute_force_minimal(rows, names)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_monotonicity_supersets_stay_admissible(seed):
    rng = random.Random(seed)
    names = ["z1", "z2", "z3", "z4"]
    ctx = Context(names, ["a"])
    rows = []
    for _ in range(4):
        p = ctx.zero()
        for _ in range(rng.randint(0, 3)):
            p = p + ctx.sym(rng.choice(names)) * ctx.sym(rng.choice(names)) * rng.randint(-2, 2)
        rows.append(p)
    report = minimal_ltc_sets(rows)
    for J in report.minimal_sets:
        assert is_ltc_set(rows, J)
        others = [n for n in names if n not in J]
        for extra in others:
            bigger = list(J) + [extra]
            if len(bigger) < len(names):
                assert is_ltc_set(rows, bigger)


# -- pre-assigned conditions ---------------------------------------------------


def test_preassigned_case_i_s(mm_rows, mm3d):
    ctx = mm3d.ctx
    out = preassigned_conditions(mm_rows, ["s"])
    assert list(out.conditions) == [ctx.parse_poly("km1")]
    assert out.solved == {"km1": Fraction(0)}


def test_preassigned_case_ii_e(mm_rows, mm3d):
    ctx = mm3d.ctx
    out = preassigned_conditions(mm_rows, ["e"])
    assert list(out.conditions) == [ctx.parse_poly("km1 + k2")]
    assert out.solved == {"km1": Fraction(0), "k2": Fraction(0)}


def test_preassigned_case_iii_c(mm_rows, mm3d):
    ctx = mm3d.ctx
    out = preassigned_conditions(mm_rows, ["c"])
    assert list(out.conditions) == [ctx.parse_poly("k1")]
    assert out.solved == {"k1": Fraction(0)}


def test_preassigned_case_iv_se(mm_rows):
    out = preassigned_conditions(mm_rows, ["s", "e"])
    solved = out.solved
    assert solved == {"km1": Fraction(0), "k2": Fraction(0)}


def test_preassigned_cases_v_vi_no_conditions(mm_rows):
    for J in (["s", "c"], ["e", "c"]):
        out = preassigned_conditions(mm_rows, J)
        assert not out.conditions
        assert out.solved == {}


def test_preassigned_solution_restores_consistency(mm3d):
    # substituting the solved assignment makes the pre-assigned set locally consistent
    rows = mm3d.grade(0)
    for J in (["s"], ["e"], ["c"]):
        out = preassigned_conditions(rows, J)
        binding = {name: 0 for name in out.solved}
        new_rows = [p.subs(binding) for p in rows]
        zeroed = {n: 0 for n in J}
        for name in J:
            i = mm3d.state_index(name)
            assert new_rows[i].subs(zeroed).is_zero()


def test_preassigned_full_scope_forces_full_ltc(mm3d):
    rows = mm3d.grade(0)
    out = preassigned_conditions(rows, ["s"], scope="full")
    # full scope adds the e- and c-equation conditions: km1 + k2 must vanish too
    binding = {name: 0 for name in out.solved}
    new_rows = [p.subs(binding) for p in rows]
    sys2 = raw_system(mm3d.ctx, new_rows, mm3d.initial_values)
    assert check_ltc(sys2, Partition.from_fast(sys2, ["s"])).status == FULL_LTC


def test_preassigned_unsolvable_condition_reported():
    ctx = Context(["x", "y"], ["a", "b"])
    rows = [ctx.parse_poly("(a - b)*y + x*y"), ctx.parse_poly("-x*y")]
    out = preassigned_conditions(rows, ["x"])
    assert out.conditions and out.solved is None


def test_report_json_shape(mm_rows, mm3d):
    report = minimal_ltc_sets(mm_rows)
    j = report.to_json(mm3d.states)
    assert {"candidate_slow", "minimal_ltc_sets", "checked_count", "complete"} <= set(j)
    names = {tuple(entry["names"]) for entry in j["minimal_ltc_sets"]}
    assert ("e", "c") in names or ("c", "e") in names
