"""CLI wiring: exit codes, JSON reports, golden-file math, model file round trip."""

import json
import os

import pytest

from tfred.builtin_models import load_builtin
from tfred.cli import main
from tfred.modelfile import load_model, model_from_dict
from tfred.systems import Partition, apply_scaling


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def scaled_ctx(name):
    spec = load_builtin(name)
    part = Partition.from_fast(spec.system, list(spec.fast))
    return apply_scaling(spec.system, part).system.ctx


def assert_symbolic(ctx, got: str, want: str):
    assert ctx.parse(got) == ctx.parse(want), f"{got}  !=  {want}"


# -- exit codes -----------------------------------------------------------------


def test_check_consistent_exit_zero(capsys):
    code, payload = run_json(capsys, "check", "--builtin", "mm3d")
    assert code == 0
    assert payload["consistency"] == "fullLTC"
    assert payload["initial_value_consistent"] is True


def test_check_inconsistent_partition_exit_two(capsys):
    code, payload = run_json(capsys, "check", "--builtin", "mm3d", "--fast", "s")
    assert code == 2
    assert payload["consistency"] == "inconsistent"


def test_check_iv_inconsistent_model_file(tmp_path, capsys):
    data = {
        "name": "mm3d_iv0",
        "species": ["s", "e", "c"],
        "reactions": [
            {"reactants": {"e": 1, "s": 1}, "products": {"c": 1}, "rate": "k1"},
            {"reactants": {"c": 1}, "products": {"e": 1, "s": 1}, "rate": "km1"},
            {"reactants": {"c": 1}, "products": {"e": 1}, "rate": "k2"},
        ],
        "parameters": ["e0", "s0"],
        "initial_values": {
            "s": {"base": "s0"},
            "e": {"base": "e0", "eps_order": 0},
            "c": {"base": "0"},
        },
        "fast": ["e", "c"],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, payload = run_json(capsys, "check", "--model", str(path))
    assert code == 2
    assert payload["consistency"] == "fullLTC"
    assert payload["initial_value_consistent"] is False


def test_converge_inconsistent_partition_exit_two(capsys):
    code = main(["converge", "--builtin", "mm3d", "--fast", "s", "--ladder", "1e-1,5e-2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("consistency check failed: inconsistent")


def test_reduce_standard_route_factors_once(capsys, monkeypatch):
    from tfred import reduction

    calls = []
    original = reduction.hadamard_factor

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction, "hadamard_factor", counting)
    code, payload = run_json(capsys, "reduce", "--builtin", "mm2d")
    assert code == 0
    assert payload["mode"] == "standard"
    assert len(calls) == 1


def test_reduce_eliminates_each_matrix_once(capsys, monkeypatch):
    # one exact solve per matrix: G0 on the standard route, Dmu*P for all
    # columns of the projection; on the nonstandard route one rank
    # factorization of G0 gives G, R and w together; and within a solve or
    # a factorization one fraction-free elimination per independent block
    from tfred import matrices, reduction
    from tfred.builtin_models import BUILTINS

    solves, eliminations, blocks = [], [], []
    solve, bareiss, factor = matrices._solve, matrices._bareiss, reduction.rank_and_factor

    def count_blocks(M):
        blocks.append(sum(1 for rows, cols in matrices._blocks(M) if rows and cols))

    def counting_solve(M, B, unique):
        solves.append(M)
        count_blocks(M)
        return solve(M, B, unique)

    def counting_factor(M, b):
        count_blocks(M)
        return factor(M, b)

    def counting_bareiss(*args, **kwargs):
        eliminations.append(args)
        return bareiss(*args, **kwargs)

    monkeypatch.setattr(matrices, "_solve", counting_solve)
    monkeypatch.setattr(matrices, "_bareiss", counting_bareiss)
    monkeypatch.setattr(reduction, "rank_and_factor", counting_factor)
    solve_counts, bareiss_counts = {}, {}
    for name in sorted(BUILTINS):
        solves.clear()
        eliminations.clear()
        blocks.clear()
        main(["reduce", "--builtin", name])
        solve_counts[name] = len(solves)
        bareiss_counts[name] = len(eliminations)
        assert len(eliminations) == sum(blocks), name
    capsys.readouterr()
    assert solve_counts == {
        "chain3": 2, "chain3_slowk4": 3, "inhibitor": 3, "linex": 2, "mm2d": 2,
        "mm3d": 3, "mm3d_deg": 3, "mm_diffusion": 2, "transport_binding": 2,
        "transport_binding_slow": 2,
    }
    assert sum(solve_counts.values()) == 24
    # the nonstandard builtins add one elimination per block of G0;
    # mm_diffusion's diagonal G0 and transport_binding_slow's split into blocks
    assert bareiss_counts == {
        "chain3": 2, "chain3_slowk4": 4, "inhibitor": 4, "linex": 2, "mm2d": 2,
        "mm3d": 4, "mm3d_deg": 4, "mm_diffusion": 12, "transport_binding": 3,
        "transport_binding_slow": 9,
    }


def test_converge_refuses_a_repelling_fast_block(capsys):
    # every parameter is 1, so linex's fast block y' = c*y repels; reduce
    # refuses the same model, and converge must not integrate it
    code = main(["converge", "--builtin", "linex", "--ladder", "1e-1,5e-2", "--t2", "1.0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("reduction failed: eigenvalue certificate fails")


def test_converge_at_an_equilibrium_is_stationary(capsys):
    # all-1 parameters start transport_binding at a homogeneous equilibrium
    code, payload = run_json(
        capsys, "converge", "--builtin", "transport_binding", "--ladder", "1e-1,5e-2", "--t2", "0.5"
    )
    assert code == 4
    assert payload["sup_errors"] == [0.0, 0.0]
    assert payload["verdict"] == "stationary"
    assert payload["failures"][-1].startswith("nothing was compared")


def test_unknown_builtin_is_an_error(capsys):
    code = main(["check", "--builtin", "nope"])
    assert code != 0


def test_internal_fault_exits_five(tmp_path, capsys, monkeypatch):
    # a broken elimination is tfred's own fault, not a consistency failure
    from tfred import matrices

    def broken_bareiss(*args, **kwargs):
        raise matrices.EliminationError("Bareiss step: the previous pivot does not divide exactly")

    monkeypatch.setattr(matrices, "_bareiss", broken_bareiss)
    assert main(["reduce", "--builtin", "mm3d"]) == 5
    assert capsys.readouterr().err.startswith("internal error: Bareiss step")
    bad = tmp_path / "bad.json"
    bad.write_text('{"species": ["x"], "reactions": [')
    assert main(["check", "--model", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_value_error_after_loading_exits_five(capsys, monkeypatch):
    # a ValueError inside the reduction is tfred's fault, not bad input
    from tfred import cli

    def broken_reduce(*args, **kwargs):
        raise ValueError("expected a polynomial, got denominator x")

    monkeypatch.setattr(cli, "reduce_model", broken_reduce)
    assert main(["reduce", "--builtin", "mm2d"]) == 5
    assert capsys.readouterr().err.startswith("internal error: expected a polynomial")


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--builtin", "mm2d", "--set", "k1=fast"],
        ["converge", "--builtin", "mm2d", "--set", "k1=1/0"],
        ["converge", "--builtin", "mm2d", "--ladder", "1e-2,1e-1"],
        ["converge", "--builtin", "mm2d", "--ladder", "1e-1:1e-3:1"],
        ["converge", "--builtin", "mm2d", "--ladder", "tiny"],
        ["converge", "--builtin", "mm2d", "--t2", "-1"],
        ["reduce", "--builtin", "mm2d", "--samples", "0"],
        ["check", "--builtin", "mm2d", "--fast", "nope"],
        ["demo-linex", "--c", "1"],
    ],
)
def test_bad_input_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_converge_reports_integrator_stats_per_rung(capsys):
    code, payload = run_json(capsys, "converge", "--builtin", "mm2d", "--ladder", "1e-1,5e-2", "--t2", "1.0")
    assert code == 0
    stats = payload["integrator"]
    assert [r["eps"] for r in stats["full"]] == payload["ladder"] == [0.1, 0.05]
    for record in [stats["reduced"], *stats["full"]]:
        assert record["steps"] > 0 and record["rejected"] >= 0
        assert 0 < record["min_step"] <= 1.0
    # more steps as eps shrinks: the fast block carries a 1/eps factor
    assert stats["full"][1]["steps"] > stats["full"][0]["steps"]


def test_empty_partition_usage_error():
    with pytest.raises(SystemExit):
        main(["check", "--builtin", "linex", "--fast", ""])


# -- golden reports ---------------------------------------------------------------


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        return json.load(fh)


def test_golden_mm2d(capsys):
    g = golden("mm2d")
    code, payload = run_json(capsys, "reduce", "--builtin", "mm2d")
    assert code == 0
    assert payload["mode"] == g["mode"]
    ctx = load_builtin("mm2d").system.ctx
    assert_symbolic(ctx, payload["reduced"][0].split("=", 1)[1], g["reduced"]["s"])
    assert_symbolic(ctx, payload["qss"]["c"], g["qss"]["c"])


def test_golden_mm3d(capsys):
    g = golden("mm3d")
    code, payload = run_json(capsys, "reduce", "--builtin", "mm3d")
    assert code == 0
    assert payload["mode"] == g["mode"]
    ctx = scaled_ctx("mm3d")
    rows = {r.split("'")[0].strip(): r.split("=", 1)[1] for r in payload["reduced"]}
    for state, want in g["reduced"].items():
        assert_symbolic(ctx, rows[state], want)
    solved = dict(payload["eliminated_conserved"]["solved"])
    for state, want in g["eliminated_conserved"]["solved"].items():
        assert_symbolic(ctx, solved[state], want)
    erows = {
        r.split("'")[0].strip(): r.split("=", 1)[1]
        for r in payload["eliminated_conserved"]["rows"]
    }
    for state, want in g["eliminated_conserved"]["rows"].items():
        assert_symbolic(ctx, erows[state], want)
    for state, want in g["reduced_initial_value"].items():
        assert_symbolic(ctx, payload["reduced_initial_value"][state], want)


def test_golden_inhibitor(capsys):
    g = golden("inhibitor")
    code, payload = run_json(capsys, "reduce", "--builtin", "inhibitor", "--samples", "5")
    assert code == 0
    ctx = scaled_ctx("inhibitor")
    solved = dict(payload["eliminated_conserved"]["solved"])
    for state, want in g["eliminated_conserved"]["solved"].items():
        assert_symbolic(ctx, solved[state], want)
    erows = {
        r.split("'")[0].strip(): r.split("=", 1)[1]
        for r in payload["eliminated_conserved"]["rows"]
    }
    for state, want in g["eliminated_conserved"]["rows"].items():
        assert_symbolic(ctx, erows[state], want)


def test_golden_transport_binding(capsys):
    g = golden("transport_binding")
    code, payload = run_json(
        capsys, "reduce", "--builtin", "transport_binding", "--samples", "3"
    )
    assert code == 0
    assert payload["manifold_dimension"] == g["manifold_dimension"]
    ctx = scaled_ctx("transport_binding")
    erows = {
        r.split("'")[0].strip(): r.split("=", 1)[1]
        for r in payload["eliminated"]["rows"]
    }
    for state, want in g["eliminated"]["rows"].items():
        assert_symbolic(ctx, erows[state], want)
    for state, want in g["reduced_initial_value"].items():
        assert_symbolic(ctx, payload["reduced_initial_value"][state], want)


def _rows(lines):
    return {r.split("'")[0].strip(): r.split("=", 1)[1] for r in lines}


@pytest.mark.parametrize(
    "name",
    ["chain3", "chain3_slowk4", "mm3d_deg", "mm_diffusion", "transport_binding_slow", "linex"],
)
def test_golden_reduce(capsys, name):
    g = golden(name)
    code, payload = run_json(capsys, "reduce", "--builtin", name)
    assert code == g["exit_code"]
    assert payload["mode"] == g["mode"]
    assert payload["manifold_dimension"] == g["manifold_dimension"]
    assert payload["certificate"]["verdict"] == g["certificate_verdict"]
    ctx = scaled_ctx(name)

    def same(got: dict, want: dict):
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert_symbolic(ctx, got[key], value)

    same(_rows(payload["reduced"]), g["reduced"])
    for key in ("qss", "reduced_initial_value", "eliminated", "eliminated_conserved"):
        assert (key in payload) == (key in g), key
        if g.get(key) is None:
            assert payload.get(key) is None
        elif key.startswith("eliminated"):
            same(dict(payload[key]["solved"]), g[key]["solved"])
            same(_rows(payload[key]["rows"]), g[key]["rows"])
        else:
            same(payload[key], g[key])


# -- other commands ------------------------------------------------------------------


def test_ltc_json(capsys):
    code, payload = run_json(capsys, "ltc", "--builtin", "mm3d")
    assert code == 0
    names = {tuple(e["names"]) for e in payload["minimal_ltc_sets"]}
    assert names == {("e", "c"), ("s", "c")}


def test_conditions_json(capsys):
    code, payload = run_json(capsys, "conditions", "--builtin", "mm3d", "--fast", "e")
    assert code == 0
    assert payload["conditions"] == ["km1 + k2"]
    assert payload["solved"] == {"km1": "0", "k2": "0"}


def test_reduce_exit_refused_on_failing_certificate(tmp_path, capsys):
    # a fast block with positive eigenvalue: y' = +y
    data = {
        "name": "unstable",
        "states": ["x", "y"],
        "parameters": [],
        "raw_system": ["eps*x*y", "y + eps*x"],
        "initial_values": {"x": {"base": "1"}, "y": {"base": "0"}},
        "fast": ["y"],
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(data))
    code = main(["reduce", "--model", str(path), "--format", "json"])
    assert code == 3


def test_converge_quick(capsys):
    code, payload = run_json(
        capsys,
        "converge",
        "--builtin",
        "mm2d",
        "--ladder",
        "1e-1,5e-2,2.5e-2",
        "--t2",
        "1.0",
    )
    assert code == 0
    assert payload["verdict"] == "converges"
    assert len(payload["sup_errors"]) == 3


def test_demo_linex_json(capsys):
    code, payload = run_json(capsys, "demo-linex", "--ladder", "1e-1,5e-2,2.5e-2,1.25e-2")
    assert code == 0
    assert payload["verdict"] == "does_not_converge"


def test_out_directory_written(tmp_path, capsys):
    code = main(
        ["check", "--builtin", "mm3d", "--out", str(tmp_path), "--format", "json"]
    )
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "check.json").exists()
    assert (tmp_path / "check.txt").exists()


# -- model files ------------------------------------------------------------------------


def test_model_rational_literals_exact():
    data = {
        "name": "frac",
        "states": ["x", "y"],
        "parameters": [],
        "raw_system": ["1/3*y", "-2/7*x*y"],
        "initial_values": {"x": {"base": "22/7"}},
        "fast": ["y"],
    }
    spec = model_from_dict(data)
    from fractions import Fraction

    assert spec.system.initial_values["x"].base == Fraction(22, 7)
    assert spec.system.grade(0)[0].terms[next(iter(spec.system.grade(0)[0].terms))] == Fraction(1, 3)


def test_model_file_with_transport(tmp_path):
    data = {
        "name": "binding_cells",
        "species": ["s", "p", "c"],
        "reactions": [
            {"reactants": {"s": 1, "p": 1}, "products": {"c": 1}, "rate": "k1"},
            {"reactants": {"c": 1}, "products": {"s": 1, "p": 1}, "rate": "km1"},
        ],
        "parameters": [],
        "transport": {
            "N": 3,
            "species": {
                "s": {"kind": "laplacian", "rate": "delta_s", "eps_order": 0},
                "p": {"kind": "laplacian", "rate": "delta_p", "eps_order": 1},
            },
        },
        "initial_values": {"s1": {"base": "1/2", "eps_order": 1}},
        "fast": ["s1", "s2", "s3", "c1", "c2", "c3"],
    }
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(data))
    spec = load_model(str(path))
    sys = spec.system
    assert len(sys.states) == 9
    ctx = sys.ctx
    # fast transport sits at order 0, slow at order 1
    assert sys.grade(0)[sys.state_index("s2")] == ctx.parse_poly(
        "-k1*s2*p2 + km1*c2 + delta_s*(s1 - 2*s2 + s3)"
    )
    assert sys.grade(1)[sys.state_index("p2")] == ctx.parse_poly("delta_p*(p1 - 2*p2 + p3)")
    from fractions import Fraction

    assert sys.initial_values["s1"].base == Fraction(1, 2)
    assert sys.initial_values["s1"].order == 1


def test_reduce_report_is_deterministic_given_seed(capsys):
    runs = []
    for _ in range(2):
        code, payload = run_json(capsys, "reduce", "--builtin", "mm3d", "--seed", "7")
        assert code == 0
        runs.append(json.dumps(payload, sort_keys=True))
    assert runs[0] == runs[1]


def test_nonstandard_route_does_not_depend_on_the_seed(capsys):
    # --seed draws the certificate's samples only; the rank factorization
    # of the fast-block matrix is exact
    from tfred.builtin_models import BUILTINS

    nonstandard = []
    for name in sorted(BUILTINS):
        payloads = []
        for seed in ("0", "7"):
            _, payload = run_json(capsys, "reduce", "--builtin", name, "--seed", seed)
            payloads.append({k: v for k, v in payload.items() if k not in ("seed", "certificate")})
        if payloads[0]["mode"] == "nonstandard":
            nonstandard.append(name)
            assert json.dumps(payloads[0]) == json.dumps(payloads[1]), name
    assert nonstandard == [
        "chain3_slowk4", "inhibitor", "mm3d", "mm3d_deg", "mm_diffusion",
        "transport_binding", "transport_binding_slow",
    ]


def test_parsed_options_do_not_leak_between_calls(capsys):
    # the parser is built once per process; each call parses afresh
    code, payload = run_json(capsys, "reduce", "--builtin", "mm2d", "--samples", "5")
    assert code == 0
    assert len(payload["certificate"]["samples"]) == 5
    code, payload = run_json(capsys, "reduce", "--builtin", "mm2d")
    assert code == 0
    assert len(payload["certificate"]["samples"]) == 25


def test_reduce_report_contains_projection_for_small_systems(capsys):
    code, payload = run_json(capsys, "reduce", "--builtin", "mm3d")
    assert code == 0
    assert len(payload["Q"]) == 3
