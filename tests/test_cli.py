"""CLI wiring: exit codes, JSON reports, golden-file math, model file round trip."""

import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfred
from tfred.builtin_models import BUILTINS, load_builtin
from tfred.cli import InputError, json_text, main, parse_ladder
from tfred.modelfile import load_model, model_from_dict
from tfred.rational import MAX_POWER_TERMS
from tfred.systems import Partition, apply_scaling


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


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


# only the commands that run them load the integrator, the fast-set search,
# the builtin models and numpy (most of a bare import's time)
ON_DEMAND = {"tfred.sim", "tfred.ltc", "tfred.builtin_models", "numpy"}


def loaded_modules(code: str) -> set[str]:
    """The tfred submodules and numpy a fresh interpreter holds after running ``code``."""
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('tfred.') or m == 'numpy'))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(tfred.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_import_tfred_loads_a_submodule_on_first_use():
    assert loaded_modules("import tfred") == set()
    loaded = loaded_modules("import tfred\nassert tfred.reduce_model is tfred.reduction.reduce_model")
    assert "tfred.reduction" in loaded
    assert not loaded & ON_DEMAND


def test_check_never_imports_numpy():
    assert not loaded_modules("import tfred.cli") & ON_DEMAND
    loaded = loaded_modules("import tfred.cli\nassert tfred.cli.main(['check', '--builtin', 'mm2d']) == 0")
    assert loaded & ON_DEMAND == {"tfred.builtin_models"}


def test_reduce_from_a_model_file_loads_no_integrator_search_or_builtin(tmp_path):
    path = tmp_path / "transport2.json"
    path.write_text(json.dumps(runpy.run_path(WORKLOADS)["transport_model"](2)))
    loaded = loaded_modules(f"import tfred.cli\nassert tfred.cli.main(['reduce', '--model', {str(path)!r}]) == 0")
    assert not loaded & {"tfred.sim", "tfred.ltc", "tfred.builtin_models"}


def test_converge_loads_the_integrator():
    argv = ["converge", "--builtin", "mm2d", "--ladder", "1e-1,5e-2", "--t2", "1.0"]
    assert "tfred.sim" in loaded_modules(f"import tfred.cli\nassert tfred.cli.main({argv!r}) == 0")


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
    # one exact elimination per matrix: G0 once, which decides the route and
    # serves the standard solve or the rank factorization; Dmu*P for gamma on
    # the nonstandard route; Dmu*P for all columns of the projection; and
    # within each one fraction-free elimination per independent block
    from tfred import matrices
    from tfred.builtin_models import BUILTINS

    matrices_eliminated, eliminations, blocks = [], [], []
    init, bareiss = matrices.Elimination.__init__, matrices._bareiss

    def counting_init(self, M, B, right_first=False):
        matrices_eliminated.append(M)
        blocks.append(sum(1 for rows, cols in matrices._blocks(M) if rows and cols))
        init(self, M, B, right_first)

    def counting_bareiss(*args, **kwargs):
        eliminations.append(args)
        return bareiss(*args, **kwargs)

    monkeypatch.setattr(matrices.Elimination, "__init__", counting_init)
    monkeypatch.setattr(matrices, "_bareiss", counting_bareiss)
    matrix_counts, bareiss_counts = {}, {}
    for name in sorted(BUILTINS):
        matrices_eliminated.clear()
        eliminations.clear()
        blocks.clear()
        main(["reduce", "--builtin", name])
        matrix_counts[name] = len(matrices_eliminated)
        bareiss_counts[name] = len(eliminations)
        assert len(eliminations) == sum(blocks), name
    capsys.readouterr()
    assert matrix_counts == {
        "chain3": 2, "chain3_slowk4": 3, "inhibitor": 3, "linex": 2, "mm2d": 2,
        "mm3d": 3, "mm3d_deg": 3, "mm_diffusion": 2, "transport_binding": 2,
        "transport_binding_slow": 2,
    }
    # the nonstandard builtins eliminate G0 once: mm_diffusion's diagonal G0
    # and transport_binding_slow's split into blocks
    assert bareiss_counts == {
        "chain3": 2, "chain3_slowk4": 3, "inhibitor": 3, "linex": 2, "mm2d": 2,
        "mm3d": 3, "mm3d_deg": 3, "mm_diffusion": 8, "transport_binding": 2,
        "transport_binding_slow": 6,
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


def test_list_names_every_builtin_in_order_with_its_description(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{name:24s} {load_builtin(name).description}" for name in sorted(BUILTINS)]


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
        # --builtin and --model exclude each other, also when the file is missing
        ["check", "--builtin", "mm2d", "--model", "missing.json"],
        # no abbreviations: --mode is not --model on a command without --mode
        ["converge", "--builtin", "mm2d", "--mode", "standard"],
        ["check", "--builtin", "mm3d", "--mode", "standard"],
        # no model at all
        ["reduce"],
    ],
)
def test_bad_input_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "value, why", [("zz=1", "unknown parameter 'zz'"), ("k1=1e400", "1e400 is outside float range")]
)
def test_converge_refuses_a_bad_set(capsys, value, why):
    assert main(["converge", "--builtin", "mm2d", "--set", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --set {value!r}: ") and why in captured.err
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


def test_empty_partition_usage_error(capsys):
    assert main(["check", "--builtin", "linex", "--fast", ""]) == 2
    assert capsys.readouterr().err.startswith("error: --fast needs at least one state name")


def test_model_without_a_default_fast_set_is_bad_input(tmp_path, capsys):
    path = tmp_path / "nofast.json"
    path.write_text(json.dumps({
        "name": "nofast", "states": ["x", "y"], "parameters": [],
        "raw_system": ["eps*x*y", "-y + eps*x"],
        "initial_values": {"x": {"base": "1"}, "y": {"base": "0"}},
    }))
    assert main(["reduce", "--model", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: no fast set given (--fast)")


# -- route decision ------------------------------------------------------------------

ROUTES = {
    "chain3": "standard", "chain3_slowk4": "nonstandard", "inhibitor": "nonstandard",
    "linex": "standard", "mm2d": "standard", "mm3d": "nonstandard", "mm3d_deg": "nonstandard",
    "mm_diffusion": "nonstandard", "transport_binding": "nonstandard",
    "transport_binding_slow": "nonstandard",
}


def test_auto_route_is_decided_from_g0_without_a_refused_reduction(capsys, monkeypatch):
    # the rank of G0 picks the route: no builtin raises and catches
    # StandardCaseError, standard_reduce runs only on the standard route, and
    # the partition's consistency is checked once
    from tfred import reduction
    from tfred.builtin_models import BUILTINS

    refusals, standard_runs, checks = [], [], []
    refusal_init, standard = reduction.StandardCaseError.__init__, reduction.standard_reduce
    check = reduction.check_ltc

    def counting_check(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    def counting_init(self, *args):
        refusals.append(args)
        refusal_init(self, *args)

    def counting_standard(*args, **kwargs):
        standard_runs.append(args)
        return standard(*args, **kwargs)

    monkeypatch.setattr(reduction.StandardCaseError, "__init__", counting_init)
    monkeypatch.setattr(reduction, "standard_reduce", counting_standard)
    monkeypatch.setattr(reduction, "check_ltc", counting_check)
    modes = {}
    for name in sorted(BUILTINS):
        refusals.clear()
        standard_runs.clear()
        checks.clear()
        _, payload = run_json(capsys, "reduce", "--builtin", name)
        modes[name] = payload["mode"]
        assert refusals == [], name
        assert len(checks) == 1, name
        assert len(standard_runs) == (payload["mode"] == "standard"), name
        route = payload["diagnostics"]["route"]
        assert route["chosen"] == payload["mode"] and route["requested"] == "auto", name
        assert (route["g0_rank"] == route["fast_count"]) == (payload["mode"] == "standard"), name
        assert route["refused"]["route"] != payload["mode"], name
    assert modes == ROUTES


def test_standard_reduce_calls_no_equation_solver(capsys, monkeypatch):
    # the standard manifold is y = 0: the certificate's samples get those
    # relations as they are, and the greedy solver never runs.  On the
    # nonstandard route it solves mu's rows from scratch once; the conserved
    # form and the initial value continue from that solve
    from tfred import reduction

    calls = []
    solve = reduction.solve_equations_linear

    def counting_solve(equations, unknowns, solved=()):
        calls.append((list(equations), list(solved)))
        return solve(equations, unknowns, solved)

    monkeypatch.setattr(reduction, "solve_equations_linear", counting_solve)
    for name, mode in sorted(ROUTES.items()):
        calls.clear()
        _, payload = run_json(capsys, "reduce", "--builtin", name)
        if mode == "standard":
            assert calls == [], name
            points = [s["point"] for s in payload["certificate"]["samples"]]
            assert points and all(p[y] == "0" for p in points for y in payload["fast"]), name
        else:
            fresh = [[e.render() for e in equations] for equations, prefix in calls if not prefix]
            assert fresh == [payload["mu"]], name
            assert len(calls) > 1, name


def test_failed_manifold_elimination_refuses_the_initial_value(capsys, monkeypatch):
    # with the manifold unsolved there is no eliminated form, and the initial
    # value has no solve to continue: both are refused, naming the cause,
    # and the exit code is the certificate's
    from tfred import reduction

    monkeypatch.setattr(reduction, "solve_equations_linear", lambda *args, **kwargs: None)
    code = main(["reduce", "--builtin", "mm3d", "--format", "json"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["eliminated"] is None and payload["reduced_initial_value"] is None
    assert "eliminated_conserved" not in payload
    assert code == (0 if payload["certificate"]["verdict"] == "pass" else 3)
    assert "internal error" not in err
    main(["reduce", "--builtin", "mm3d"])
    text = capsys.readouterr().out
    assert "(no eliminated form: manifold equations are not sequentially linearly solvable)" in text
    assert (
        "(no reduced initial value: the manifold could not be solved: "
        "manifold equations are not sequentially linearly solvable)"
    ) in text


def test_failed_conserved_form_keeps_the_eliminated_form(capsys, monkeypatch):
    # the solver fails inside reduce_extras only, where its one call is the
    # conserved form's solve continuing the manifold's: the eliminated form
    # and the initial value stay, and the failure is the conserved form's
    from tfred import cli, reduction

    extras = cli.reduce_extras

    def extras_with_failing_solver(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(reduction, "solve_equations_linear", lambda *a, **k: None)
            return extras(*args, **kwargs)

    main(["reduce", "--builtin", "mm3d", "--format", "json"])
    want = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "reduce_extras", extras_with_failing_solver)
    code = main(["reduce", "--builtin", "mm3d", "--format", "json"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert want["eliminated_conserved"] is not None
    assert payload["eliminated"] == want["eliminated"] and payload["eliminated"] is not None
    assert payload["reduced_initial_value"] == want["reduced_initial_value"] is not None
    assert payload["eliminated_conserved"] is None
    assert code == 0 and "internal error" not in err
    main(["reduce", "--builtin", "mm3d"])
    text = capsys.readouterr().out
    assert "eliminated form (on the manifold):" in text
    assert "no eliminated form" not in text and "eliminated form (with conservation laws):" not in text
    assert "(no conserved form: manifold equations are not sequentially linearly solvable)" in text
    assert "reduced initial value:" in text


def test_reduce_json_reports_the_route(capsys):
    _, payload = run_json(capsys, "reduce", "--builtin", "mm3d")
    assert payload["diagnostics"] == {"route": {
        "chosen": "nonstandard", "requested": "auto", "g0_rank": 1, "fast_count": 2,
        "refused": {"route": "standard", "reason": "G0(x,0) is singular; the scaling needs the rank-deficient (nonstandard) route"},
    }}
    _, payload = run_json(capsys, "reduce", "--builtin", "mm2d", "--mode", "standard")
    assert payload["diagnostics"]["route"] == {
        "chosen": "standard", "requested": "standard", "g0_rank": 1, "fast_count": 1,
        "refused": {"route": "nonstandard", "reason": "fast-block matrix has full rank; use the standard reduction"},
    }
    # text output carries no route
    main(["reduce", "--builtin", "mm3d"])
    assert "route" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, mode, reason",
    [
        ("mm3d", "standard", "G0(x,0) is singular; the scaling needs the rank-deficient (nonstandard) route"),
        ("mm2d", "nonstandard", "fast-block matrix has full rank; use the standard reduction"),
    ],
)
def test_a_forced_route_keeps_its_refusal(capsys, name, mode, reason):
    assert main(["reduce", "--builtin", name, "--mode", mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"reduction refused: {reason}\n"


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


@pytest.mark.parametrize("case", ["mm3d_seed7", "transport_binding_N3"])
def test_golden_certificate(tmp_path, capsys, case):
    # sample points, max real parts and nu_margin, float for float
    g = golden("certificate")[case]
    path = tmp_path / "model.json"
    if "model" in g:
        path.write_text(json.dumps(g["model"]))
    code = main([str(path) if a == "<model>" else a for a in g["argv"]])
    assert code == g["exit_code"]
    assert json.loads(capsys.readouterr().out)["certificate"] == g["certificate"]


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


def test_reduce_goldens_name_every_builtin():
    with open(os.path.join(GOLDEN_DIR, "reduce_sha256.json")) as fh:
        assert sorted(json.load(fh)) == sorted(BUILTINS)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_reduce_json_is_byte_identical_to_its_golden(capsys, name):
    # the sha256 of `reduce --builtin <name> --format json`'s stdout
    with open(os.path.join(GOLDEN_DIR, "reduce_sha256.json")) as fh:
        want = json.load(fh)[name]
    main(["reduce", "--builtin", name, "--format", "json"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


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


# every sample of Dmu*P = [[-10^400]] overflows a float
OVERFLOW_MODEL = {
    "name": "overflow",
    "states": ["x", "y"],
    "parameters": [],
    "raw_system": ["eps*x*y", f"-{10**400}*y + eps*x"],
    "initial_values": {"x": {"base": "1"}, "y": {"base": "0"}},
    "fast": ["y"],
}


def test_reduce_without_a_float_sample_is_indeterminate(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_MODEL))
    code, payload = run_json(capsys, "reduce", "--model", str(path), "--samples", "4")
    assert code == 3
    cert = payload["certificate"]
    assert (cert["verdict"], cert["rejected_samples"], cert["samples"]) == ("indeterminate", 4, [])


def test_reduce_with_no_float_sample_labels_the_exact_method(tmp_path, capsys):
    # the fast entry 10^400*y is unstable and too large for a float at every
    # sample: only the exact Routh test ran
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(dict(OVERFLOW_MODEL, raw_system=["eps*x*y", f"{10**400}*y + eps*x"])))
    code, payload = run_json(capsys, "reduce", "--model", str(path))
    assert code == 3
    cert = payload["certificate"]
    assert (cert["verdict"], cert["method"], len(cert["samples"])) == ("fail", "routh_hurwitz_exact", 25)
    assert all(s["max_real_part"] is None and not s["hurwitz_ok"] for s in cert["samples"])


def strict_json(text: str):
    """Parse JSON that strict parsers accept: no NaN or Infinity tokens."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_indeterminate_certificate_is_strict_json(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_MODEL))
    assert main(["reduce", "--model", str(path), "--format", "json"]) == 3
    assert strict_json(capsys.readouterr().out)["certificate"]["nu_margin"] is None
    # the text report still prints the margin as nan
    assert main(["reduce", "--model", str(path)]) == 3
    assert "indeterminate (margin nan, 0 samples" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["transport_binding", "transport_binding_slow"])
def test_stationary_convergence_is_strict_json(capsys, name):
    # all-1 parameters: every sup error is 0, so no order can be fitted
    argv = ["converge", "--builtin", name, "--ladder", "1e-1,5e-2,2.5e-2", "--t2", "1.0", "--format", "json"]
    assert main(argv) == 4
    payload = strict_json(capsys.readouterr().out)
    assert (payload["verdict"], payload["fitted_order"]) == ("stationary", None)


def test_exponent_above_the_limit_is_bad_input(tmp_path, capsys):
    data = dict(OVERFLOW_MODEL, name="exponent", raw_system=["eps*x^40000*y", "-y + eps*x"])
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(data))
    assert main(["reduce", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: exponent 40000 of x is above the limit 32767\n"
    assert captured.out == ""


BAD_MODEL = {
    "name": "bad",
    "states": ["x", "y"],
    "parameters": ["k"],
    "raw_system": ["eps*x*y", "-y + eps*x"],
    "initial_values": {"x": {"base": "1"}, "y": {"base": "0"}},
    "fast": ["y"],
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"raw_system": ["eps*x*y", "k/0 - y"]}, "division by zero rational function"),
        ({"raw_system": ["eps*x*y", "1/(x-x)*y - y"]}, "division by zero rational function"),
        ({"initial_values": {"x": {"base": "1/0"}}}, "initial value base '1/0' divides by zero"),
        (
            {"raw_system": ["eps*x*y", "(" * 3000 + "y" + ")" * 3000 + " - 2*y"]},
            "expression nested deeper than 100 parentheses",
        ),
    ],
    ids=["constant-divisor", "zero-polynomial-divisor", "initial-value-divisor", "deep-nesting"],
)
def test_bad_expression_is_bad_input(tmp_path, capsys, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BAD_MODEL, **change)))
    assert main(["check", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "change, message",
    [
        ({"initial_values": {"x": {"base": [1]}}}, "'base' must be a string or an integer"),
        ({"raw_system": [5, "-y"]}, "'raw_system' must be an array of strings"),
        ({"states": "xy"}, "'states' must be an array of strings"),
        (
            {"raw_system": ["2^100000*x*y", "-y + eps*x"]},
            f"a constant to the power 100000 has more than {sys.get_int_max_str_digits()} digits",
        ),
        (
            {"raw_system": ["2^14000*2^14000*x*y", "-y + eps*x"]},
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits",
        ),
        (
            {"raw_system": ["(2*x)^15000*y", "-y + eps*x"]},
            f"a constant to the power 15000 has more than {sys.get_int_max_str_digits()} digits",
        ),
    ],
    ids=["list-base", "number-row", "string-states", "long-constant-power", "long-product", "long-monomial-power"],
)
@pytest.mark.parametrize("command", ["check", "reduce"])
def test_bad_model_section_is_bad_input(tmp_path, capsys, change, message, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BAD_MODEL, **change)))
    assert main([command, "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_power_past_the_term_budget_is_refused_before_it_is_expanded(tmp_path, capsys, command):
    path = tmp_path / "power.json"
    path.write_text(json.dumps(dict(BAD_MODEL, raw_system=["eps*x*y + eps*(x+y+1)^400 - eps*(x+y+1)^400", "-y + eps*x"])))
    start = time.perf_counter()
    assert main([command, "--model", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"error: a 3-term expression to the power 400 may have more than {MAX_POWER_TERMS} terms\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "row",
    [
        "(x+y+1)^61*(x+y+1)^61",
        "(x+y+1)^61*(x+y+1)^61*(x+y+1)^61",
        "(x+y+1)^61/(1/(x+y+1)^61)",
        "(x+y+1)^61/(x+y+2)^61 + 1/(x+y+3)^61",
    ],
    ids=["product", "three-factors", "quotient", "rational-sum"],
)
@pytest.mark.parametrize("command", ["check", "reduce"])
def test_product_past_the_term_budget_is_refused_before_it_is_formed(tmp_path, capsys, row, command):
    path = tmp_path / "product.json"
    path.write_text(json.dumps(dict(BAD_MODEL, raw_system=[f"eps*x*y + eps*({row})", "-y + eps*x"])))
    start = time.perf_counter()
    assert main([command, "--model", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: a product of a 1953-term and a 1953-term expression may have more than {MAX_POWER_TERMS} terms\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["converge", "--builtin", "mm2d", "--ladder", "1e-1,5e-2", "--t2", "inf"], "need a finite --t2"),
        (["converge", "--builtin", "mm2d", "--ladder", "1e-1,5e-2", "--t1", "inf"], "need 0 <= --t1 < --t2"),
        (["converge", "--builtin", "mm2d", "--ladder", "1e-1,5e-2", "--t2", "nan"], "need 0 <= --t1 < --t2"),
        (["demo-linex", "--ladder", "1e-1,5e-2", "--tau", "inf"], "need a finite --tau"),
        (["demo-linex", "--ladder", "1e-1,5e-2", "--tau", "nan"], "need --a <= 0, --c < 0 and --tau > 0"),
    ],
    ids=["t2-inf", "t1-inf", "t2-nan", "tau-inf", "tau-nan"],
)
def test_a_non_finite_window_is_refused_at_once(capsys, argv, message):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "remove, message",
    [
        (lambda m: m["reactions"][0].pop("rate"), "reactions[0] has no 'rate'"),
        (lambda m: m["transport"].pop("N"), "transport has no 'N'"),
    ],
    ids=["reaction-rate", "transport-N"],
)
def test_missing_required_key_is_named_with_its_section(tmp_path, capsys, remove, message):
    model = runpy.run_path(WORKLOADS)["transport_model"](2)
    remove(model)
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(model))
    assert main(["check", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_deeply_nested_model_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: model file nested too deeply\n" and captured.out == ""


@pytest.mark.parametrize("fast", ["zz", "k1", "s,s", "s,e,c"])
def test_conditions_refuses_a_bad_fast_set_as_check_does(capsys, fast):
    assert main(["conditions", "--builtin", "mm3d", "--fast", fast]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert main(["check", "--builtin", "mm3d", "--fast", fast]) == 2
    assert capsys.readouterr().err == captured.err


def test_any_other_exception_is_an_internal_error(capsys, monkeypatch):
    from tfred import cli

    def broken_check(*args, **kwargs):
        raise RuntimeError("an unforeseen fault")

    monkeypatch.setattr(cli, "check_ltc", broken_check)
    assert main(["check", "--builtin", "mm2d"]) == 5
    captured = capsys.readouterr()
    assert captured.err == "internal error: an unforeseen fault\n" and captured.out == ""


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


@pytest.mark.parametrize(
    "text",
    ["inf:1e-3", "1e-1:inf", "1e-1:1e-3:inf", "nan:1e-3", "1e-1:1e-300:1.000001", "1e300:1e-300", "inf,1e-1", "nan"],
)
def test_ladder_that_never_ends_or_is_not_finite_is_bad_input(text):
    with pytest.raises(InputError):
        parse_ladder(text)


def test_ladder_longer_than_the_rung_limit_is_bad_input():
    from tfred.sim import MAX_RUNGS

    values = [2.0**-k for k in range(MAX_RUNGS + 1)]
    assert len(parse_ladder(",".join(map(repr, values[:MAX_RUNGS])))) == MAX_RUNGS
    with pytest.raises(InputError, match="more than"):
        parse_ladder(",".join(map(repr, values)))


def test_ladder_below_the_floor_compares_nothing(capsys):
    code, payload = run_json(capsys, "converge", "--builtin", "mm2d", "--ladder", "1e-5,1e-6")
    assert code == 4
    assert (payload["verdict"], payload["ladder"], payload["sup_errors"]) == ("nothing compared", [], [])
    assert payload["failures"] == ["eps=1e-05: below the eps floor 0.0001", "eps=1e-06: below the eps floor 0.0001"]


def test_converge_text_prints_each_failure_after_the_verdict(capsys):
    code = main(["converge", "--builtin", "mm2d", "--ladder", "2e-4,5e-5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert lines[-2:] == ["verdict: partial: inconclusive", "failure: eps=5e-05: below the eps floor 0.0001"]


def test_failed_first_rung_compares_nothing(capsys, monkeypatch):
    from tfred import sim

    monkeypatch.setattr(sim, "compile_system", lambda *args: lambda t, z: [float("nan")] * len(z))
    code, payload = run_json(capsys, "converge", "--builtin", "mm2d", "--ladder", "1e-1,5e-2")
    assert code == 4
    assert (payload["verdict"], payload["ladder"], payload["sup_errors"]) == ("nothing compared", [], [])
    assert payload["failures"] == ["eps=0.1: field evaluation failed at tau = 0"]


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_out_directory_serializes_the_report_once(tmp_path, capsys, monkeypatch, fmt):
    from tfred import cli

    argv = ["reduce", "--builtin", "mm2d", "--format"]
    assert main(argv + ["json"]) == 0
    want = capsys.readouterr().out
    calls = []
    write = cli.json_text
    monkeypatch.setattr(cli, "json_text", lambda payload: calls.append(payload) or write(payload))
    monkeypatch.setattr(json, "dumps", lambda *a, **k: pytest.fail("json.dumps called"))
    monkeypatch.setattr(json, "dump", lambda *a, **k: pytest.fail("json.dump called"))
    assert main(argv + [fmt, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    # the file holds the JSON report without print's newline
    assert (tmp_path / "reduce.json").read_text() == want[:-1]
    if fmt == "json":
        assert out == want
    else:
        assert (tmp_path / "reduce.txt").read_text() == out


# leaves json writes with care: escapes, huge ints, non-finite and signed
# floats, and a Fraction, which default=str writes as its text
JSON_LEAVES = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9 \u2028 \U0001f600", "\ud800"]),
    st.integers(),
    st.integers(min_value=-(10**4000), max_value=10**4000),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]),
    st.booleans(),
    st.none(),
    st.fractions(),
)
# json writes bool, None, int and float keys by their JSON text
JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(JSON_KEYS, inner),
    max_leaves=40,
))
def test_json_text_is_json_dumps_with_indent_two(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, default=str)


@pytest.mark.parametrize("key", [(1, 2), Fraction(1, 2), b"k"])
def test_json_text_refuses_the_keys_json_refuses(key):
    with pytest.raises(TypeError) as want:
        json.dumps({key: 0}, indent=2, default=str)
    with pytest.raises(TypeError) as got:
        json_text({"a": [{key: 0}]})
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_one_without_a_message(unbuffered):
    # the reader closed the pipe before tfred wrote a byte; buffered output
    # meets it in main's own flush, unbuffered output in print
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(tfred.__file__).parent.parent), PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "tfred.cli", "reduce", "--builtin", "mm2d", "--format", "json"]
    try:
        done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_closed_stdout_without_a_descriptor_exits_one_in_process(capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["check", "--builtin", "mm2d"]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == ""
    assert main(["check", "--builtin", "mm2d"]) == 0


@pytest.mark.parametrize("samples", ["10001", str(10**12)])
def test_samples_above_the_limit_are_bad_input_before_any_draw(capsys, monkeypatch, samples):
    from tfred import reduction

    def refuse(*args):
        raise AssertionError("a certificate point was drawn")

    assert reduction.MAX_SAMPLES == 10_000
    monkeypatch.setattr(reduction, "_draw", refuse)
    assert main(["reduce", "--builtin", "mm2d", "--samples", samples]) == 2
    assert capsys.readouterr().err == f"error: --samples {samples}: more than 10000\n"


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
