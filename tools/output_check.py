"""Print the output of 307 CLI cases and 37 library cases, for comparing two checkouts byte for byte.

Usage: python tools/output_check.py <src-dir>

<src-dir> is the ``src`` directory of a checkout.  Each CLI case prints its
argv, exit code, stdout and stderr.  The CLI cases are:

- every builtin x {check, ltc, conditions, reduce, converge on a short
  ladder} x {text, json} x --seed {0, 7};
- ``reduce --mode standard|nonstandard`` on mm2d and mm3d, and the
  inconsistent partition ``--fast s`` of mm3d;
- ``check`` (text and json) on the non-default partitions ``--fast s`` and
  ``--fast e`` of mm3d, ``--fast c1`` of chain3 and ``--fast y`` of inhibitor;
- the benchmark's ladder jobs: ``converge`` on mm2d and mm3d down to
  eps = 7.8e-4, on transport_binding with fixed heterogeneous parameters down
  to 3.125e-3, and ``demo-linex`` with and without ``--consistent``;
- two bad ``converge --set`` values (an unknown name, a value outside float
  range);
- ``reduce`` and ``ltc --model ... --format json`` on nine survey-shaped raw
  systems (built by ``bench/workloads.py``'s ``raw_model``);
- ``reduce --model ... --format json`` on transport_binding(N) model files
  for N = 2, 3, 5, 7, 8, 10, 16 (built by ``bench/workloads.py``'s
  ``transport_model``, written to a temporary directory that is printed as
  ``<tmp>``), and ``reduce --model ... --seed 7 --samples 60 --format json``
  on transport_binding(4);
- ``reduce`` on a raw model whose fast block overflows a float at every
  certificate sample, and on one with an exponent above the exact kernel's
  limit;
- ``reduce`` and ``ltc`` on a raw model whose rows cancel quotients and
  negative powers back to polynomials;
- ``ltc --model ... --format json`` on transport_binding(N) for N = 12, 16,
  on a 16-state cubic field and on the cubic field ``a*x*y*z``, ``x^2*y``, 0;
- three bad inputs: ``--builtin`` together with ``--model`` (a missing
  file), ``converge --mode`` and ``reduce`` without a model;
- ``conditions`` (text and json) on mm3d's six pre-assigned fast sets of
  acceptance criterion 09 and on four bad ones (a name that is no symbol, a
  parameter, a repeated state, every state);
- ``check`` on raw models with a list as an initial-value base, a number as a
  row, a string as the states, and on a file nested 100 000 arrays deep;
- ``check`` and ``reduce`` on a row with the constant power ``2^100000``, on
  a row whose coefficient grows too long through a product
  (``2^14000*2^14000``) and on one through the power of a monomial
  (``(2*x)^15000``);
- ``check`` and ``reduce`` on a row with the power ``(x+y+1)^400`` of a
  multi-term expression;
- ``check`` on a network model with a reaction that has no rate;
- ``converge --model`` (text and json) on a raw model whose full field
  overflows a float inside the step loop;
- ``check`` and ``reduce`` on rows with a product of multi-term expressions
  past the parser's term budget, formed by ``*`` (two and three factors), by
  ``/`` and by a sum over two different denominators;
- ``converge --t2 inf`` and ``demo-linex --tau inf``, a time window that never
  ends.

The library cases print what the exact constant-matrix kernel decides and
no CLI output shows whole: ``linear_first_integrals`` of every builtin and of
``transport_binding(N)`` for N = 2..8, each with the linear integrals of its
scaled fast flow (``fast_linear_integrals``), the (P, mu) that
``find_decomposition`` gives for mm3d scaled with e, c fast at
``default_sample(ctx, seed=1)``, and the symbolic ``char_poly`` of the
Dmu*P that ``reduce_model`` gives for every builtin and for
``transport_binding(N)``, N = 2..5, and each grade's terms, in dict order
(which no rendering shows), of ``grade_parameter`` moving k2 of mm3d to
eps-orders 0, 1 and 2 and moving a parameter of degree 3 across two grades of
a raw system to eps-orders 1 and 2.  Compare two checkouts with

    diff <(python tools/output_check.py OLD/src) <(python tools/output_check.py src)
"""

import contextlib
import io
import json
import random
import runpy
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from tfred.builtin_models import BUILTINS, mm3d, transport_binding  # noqa: E402
from tfred.cli import main  # noqa: E402
from tfred.matrices import char_poly  # noqa: E402
from tfred.reduction import default_sample, fast_linear_integrals, find_decomposition, reduce_model  # noqa: E402
from tfred.rational import Context  # noqa: E402
from tfred.systems import Partition, apply_scaling, grade_parameter, linear_first_integrals, raw_system  # noqa: E402

CMDS = [["check"], ["ltc"], ["conditions"], ["reduce"],
        ["converge", "--ladder", "1e-1,5e-2,2.5e-2", "--t2", "1.0"]]
cases = [[*c, "--builtin", b, "--format", f, "--seed", s]
         for b in sorted(BUILTINS) for c in CMDS for f in ("text", "json") for s in ("0", "7")]
cases += [["reduce", "--builtin", b, "--mode", m, "--format", f]
          for b in ("mm2d", "mm3d") for m in ("standard", "nonstandard") for f in ("text", "json")]
cases += [[c, "--builtin", "mm3d", "--fast", "s"] for c in ("reduce", "converge")]
# Laurent grades and fast = 0 witnesses of partitions other than the default
cases += [["check", "--builtin", b, "--fast", f, "--format", fmt]
          for b, f in (("mm3d", "s"), ("mm3d", "e"), ("chain3", "c1"), ("inhibitor", "y")) for fmt in ("text", "json")]
# Deep ladders: the explicit stepper takes thousands of steps per rung here.
# Unequal rates and initial levels keep the transport study off its
# homogeneous equilibrium, so its sup errors are not all 0.
TRANSPORT_SET = ",".join(
    ["k1=1.1000", "km1=0.9000", "delta_s=1.2000", "delta_p=0.8500", "delta_c=1.0500"]
    + [f"{x}0_{a}={v:.4f}" for x, vs in zip("spc", ((0.6, 1.9, 1.2, 0.8), (1.5, 0.7, 1.1, 1.8), (0.9, 1.3, 0.55, 1.6)))
       for a, v in enumerate(vs, 1)]
)
cases += [["converge", "--builtin", b, "--seed", "0", "--ladder", "1e-1:7.8e-4:half", "--format", "json"]
          for b in ("mm2d", "mm3d")]
cases.append(["converge", "--builtin", "transport_binding", "--seed", "0", "--ladder", "1e-1:3.125e-3:half",
              "--t1", "0.5", "--set", TRANSPORT_SET, "--format", "json"])
cases += [["demo-linex", "--format", "json", *flag] for flag in ([], ["--consistent"])]
cases += [["converge", "--builtin", "mm2d", "--set", s] for s in ("zz=1", "k1=1e400")]


workloads = runpy.run_path(str(Path(__file__).parent.parent / "bench" / "workloads.py"))
transport_model, raw_model = workloads["transport_model"], workloads["raw_model"]
tmp = tempfile.TemporaryDirectory()
# the survey's raw systems: eight from one seeded stream, and one in which a
# factor met only in a fast row of P cancels in a slow row of Q
rng = random.Random(0)
for model in [raw_model(rng, index)[0] for index in range(8)] + [raw_model(random.Random(262), 262)[0]]:
    path = Path(tmp.name) / f"{model['name']}.json"
    path.write_text(json.dumps(model))
    cases += [[c, "--model", str(path), "--format", "json"] for c in ("reduce", "ltc")]
for N in (2, 3, 5, 7, 8, 10, 16):
    path = Path(tmp.name) / f"transport_binding_N{N}.json"
    path.write_text(json.dumps(transport_model(N)))
    cases.append(["reduce", "--model", str(path), "--format", "json"])
# many certificate samples, each extended by the manifold's solved relations
path = Path(tmp.name) / "transport_binding_N4.json"
path.write_text(json.dumps(transport_model(4)))
cases.append(["reduce", "--model", str(path), "--seed", "7", "--samples", "60", "--format", "json"])
# a fast block whose every certificate sample overflows a float
path = Path(tmp.name) / "overflow.json"
path.write_text(json.dumps({
    "name": "overflow", "states": ["x", "y"], "parameters": [],
    "raw_system": ["eps*x*y", f"-{10**400}*y + eps*x"],
    "initial_values": {"x": {"base": "1"}, "y": {"base": "0"}}, "fast": ["y"],
}))
cases.append(["reduce", "--model", str(path), "--format", "json"])
# an exponent above the exact kernel's limit of 32767
path = Path(tmp.name) / "exponent.json"
path.write_text(json.dumps({
    "name": "exponent", "states": ["x", "y"], "parameters": [],
    "raw_system": ["eps*x^40000*y", "-y + eps*x"],
    "initial_values": {"x": {"base": "1"}, "y": {"base": "0"}}, "fast": ["y"],
}))
cases.append(["reduce", "--model", str(path)])
# mm3d_deg with rows written through quotients, negative powers and
# parentheses, which the parser must cancel back to polynomials
path = Path(tmp.name) / "quotients.json"
path.write_text(json.dumps({
    "name": "quotients", "states": ["s", "e", "c"], "parameters": ["k1", "km1", "k2", "delta", "e0", "s0"],
    "raw_system": ["(km1*c*s - k1*e*s^2)/s",
                   "-k1*e*s + (km1 + k2)*c*e*e^-1 - eps*delta*(e/2)*2",
                   "(2*k1*e*s - 2*(km1 + k2)*c)/2 + (s^-1*(s + s^2) - 1 - s)^2"],
    "initial_values": {"s": {"base": "s0"}, "e": {"base": "e0"}, "c": {"base": "0"}}, "fast": ["e", "c"],
}))
cases += [["reduce", "--model", str(path), "--format", "json"], ["ltc", "--model", str(path)]]
# the fast-set search on transport_binding(12) and (16), whose candidate slow
# states hold no edge, on a 16-state cubic field, and on a cubic field with
# two minimal sets
for N in (12, 16):
    path = Path(tmp.name) / f"transport_binding_N{N}.json"
    path.write_text(json.dumps(transport_model(N)))
    cases.append(["ltc", "--model", str(path), "--format", "json"])
xs = [f"x{i}" for i in range(1, 16)]
for name, states, params, rows in (
    ("cubic16", xs + ["y"], [], [f"-y*{x}" for x in xs] + ["-y - y*x1*x2"]),
    ("cubic3", ["x", "y", "z"], ["a"], ["a*x*y*z", "x^2*y", "0"]),
):
    path = Path(tmp.name) / f"{name}.json"
    path.write_text(json.dumps({"name": name, "states": states, "parameters": params, "raw_system": rows}))
    cases.append(["ltc", "--model", str(path), "--format", "json"])
cases += [
    ["check", "--builtin", "mm2d", "--model", str(Path(tmp.name) / "missing.json")],
    ["converge", "--builtin", "mm2d", "--mode", "standard"],
    ["reduce"],
]
# acceptance criterion 09's pre-assigned fast sets, then four bad ones
cases += [["conditions", "--builtin", "mm3d", "--fast", f, "--format", fmt]
          for f in ("s", "e", "c", "s,e", "s,c", "e,c", "zz", "k1", "s,s", "s,e,c") for fmt in ("text", "json")]
# model files with a section of the wrong JSON type, nested too deeply, or
# with a constant power too long to print
base_model = {"name": "bad", "states": ["x", "y"], "parameters": ["k"], "raw_system": ["eps*x*y", "-y + eps*x"],
              "initial_values": {"x": {"base": "1"}, "y": {"base": "0"}}, "fast": ["y"]}
for name, change, commands in (
    ("list_base", {"initial_values": {"x": {"base": [1]}}}, ("check",)),
    ("number_row", {"raw_system": [5, "-y"]}, ("check",)),
    ("string_states", {"states": "xy"}, ("check",)),
    ("long_power", {"raw_system": ["2^100000*x*y", "-y + eps*x"]}, ("check", "reduce")),
):
    path = Path(tmp.name) / f"{name}.json"
    path.write_text(json.dumps(dict(base_model, **change)))
    cases += [[c, "--model", str(path)] for c in commands]
path = Path(tmp.name) / "deep.json"
path.write_text("[" * 100_000 + "]" * 100_000)
cases.append(["check", "--model", str(path)])
# coefficients too long to print, grown by a product and by the power of a
# monomial
for name, row in (("long_product", "2^14000*2^14000*x*y"), ("long_monomial_power", "(2*x)^15000*y")):
    path = Path(tmp.name) / f"{name}.json"
    path.write_text(json.dumps(dict(base_model, raw_system=[row, "-y + eps*x"])))
    cases += [[c, "--model", str(path)] for c in ("check", "reduce")]
# the power of a multi-term expression, expanded twice and cancelled, with a
# bound on its terms past the parser's budget
path = Path(tmp.name) / "multi_term_power.json"
path.write_text(json.dumps(dict(base_model, raw_system=["eps*x*y + eps*(x+y+1)^400 - eps*(x+y+1)^400", "-y + eps*x"])))
cases += [[c, "--model", str(path)] for c in ("check", "reduce")]
# a reaction without its required rate
path = Path(tmp.name) / "missing_rate.json"
model = transport_model(2)
del model["reactions"][0]["rate"]
path.write_text(json.dumps(model))
cases.append(["check", "--model", str(path)])
# a full field whose power x^300 overflows a float past x = 10.65, a row of
# nan as at a pole, while the reduced field x' = 1 does not: the first rung
# fails inside the step loop
path = Path(tmp.name) / "overflow_field.json"
path.write_text(json.dumps({
    "name": "overflow_field", "states": ["x", "y"], "parameters": [],
    "raw_system": ["eps*(1 + y*x^300/10^300)", "-y"],
    "initial_values": {"x": {"base": "9"}, "y": {"base": "1"}}, "fast": ["y"],
}))
cases += [["converge", "--model", str(path), "--format", f] for f in ("text", "json")]
# products of multi-term expressions whose bound on their terms is past the
# parser's budget
for name, row in (
    ("product", "(x+y+1)^61*(x+y+1)^61"),
    ("three_factors", "(x+y+1)^61*(x+y+1)^61*(x+y+1)^61"),
    ("quotient", "(x+y+1)^61/(1/(x+y+1)^61)"),
    ("rational_sum", "(x+y+1)^61/(x+y+2)^61 + 1/(x+y+3)^61"),
):
    path = Path(tmp.name) / f"{name}.json"
    path.write_text(json.dumps(dict(base_model, raw_system=[f"eps*x*y + eps*({row})", "-y + eps*x"])))
    cases += [[c, "--model", str(path)] for c in ("check", "reduce")]
# a time window that never ends
cases += [["converge", "--builtin", "mm2d", "--ladder", "1e-1,5e-2", "--t2", "inf"],
          ["demo-linex", "--ladder", "1e-1,5e-2", "--tau", "inf"]]
for argv in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is printed as the case's outcome
            code = f"crash {type(exc).__name__}: {exc}"
    print("###", " ".join(argv).replace(tmp.name, "<tmp>"), "exit", code)
    print(out.getvalue().replace(tmp.name, "<tmp>"), end="")
    print("stderr:", err.getvalue().replace(tmp.name, "<tmp>"))
tmp.cleanup()

specs = [(b, BUILTINS[b]()) for b in sorted(BUILTINS)]
specs += [(f"transport_binding({N})", transport_binding(N)) for N in range(2, 9)]
for name, spec in specs:
    print("### linear_first_integrals", name)
    for w in linear_first_integrals(spec.system):
        print(" ".join(map(str, w)))
    scaled = apply_scaling(spec.system, Partition.from_fast(spec.system, spec.fast)).system
    print("fast flow:", ", ".join(phi.render() for phi in fast_linear_integrals(scaled)))
# acceptance criterion 02's decomposition h0 = P*mu
scaled = apply_scaling(mm3d().system, Partition.from_fast(mm3d().system, ["e", "c"])).system
dec = find_decomposition(scaled.grade(0), default_sample(scaled.ctx, seed=1))
print("### find_decomposition mm3d fast e, c")
print("P:", "; ".join(", ".join(v.render() for v in row) for row in dec.P.entries))
print("mu:", ", ".join(v.render() for v in dec.mu))
# the builtins and transport_binding(2..5): Dmu*P up to 9x9
for name, spec in specs[:len(BUILTINS) + 4]:
    M = reduce_model(spec.system, spec.fast).decomposition.dmup()
    print("### char_poly of Dmu*P", name)
    print("; ".join(c.render() for c in char_poly(M)))
# term order, which compiled float fields sum in and no rendering shows
ctx = Context(["x", "y"], ["a", "b"])
rows = [ctx.parse_poly("a^3*x*y + b*x - a*x^2 + eps*(a^2*b*y - a*x + 3*a^3)"),
        ctx.parse_poly("-a*b*y + a^2*x + eps*(a^3*x*y + b)")]
for name, sys, param, order in [("mm3d", mm3d().system, "k2", k) for k in range(3)] + [
        ("raw", raw_system(ctx, rows), "a", k) for k in (1, 2)]:
    graded = grade_parameter(sys, param, order)
    print(f"### grade_parameter {name} {param} to eps-order {order}")
    for k, g in zip(graded.orders(), graded.grades):
        print(f"grade {k}:", "; ".join(str(list(p.monomials())) for p in g))
