"""Print the output of 221 CLI cases, for comparing two checkouts byte for byte.

Usage: python tools/output_check.py <src-dir>

<src-dir> is the ``src`` directory of a checkout.  The cases are every builtin
x {check, ltc, conditions, reduce, converge on a short ladder} x {text, json}
x --seed {0, 7}, plus ``reduce --mode standard|nonstandard`` on mm2d and mm3d
and the inconsistent partition ``--fast s`` of mm3d, plus ``reduce --model
... --format json`` on transport_binding(N) model files for N = 2, 3, 5, 7, 8, 10 (the
benchmark's model shape, written to a temporary directory that is printed as
``<tmp>``), plus the benchmark's ladder jobs: ``converge`` on mm2d and mm3d
down to eps = 7.8e-4, on transport_binding with fixed heterogeneous
parameters down to 3.125e-3, and ``demo-linex`` with and without
``--consistent``.  Each case prints its argv, exit code, stdout and stderr.  Compare
two checkouts with

    diff <(python tools/output_check.py OLD/src) <(python tools/output_check.py src)
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from tfred.builtin_models import BUILTINS  # noqa: E402
from tfred.cli import main  # noqa: E402

CMDS = [["check"], ["ltc"], ["conditions"], ["reduce"],
        ["converge", "--ladder", "1e-1,5e-2,2.5e-2", "--t2", "1.0"]]
cases = [[*c, "--builtin", b, "--format", f, "--seed", s]
         for b in sorted(BUILTINS) for c in CMDS for f in ("text", "json") for s in ("0", "7")]
cases += [["reduce", "--builtin", b, "--mode", m, "--format", f]
          for b in ("mm2d", "mm3d") for m in ("standard", "nonstandard") for f in ("text", "json")]
cases += [[c, "--builtin", "mm3d", "--fast", "s"] for c in ("reduce", "converge")]
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


def transport_model(N: int) -> dict:
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
                "s": {"kind": "laplacian", "eps_order": 0, "rate": "delta_s"},
                "p": {"kind": "laplacian", "eps_order": 1, "rate": "delta_p"},
                "c": {"kind": "laplacian", "eps_order": 1, "rate": "delta_c"},
            },
        },
        "initial_values": {
            f"{x}{a}": {"base": f"{x}0_{a}", "eps_order": 0 if x == "p" else 1}
            for x in "spc"
            for a in comps
        },
        "fast": [f"s{a}" for a in comps] + [f"c{a}" for a in comps],
    }


tmp = tempfile.TemporaryDirectory()
for N in (2, 3, 5, 7, 8, 10):
    path = Path(tmp.name) / f"transport_binding_N{N}.json"
    path.write_text(json.dumps(transport_model(N)))
    cases.append(["reduce", "--model", str(path), "--format", "json"])
for argv in cases:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print("###", " ".join(argv).replace(tmp.name, "<tmp>"), "exit", code)
    print(out.getvalue().replace(tmp.name, "<tmp>"), end="")
    print("stderr:", err.getvalue().replace(tmp.name, "<tmp>"))
tmp.cleanup()
