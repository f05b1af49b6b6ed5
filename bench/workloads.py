"""Seeded jobs for the three benchmark workloads, with their output checks.

Every job is one ``tfred.cli.main(argv)`` call.  Inputs (model files, ``--set``
strings, ``--seed`` values) come from the workload seed alone; the program
only sees the generated argv.  Each job carries a check that reads the job's
exit code and stdout after the timed part and returns ``None`` when the
output is right, or a one-line reason when it is not.  Symbolic rows are
compared by parsing and exact rational-function equality (cross-multiplied),
never by text, so a change of display normalisation is not a failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("transport-scaling", "ladder", "survey")

# "full" is what a timed run uses: every job takes at most about two seconds
# on a 2.0 GHz Xeon, so that a run repeats each one at least five times.
# "large" is the first-specified size (N up to 6, the default ladder, ~300
# survey jobs), whose N = 6 reduce alone takes about 10 s; "smoke" is for
# smoke.py.
SIZES = ("full", "large", "smoke")

# transport_binding(N) compartment counts.
TRANSPORT_N = {"full": (2, 3, 4), "large": (3, 4, 5, 6), "smoke": (2, 3)}

# Ladders stay at or above sim.EPS_FLOOR (1e-4); convergence_study drops rungs below it.
LADDERS = {
    "full": {"default": "1e-1:7.8e-4:half", "transport": "1e-1:3.125e-3:half"},
    "large": {"default": None, "transport": "1e-1:7.8e-4:half"},
    "smoke": {"default": "1e-1:1.25e-2:half", "transport": "1e-1:1.25e-2:half"},
}
# The comparison window starts after the initial layer of the heterogeneous
# transport study has decayed on every rung, so the fitted order measures the
# O(eps) regime rather than the layer.
TRANSPORT_T1 = "0.5"
ORDER_BAND = (0.8, 1.2)

RAW_SYSTEMS = {"full": 80, "large": 130, "smoke": 6}
SURVEY_COMMANDS = ("check", "ltc", "conditions", "reduce")
SURVEY_BUILTINS = (
    "mm2d",
    "mm3d",
    "mm3d_deg",
    "chain3",
    "chain3_slowk4",
    "inhibitor",
    "mm_diffusion",
    "transport_binding_slow",
    "linex",
)
# Exit codes of `tfred <command> --builtin <name>`: linex's default fast set
# {y} is initial-value inconsistent (check exits 2) and its fast block fails
# the certificate (reduce exits 3); every other pairing succeeds.
BUILTIN_EXIT = {
    command: {b: 0 for b in SURVEY_BUILTINS} for command in SURVEY_COMMANDS
}
BUILTIN_EXIT["check"]["linex"] = 2
BUILTIN_EXIT["reduce"]["linex"] = 3


@dataclass
class Job:
    """One CLI call; ``check(code, stdout)`` returns None or a failure reason."""

    name: str
    argv: list[str]
    check: Callable[[int, str], "str | None"]


def build_jobs(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Job]:
    """Generate the workload's inputs under ``workdir`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "transport-scaling":
        return _transport_jobs(rng, workdir, size)
    if workload == "ladder":
        return _ladder_jobs(rng, size)
    if workload == "survey":
        return _survey_jobs(rng, workdir, size)
    raise ValueError(f"unknown workload {workload!r}")


def _parse_rows(ctx, rows: list[str]) -> dict:
    """{state: RationalFunction} from rendered "x' = expr" rows."""
    out = {}
    for row in rows:
        lhs, rhs = row.split("=", 1)
        out[lhs.strip().rstrip("'")] = ctx.parse(rhs)
    return out


# -- transport-scaling ---------------------------------------------------------


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


def transport_expected(N: int) -> tuple[dict, dict]:
    """Diffusion-limit rows and reduced initial value of transport_binding(N).

    The rows are delta_p*(p_{a-1} - 2*p_a + p_{a+1}) with reflecting ends; the
    initial value is the N-compartment form of the formula pinned in
    tests/golden/transport_binding.json for N = 4.
    """
    rows = {}
    for a in range(1, N + 1):
        left = f"p{a - 1}" if a > 1 else f"p{a}"
        right = f"p{a + 1}" if a < N else f"p{a}"
        rows[f"p{a}"] = f"delta_p*({left} - 2*p{a} + {right})"
    total = " + ".join([f"s0_{a}" for a in range(1, N + 1)] + [f"c0_{a}" for a in range(1, N + 1)])
    den = f"(km1*{N} + k1*(" + " + ".join(f"p0_{a}" for a in range(1, N + 1)) + "))"
    iv = {}
    for a in range(1, N + 1):
        iv[f"s{a}_star"] = f"km1*({total}) / {den}"
        iv[f"p{a}"] = f"p0_{a}"
        iv[f"c{a}_star"] = f"k1*p0_{a}*({total}) / {den}"
    return rows, iv


def transport_context(N: int):
    # tfred is imported on first use: importing it is part of the timed set-up
    from tfred.rational import Context

    comps = range(1, N + 1)
    states = [f"s{a}_star" for a in comps] + [f"p{a}" for a in comps] + [f"c{a}_star" for a in comps]
    params = ["k1", "km1"] + [f"{x}0_{a}" for x in "spc" for a in comps]
    return Context(states, params + ["delta_s", "delta_p", "delta_c"])


def check_transport(N: int, code: int, stdout: str) -> "str | None":
    if code != 0:
        return f"exit code {code}"
    out = json.loads(stdout)
    if out.get("certificate", {}).get("verdict") != "pass":
        return "certificate did not pass"
    ctx = transport_context(N)
    want_rows, want_iv = transport_expected(N)
    got_rows = _parse_rows(ctx, (out.get("eliminated") or {}).get("rows", []))
    for name, text in want_rows.items():
        if name not in got_rows or got_rows[name] != ctx.parse(text):
            return f"eliminated row of {name} is not the diffusion limit"
    got_iv = out.get("reduced_initial_value") or {}
    for name, text in want_iv.items():
        if name not in got_iv or ctx.parse(got_iv[name]) != ctx.parse(text):
            return f"reduced initial value of {name} is wrong"
    return None


def _transport_jobs(rng: random.Random, workdir: Path, size: str) -> list[Job]:
    jobs = []
    for N in TRANSPORT_N[size]:
        path = workdir / f"transport_binding_N{N}.json"
        path.write_text(json.dumps(transport_model(N)))
        argv = ["reduce", "--model", str(path), "--seed", str(rng.randrange(10**6)), "--format", "json"]
        jobs.append(Job(f"reduce/N{N}", argv, lambda code, out, N=N: check_transport(N, code, out)))
    return jobs


# -- ladder ---------------------------------------------------------------------


def transport_set(rng: random.Random, N: int = 4) -> str:
    """Heterogeneous positive parameters for `converge --builtin transport_binding`.

    With every parameter at its default 1 the compartments start equal and the
    study degenerates to a homogeneous equilibrium, so initial levels differ
    per compartment and the rates are jittered around 1.
    """
    pieces = [f"{k}={rng.uniform(0.8, 1.25):.4f}" for k in ("k1", "km1", "delta_s", "delta_p", "delta_c")]
    pieces += [f"{x}0_{a}={rng.uniform(0.5, 2.0):.4f}" for x in "spc" for a in range(1, N + 1)]
    return ",".join(pieces)


def check_converge(code: int, stdout: str) -> "str | None":
    if code != 0:
        return f"exit code {code}"
    out = json.loads(stdout)
    if out.get("verdict") != "converges":
        return f"verdict {out.get('verdict')!r}"
    order = out.get("fitted_order")
    if not (isinstance(order, float) and ORDER_BAND[0] <= order <= ORDER_BAND[1]):
        return f"fitted order {order} outside {ORDER_BAND}"
    return None


def check_linex(consistent: bool, code: int, stdout: str) -> "str | None":
    if code != 0:
        return f"exit code {code}"
    out = json.loads(stdout)
    want = "converges" if consistent else "does_not_converge"
    if out.get("verdict") != want:
        return f"verdict {out.get('verdict')!r}, expected {want!r}"
    if abs(out["extrapolated_limit"] - out["closed_form_limit"]) > 1e-2:
        return "extrapolated limit misses the closed form"
    return None


def _ladder_jobs(rng: random.Random, size: str) -> list[Job]:
    ladders = LADDERS[size]
    seed = str(rng.randrange(10**6))
    jobs = []
    for model in ("mm2d", "mm3d"):
        argv = ["converge", "--builtin", model, "--seed", seed, "--format", "json"]
        if ladders["default"]:
            argv += ["--ladder", ladders["default"]]
        jobs.append(Job(f"converge/{model}", argv, check_converge))
    argv = [
        "converge", "--builtin", "transport_binding", "--seed", seed,
        "--ladder", ladders["transport"], "--t1", TRANSPORT_T1,
        "--set", transport_set(rng), "--format", "json",
    ]
    jobs.append(Job("converge/transport_binding", argv, check_converge))
    for consistent in (False, True):
        argv = ["demo-linex", "--format", "json"] + (["--consistent"] if consistent else [])
        name = "demo-linex/consistent" if consistent else "demo-linex/default"
        jobs.append(Job(name, argv, lambda code, out, c=consistent: check_linex(c, code, out)))
    return jobs


# -- survey ---------------------------------------------------------------------


def raw_model(rng: random.Random, index: int) -> tuple[dict, list[str], list[str]]:
    """A random raw-system model shaped like acceptance criterion 10.

    Slow rows are multiples of the fast variables and fast rows carry a
    dominant negative diagonal; about a third of the systems get a degree-3
    term so that `ltc` takes its subset-enumeration fallback.  Returns the
    model and its grade-0 and grade-1 rows as text.
    """
    n_slow = rng.randint(1, 2)
    n_fast = rng.randint(1, 3)
    xs = [f"x{i}" for i in range(1, n_slow + 1)]
    ys = [f"y{j}" for j in range(1, n_fast + 1)]
    states = xs + ys
    symbols = states + ["a", "b"]

    def term(max_extra: int) -> str:
        factors = [str(rng.choice([-2, -1, 1, 2]))]
        factors += [rng.choice(symbols) for _ in range(rng.randint(0, max_extra))]
        return "*".join(factors)

    h0 = []
    for _ in xs:
        h0.append(" + ".join(f"{term(2)}*{rng.choice(ys)}" for _ in range(rng.randint(0, 2))))
    for y in ys:
        parts = [f"{-3 - rng.randint(0, 2)}*{y}"]
        parts += [f"{term(2)}*{rng.choice(ys)}" for _ in range(rng.randint(0, 2))]
        h0.append(" + ".join(parts))
    if rng.random() < 1 / 3:
        row = rng.randrange(len(states))
        cubic = f"{rng.choice([-1, 1])}*{rng.choice(states)}*{rng.choice(states)}*{rng.choice(ys)}"
        h0[row] = f"{h0[row]} + {cubic}" if h0[row] else cubic
    h1 = [" + ".join(term(2) for _ in range(rng.randint(0, 2))) for _ in states]
    h0 = [r or "0" for r in h0]
    h1 = [r or "0" for r in h1]
    model = {
        "name": f"raw{index:03d}",
        "states": states,
        "parameters": ["a", "b"],
        "raw_system": [f"{r0} + eps*({r1})" for r0, r1 in zip(h0, h1)],
        "fast": ys,
    }
    return model, h0, h1


def check_builtin(command: str, builtin: str, code: int, stdout: str) -> "str | None":
    want = BUILTIN_EXIT[command].get(builtin)
    if code != want:
        return f"exit code {code}, reference {want}"
    return None


def check_ltc(code: int, stdout: str) -> "str | None":
    if code != 0:
        return f"exit code {code}"
    out = json.loads(stdout)
    if not out.get("complete"):
        return "search truncated"
    return None


def check_raw_reduce(model: dict, h0: list[str], h1: list[str], code: int, stdout: str) -> "str | None":
    """Exit 0, 2 or 3; on 0, Dmu*Q = 0 exactly, so Dmu*q = 0 for q = Q*h1.

    On the standard route also h0 = P*mu, and with F0, G0, f1, g1 the slow and
    fast rows of P and h1 at y = 0: G0*qss = -g1 and the reduced rows equal
    f1 + F0*qss.  Only polynomials are evaluated at y = 0, since the lightly
    reduced entries of Q can read 0/0 there.
    """
    if code not in (0, 2, 3):
        return f"exit code {code}"
    if code != 0:
        return None
    from tfred.rational import Context

    out = json.loads(stdout)
    if "Q" not in out:
        return "no projection matrix in the report"
    fast = model["fast"]
    if out["mode"] == "standard":
        states = model["states"]
    else:
        states = [f"{n}_star" if n in fast else n for n in model["states"]]
    ctx = Context(states, model["parameters"])
    zero = ctx.parse("0")
    n = len(states)
    Q = [[ctx.parse(v) for v in row] for row in out["Q"]]
    for m in out["mu"]:
        dm = [ctx.parse(m).diff(name) for name in states]
        if any(not sum((dm[k] * Q[k][j] for k in range(n)), zero).is_zero() for j in range(n)):
            return "Dmu*Q is not zero"
    if out["mode"] != "standard":
        return None
    mu = [ctx.parse(m) for m in out["mu"]]
    P = [[ctx.parse(v) for v in row] for row in out["P"]]
    if any(sum((p * m for p, m in zip(row, mu)), zero) != ctx.parse(h) for row, h in zip(P, h0)):
        return "P*mu is not h0"
    at_zero = {y: 0 for y in fast}
    qss = [ctx.parse(out["qss"][y]) for y in fast]
    got = _parse_rows(ctx, out["reduced"])
    for name, row, h in zip(states, P, h1):
        value = sum((p.subs(at_zero) * q for p, q in zip(row, qss)), ctx.parse(h).subs(at_zero))
        if name in at_zero:
            if not value.is_zero():
                return f"qss does not solve G0*qss = -g1 in the row of {name}"
        elif name not in got or got[name] != value:
            return f"reduced row of {name} differs from f1 + F0*qss"
    return None


def _survey_jobs(rng: random.Random, workdir: Path, size: str) -> list[Job]:
    seed = str(rng.randrange(10**6))
    jobs = []
    for builtin in SURVEY_BUILTINS:
        for command in SURVEY_COMMANDS:
            argv = [command, "--builtin", builtin, "--seed", seed, "--format", "json"]
            jobs.append(
                Job(
                    f"{command}/{builtin}",
                    argv,
                    lambda code, out, c=command, b=builtin: check_builtin(c, b, code, out),
                )
            )
    for index in range(RAW_SYSTEMS[size]):
        model, h0, h1 = raw_model(rng, index)
        path = workdir / f"{model['name']}.json"
        path.write_text(json.dumps(model))
        base = ["--model", str(path), "--seed", seed, "--format", "json"]
        jobs.append(Job(f"ltc/{model['name']}", ["ltc"] + base, check_ltc))
        jobs.append(
            Job(
                f"reduce/{model['name']}",
                ["reduce"] + base,
                lambda code, out, m=model, g0=h0, g1=h1: check_raw_reduce(m, g0, g1, code, out),
            )
        )
    return jobs
