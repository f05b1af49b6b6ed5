"""Command-line front end: consistency checks, fast-set search, reductions, numerics.

Commands
  check      consistency verdicts for a partition (exit 2 on failure)
  ltc        minimal admissible fast sets
  conditions parameter conditions for a pre-assigned fast set
  reduce     symbolic reduction with certificate (exit 3 when refused)
  converge   eps-ladder convergence study (exit 4 on numeric failure)
  demo-linex initial-value inconsistency demonstration
  list       available builtin models

Models come from --builtin NAME or --model FILE (JSON).  Certificate samples
are seeded (--seed) for reproducible reports.  Exit 2 is also a bad input: an
unreadable or malformed model, an unknown builtin, a bad option value.  Exit 5
is tfred's own fault.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from fractions import Fraction
from functools import cache

from .builtin_models import BUILTINS, ModelSpec, load_builtin
from .ltc import minimal_ltc_sets, preassigned_conditions
from .matrices import ConsistencyError
from .modelfile import load_model
from .rational import SymbolicError
from .reduction import (
    InconsistentScalingError,
    ReductionError,
    eigen_certificate,
    reduce_extras,
    reduce_model,
)
from .sim import (
    IntegrationError,
    convergence_study,
    default_ladder,
    iv_inconsistency_demo,
)
from .systems import FULL_LTC, ModelError, Partition, apply_scaling, check_ltc

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_REFUSED = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    """A bad model file, builtin name or option value (exit 2)."""


def load_spec(args) -> ModelSpec:
    try:
        if args.builtin:
            return load_builtin(args.builtin)
        if args.model:
            return load_model(args.model)
    except (SymbolicError, ValueError, KeyError, OSError) as exc:
        raise InputError(exc) from exc
    raise SystemExit("one of --builtin or --model is required")


def pick_fast(spec: ModelSpec, args) -> list[str]:
    if getattr(args, "fast", None) is not None:
        names = [n.strip() for n in args.fast.split(",") if n.strip()]
        if not names:
            raise SystemExit("--fast needs at least one state name")
        return names
    if spec.fast:
        return list(spec.fast)
    raise SystemExit("no fast set given (--fast) and the model has no default")


def parse_assignments(text: str) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    if not text:
        return out
    for piece in text.split(","):
        if not piece.strip():
            continue
        name, _, val = piece.partition("=")
        try:
            out[name.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"--set {piece.strip()!r}: {exc}") from exc
    return out


def parse_ladder(text: str) -> list[float]:
    """A comma list, or start:stop[:law] with law half, dec(ade) or a factor > 1."""
    try:
        if ":" in text:
            start_s, stop_s, law = (text.split(":") + ["half"])[:3]
            start, stop = float(start_s), float(stop_s)
            factor = 2.0 if law in ("half", "") else 10.0 if law in ("dec", "decade") else float(law)
            return default_ladder(start, stop, factor)
        ladder = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"--ladder {text!r}: {exc}") from exc
    if not ladder or not all(e > 0 for e in ladder) or any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise InputError(f"--ladder {text!r}: need positive, strictly decreasing eps values")
    return ladder


def emit(args, payload: dict, text: str):
    if args.format == "json":
        out = json.dumps(payload, indent=2, default=str)
    else:
        out = text
    print(out)
    if getattr(args, "out", None):
        base = os.path.join(args.out, payload.get("command", "report"))
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(base + ".json", "w") as fh:
                json.dump(payload, fh, indent=2, default=str)
            with open(base + ".txt", "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"--out {args.out!r}: {exc}") from exc


# -- commands -----------------------------------------------------------------


def cmd_check(args) -> int:
    spec = load_spec(args)
    sys = spec.system
    fast = pick_fast(spec, args)
    part = Partition.from_fast(sys, fast)
    verdict = check_ltc(sys, part)
    scaled = apply_scaling(sys, part)
    iv_ok = scaled.iv_consistent
    payload = {
        "command": "check",
        "model": spec.name,
        "fast": fast,
        "consistency": verdict.status,
        "witness": str(verdict) if verdict.witness else None,
        "laurent_flag": scaled.laurent_flag,
        "initial_value_consistent": iv_ok,
    }
    lines = [
        f"model: {spec.name}",
        f"fast set: {{{', '.join(fast)}}}",
        f"consistency: {verdict}",
        f"scaled lowest eps-power: {scaled.laurent_flag}",
        f"initial values consistent: {'yes' if iv_ok else 'no'}",
    ]
    emit(args, payload, "\n".join(lines))
    return EXIT_OK if verdict.status == FULL_LTC and iv_ok else EXIT_INCONSISTENT


def cmd_ltc(args) -> int:
    spec = load_spec(args)
    sys = spec.system
    report = minimal_ltc_sets(sys.grade(0))
    payload = {"command": "ltc", "model": spec.name}
    payload.update(report.to_json(sys.states))
    lines = [f"model: {spec.name}"]
    lines.append(
        "candidate slow variables: {" + ", ".join(report.candidate_slow) + "}"
    )
    for group in report.minimal_sets:
        lines.append("minimal fast set: {" + ", ".join(group) + "}")
    if not report.minimal_sets:
        lines.append("no admissible fast sets")
    if not report.complete:
        lines.append(f"warning: search truncated after {report.checked_count} subset tests")
    emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_conditions(args) -> int:
    spec = load_spec(args)
    sys = spec.system
    fast = pick_fast(spec, args)
    out = preassigned_conditions(sys.grade(0), fast, scope=args.scope)
    payload = {
        "command": "conditions",
        "model": spec.name,
        "fast": fast,
        "scope": args.scope,
        "conditions": [p.render() for p in out.conditions],
        "solved": {k: str(v) for k, v in out.solved.items()} if out.solved is not None else None,
        "feasible": out.feasible,
    }
    lines = [f"model: {spec.name}", f"pre-assigned fast set: {{{', '.join(fast)}}}"]
    if not out.conditions:
        lines.append("no parameter conditions needed")
    for p in out.conditions:
        lines.append(f"condition: {p.render()} = 0")
    if out.solved:
        lines.append(
            "solved: " + ", ".join(f"{k} = {v}" for k, v in sorted(out.solved.items()))
        )
    elif out.solved is not None and out.conditions == ():
        pass
    elif out.solved is None and out.conditions:
        lines.append("no explicit solution attempted (conditions left symbolic)")
    if not out.feasible:
        lines.append("infeasible: a nonzero constant must vanish")
    emit(args, payload, "\n".join(lines))
    return EXIT_OK if out.feasible else EXIT_INCONSISTENT


def _render_rows(names, rows) -> list[str]:
    return [f"{n}' = {r.render()}" for n, r in zip(names, rows)]


def _render_elimination(payload: dict, lines: list[str], key: str, title: str, elim) -> None:
    payload[key] = {
        "solved": [(n, e.render()) for n, e in elim.solved],
        "rows": _render_rows(elim.states, elim.field),
    }
    lines.append(title)
    for n, e in elim.solved:
        lines.append(f"  {n} = {e.render()}")
    for row in _render_rows(elim.states, elim.field):
        lines.append("  " + row)


def cmd_reduce(args) -> int:
    spec = load_spec(args)
    fast = pick_fast(spec, args)
    if args.samples < 1:
        raise InputError("need --samples >= 1")
    try:
        red = reduce_model(spec.system, fast, args.mode)
    except InconsistentScalingError as exc:
        print(f"consistency check failed: {exc.verdict}", file=_sys.stderr)
        return EXIT_INCONSISTENT
    except (ReductionError, ConsistencyError) as exc:
        print(f"reduction refused: {exc}", file=_sys.stderr)
        return EXIT_REFUSED
    cert = reduce_extras(red, spec.system, n_samples=args.samples, seed=args.seed)

    dec = red.decomposition
    payload: dict = {"command": "reduce", "model": spec.name, "fast": fast, "seed": args.seed}
    lines = [f"model: {spec.name}", f"fast set: {{{', '.join(fast)}}}"]
    payload["mode"] = dec.mode
    lines.append(f"mode: {dec.mode}")
    payload["mu"] = [m.render() for m in dec.mu]
    payload["P"] = [[v.render() for v in row] for row in dec.P.entries]
    if len(spec.system.states) <= 6:
        payload["Q"] = [[v.render() for v in row] for row in dec.projection().entries]
    lines.append("factor mu: " + "; ".join(m.render() for m in dec.mu))
    payload["manifold"] = [m.render() for m in red.manifold.equations]
    payload["manifold_dimension"] = red.manifold.dimension
    payload["reduced"] = _render_rows(red.states, red.field)
    lines.append(f"critical manifold: dimension {red.manifold.dimension}")
    for eq in red.manifold.equations:
        lines.append(f"  {eq.render()} = 0")
    lines.append("reduced system (slow time):")
    for row in _render_rows(red.states, red.field):
        lines.append("  " + row)

    if dec.mode == "nonstandard":
        payload["transported_integrals"] = [
            {"order": t.order, "integral": t.rf.render(), "level": t.level.render()}
            for t in red.transported_integrals
        ]
        for t in red.transported_integrals:
            lines.append(
                f"transported integral (order {t.order}): {t.rf.render()} = {t.level.render()}"
            )
        if red.eliminated:
            _render_elimination(
                payload, lines, "eliminated", "eliminated form (on the manifold):", red.eliminated
            )
        if red.eliminated_conserved:
            _render_elimination(
                payload, lines, "eliminated_conserved",
                "eliminated form (with conservation laws):", red.eliminated_conserved,
            )
        if "elimination" in red.errors:
            payload["eliminated"] = None
            lines.append(f"(no eliminated form: {red.errors['elimination']})")
        if "initial_value" in red.errors:
            payload["reduced_initial_value"] = None
            lines.append(f"(no reduced initial value: {red.errors['initial_value']})")
        else:
            payload["reduced_initial_value"] = {n: v.render() for n, v in red.initial_values.items()}
            lines.append("reduced initial value:")
            for n, v in red.initial_values.items():
                lines.append(f"  {n}(0) = {v.render()}")
    else:
        payload["qss"] = {n: e.render() for n, e in red.eliminated.solved}
        lines.append("fast-variable expressions (first order):")
        for n, e in red.eliminated.solved:
            lines.append(f"  {n}_scaled = {e.render()}")

    payload["certificate"] = cert.to_json()
    lines.append(
        f"eigenvalue certificate: {cert.verdict} "
        f"(margin {cert.nu_margin:.6g}, {len(cert.samples)} samples, {cert.method})"
    )
    emit(args, payload, "\n".join(lines))
    if cert.verdict != "pass":
        return EXIT_REFUSED
    return EXIT_OK


def cmd_converge(args) -> int:
    spec = load_spec(args)
    fast = pick_fast(spec, args)
    params = {p.name: Fraction(1) for p in spec.system.ctx.params}
    params.update(parse_assignments(args.set or ""))
    ladder = parse_ladder(args.ladder) if args.ladder else default_ladder()
    if not 0 <= args.t1 < args.t2:
        raise InputError("need 0 <= --t1 < --t2")
    try:
        red = reduce_model(spec.system, fast)
        if "initial_value" in red.errors:
            raise ReductionError(red.errors["initial_value"])
        at_limit = dict(params, eps=Fraction(0))
        iv = {n: v.eval(at_limit) for n, v in red.initial_values.items()}
        # the fast block must attract at the start of the reduced flow; on
        # the standard route the fast variables sit at 0 there
        start = {**at_limit, **{n: Fraction(0) for n in red.decomposition.states}, **iv}
        cert = eigen_certificate(red.decomposition, sample_points=[start])
        if cert.verdict == "fail":
            raise ReductionError(
                f"eigenvalue certificate fails at the chosen parameters "
                f"(margin {cert.nu_margin:.6g}); the fast block does not attract"
            )
        z0red = {n: float(v) for n, v in iv.items()}
        report = convergence_study(
            red.scaled.system,
            red.field,
            list(red.states),
            z0red,
            params,
            ladder=ladder,
            t1=args.t1,
            t2=args.t2,
        )
    except InconsistentScalingError as exc:
        print(f"consistency check failed: {exc.verdict}", file=_sys.stderr)
        return EXIT_INCONSISTENT
    except (ReductionError, ConsistencyError) as exc:
        print(f"reduction failed: {exc}", file=_sys.stderr)
        return EXIT_REFUSED
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC
    payload = {"command": "converge", "model": spec.name, "fast": fast}
    payload.update(report.to_json())
    lines = [f"model: {spec.name}", f"window: [{args.t1}, {args.t2}]"]
    for eps, err in zip(report.ladder, report.errors):
        lines.append(f"eps = {eps:<10.3g} sup error = {err:.6e}")
    lines.append(f"fitted order: {report.fitted_order:.3f}")
    lines.append(f"verdict: {report.verdict}")
    emit(args, payload, "\n".join(lines))
    if report.failures:
        return EXIT_NUMERIC
    return EXIT_OK if report.verdict == "converges" else EXIT_NUMERIC


def cmd_demo_linex(args) -> int:
    ladder = parse_ladder(args.ladder) if args.ladder else default_ladder(1e-1, 1e-3)
    if not (args.a <= 0 and args.c < 0 and args.tau > 0):
        raise InputError("need --a <= 0, --c < 0 and --tau > 0")
    try:
        report = iv_inconsistency_demo(
            a=args.a,
            b=args.b,
            c=args.c,
            x0=args.x0,
            y0=args.y0,
            ladder=ladder,
            tau_eval=args.tau,
            consistent=args.consistent,
        )
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC
    payload = {"command": "demo-linex"}
    payload.update(report.to_json())
    lines = [
        f"variant: {'consistent (y0 scales with eps)' if args.consistent else 'inconsistent (fixed y0)'}"
    ]
    for eps, d in zip(report.ladder, report.discrepancies):
        lines.append(f"eps = {eps:<10.3g} x - x_red = {d: .8f}")
    lines.append(f"extrapolated limit: {report.extrapolated:.8f}")
    lines.append(f"closed-form limit:  {report.closed_form:.8f}")
    lines.append(f"verdict: {report.verdict}")
    emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_list(args) -> int:
    lines = []
    for name in sorted(BUILTINS):
        spec = BUILTINS[name]()
        lines.append(f"{name:24s} {spec.description}")
    print("\n".join(lines))
    return EXIT_OK


def add_model_args(p):
    p.add_argument("--builtin", help="builtin model name (see 'list')")
    p.add_argument("--model", help="JSON model file")
    p.add_argument("--fast", help="comma-separated fast variables")
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed for reduce's certificate samples; the other commands accept and ignore it",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="directory for report files")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves no state in it."""
    ap = argparse.ArgumentParser(
        prog="tfred",
        description="degenerate scalings and singular-perturbation reductions of polynomial ODE models",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="consistency verdicts for a partition")
    add_model_args(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("ltc", help="minimal admissible fast sets")
    add_model_args(p)
    p.set_defaults(fn=cmd_ltc)

    p = sub.add_parser("conditions", help="parameter conditions for a pre-assigned fast set")
    add_model_args(p)
    p.add_argument("--scope", choices=("local", "full"), default="local")
    p.set_defaults(fn=cmd_conditions)

    p = sub.add_parser("reduce", help="symbolic reduction with certificate")
    add_model_args(p)
    p.add_argument("--mode", choices=("auto", "standard", "nonstandard"), default="auto")
    p.add_argument("--samples", type=int, default=25, help="certificate sample count")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("converge", help="eps-ladder convergence study")
    add_model_args(p)
    p.add_argument("--ladder", help="comma list or start:stop:half")
    p.add_argument("--t1", type=float, default=0.1)
    p.add_argument("--t2", type=float, default=2.0)
    p.add_argument("--set", help="parameter values k1=1,km1=2,...")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("demo-linex", help="initial-value inconsistency demonstration")
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=-1.0)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--y0", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--ladder", help="comma list or start:stop:half")
    p.add_argument("--consistent", action="store_true", help="start y at eps*y0")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(fn=cmd_demo_linex)

    p = sub.add_parser("list", help="available builtin models")
    p.set_defaults(fn=cmd_list)
    return ap


def main(argv=None) -> int:
    """Run one command; bad input exits 2, any other fault once it is loaded exits 5."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ModelError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INCONSISTENT
    except (SymbolicError, ValueError, KeyError, OSError) as exc:
        print(f"internal error: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
