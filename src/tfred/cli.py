"""Command-line front end: consistency checks, fast-set search, reductions, numerics.

Commands
  check      consistency verdicts for a partition (exit 2 on failure)
  ltc        minimal admissible fast sets
  conditions parameter conditions for a pre-assigned fast set
  reduce     symbolic reduction with certificate (exit 3 when refused)
  converge   eps-ladder convergence study (exit 4 on numeric failure)
  demo-linex initial-value inconsistency demonstration
  list       available builtin models

Models come from exactly one of --builtin NAME and --model FILE (JSON).
Certificate samples are seeded (--seed) for reproducible reports.  Exit 2 is
also a bad input: an unreadable or malformed model, an unknown builtin, an
unknown option (options are never abbreviated), a bad option value.  Exit 1
is a stdout its reader closed, with nothing on stderr.  Exit 5 is tfred's
own fault.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
from fractions import Fraction
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .matrices import ConsistencyError
from .modelfile import ModelSpec, load_model
from .rational import SymbolicError
from .reduction import (
    MAX_SAMPLES,
    InconsistentScalingError,
    ReductionError,
    eigen_certificate,
    reduce_extras,
    reduce_model,
)
from .systems import FULL_LTC, ModelError, Partition, apply_scaling, check_ltc

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
EXIT_INCONSISTENT = 2
EXIT_REFUSED = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    """A bad model file, builtin name, option or option value (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports bad options as InputError, not by exiting."""

    def error(self, message):
        raise InputError(f"{message} (see '{self.prog} --help')")


def load_spec(args) -> ModelSpec:
    """The model of --builtin or --model; the parser requires exactly one of them."""
    try:
        if args.builtin is None:
            return load_model(args.model)
        from .builtin_models import load_builtin
        return load_builtin(args.builtin)
    except (SymbolicError, ValueError, KeyError, OSError) as exc:
        raise InputError(exc) from exc


def pick_fast(spec: ModelSpec, args) -> list[str]:
    if getattr(args, "fast", None) is not None:
        names = [n.strip() for n in args.fast.split(",") if n.strip()]
        if not names:
            raise InputError("--fast needs at least one state name")
        return names
    if spec.fast:
        return list(spec.fast)
    raise InputError("no fast set given (--fast) and the model has no default")


def parse_assignments(text: str, params: Sequence[str]) -> dict[str, Fraction]:
    """``--set`` values by name; each must be one of ``params`` and fit a float."""
    out: dict[str, Fraction] = {}
    if not text:
        return out
    for piece in text.split(","):
        if not piece.strip():
            continue
        name, _, val = (s.strip() for s in piece.partition("="))
        try:
            value = Fraction(val)
            float(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"--set {piece.strip()!r}: {exc}") from exc
        except OverflowError:
            raise InputError(f"--set {piece.strip()!r}: {val} is outside float range") from None
        if name not in params:
            raise InputError(
                f"--set {piece.strip()!r}: unknown parameter {name!r} (parameters: {', '.join(params)})"
            )
        out[name] = value
    return out


def parse_ladder(text: str) -> list[float]:
    """A comma list, or start:stop[:law] with law half, dec(ade) or a factor > 1."""
    from .sim import MAX_RUNGS, default_ladder
    try:
        if ":" in text:
            start_s, stop_s, law = (text.split(":") + ["half"])[:3]
            start, stop = float(start_s), float(stop_s)
            factor = 2.0 if law in ("half", "") else 10.0 if law in ("dec", "decade") else float(law)
            return default_ladder(start, stop, factor)
        ladder = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"--ladder {text!r}: {exc}") from exc
    if not ladder or not all(0 < e < math.inf for e in ladder) or any(a <= b for a, b in zip(ladder, ladder[1:])):
        raise InputError(f"--ladder {text!r}: need finite, positive, strictly decreasing eps values")
    if len(ladder) > MAX_RUNGS:
        raise InputError(f"--ladder {text!r}: {len(ladder)} rungs, more than {MAX_RUNGS}")
    return ladder


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(payload) -> str:
    """``json.dumps(payload, indent=2, default=str)``, byte for byte.

    json.dumps runs its pure-Python encoder whenever ``indent`` is set; this
    writer keeps json's C string escape and joins the rest directly.
    """
    return _json(payload, "\n")


def _json(o, pad: str) -> str:
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        items = [_json(v, inner) for v in o]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"
    if isinstance(o, dict):
        items = [f"{_quote(_json_key(k))}: {_json(v, inner)}" for k, v in o.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    return _quote(str(o))


def _json_key(k) -> str:
    """A dict key as json writes it: bool, None, int and float keys by their JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _json(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def emit(args, payload: dict, text: str):
    out_dir = getattr(args, "out", None)
    data = json_text(payload) if args.format == "json" or out_dir else None
    print(data if args.format == "json" else text)
    if out_dir:
        base = os.path.join(out_dir, payload.get("command", "report"))
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(base + ".json", "w") as fh:
                fh.write(data)
            with open(base + ".txt", "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"--out {out_dir!r}: {exc}") from exc


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
    from .ltc import SUBSET_GUARD, minimal_ltc_sets
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
        lines.append(
            f"warning: search stopped after {SUBSET_GUARD} nodes; the {report.checked_count}"
            " sets above are minimal, but others may be missing"
        )
    emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_conditions(args) -> int:
    from .ltc import preassigned_conditions
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
    elif out.solved is None and out.conditions:
        lines.append("no explicit solution attempted (conditions left symbolic)")
    if not out.feasible:
        lines.append("infeasible: a nonzero constant must vanish")
    emit(args, payload, "\n".join(lines))
    return EXIT_OK if out.feasible else EXIT_INCONSISTENT


def _render_rows(names, rows) -> list[str]:
    return [f"{n}' = {r.render()}" for n, r in zip(names, rows)]


def _render_elimination(payload: dict, lines: list[str], key: str, title: str, elim) -> None:
    solved = [(n, e.render()) for n, e in elim.solved]
    rows = _render_rows(elim.states, elim.field)
    payload[key] = {"solved": solved, "rows": rows}
    lines.append(title)
    lines += [f"  {n} = {e}" for n, e in solved]
    lines += ["  " + row for row in rows]


def cmd_reduce(args) -> int:
    spec = load_spec(args)
    fast = pick_fast(spec, args)
    if args.samples < 1:
        raise InputError("need --samples >= 1")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples {args.samples}: more than {MAX_SAMPLES}")
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
    payload["mu"] = mu = [m.render() for m in dec.mu]
    payload["P"] = [[v.render() for v in row] for row in dec.P.entries]
    if len(spec.system.states) <= 6:
        payload["Q"] = [[v.render() for v in row] for row in dec.projection().entries]
    lines.append("factor mu: " + "; ".join(mu))
    payload["manifold"] = manifold = [m.render() for m in red.manifold.equations]
    payload["manifold_dimension"] = red.manifold.dimension
    payload["reduced"] = reduced = _render_rows(red.states, red.field)
    lines.append(f"critical manifold: dimension {red.manifold.dimension}")
    lines += [f"  {eq} = 0" for eq in manifold]
    lines.append("reduced system (slow time):")
    lines += ["  " + row for row in reduced]

    if dec.mode == "nonstandard":
        payload["transported_integrals"] = integrals = [
            {"order": t.order, "integral": t.rf.render(), "level": t.level.render()}
            for t in red.transported_integrals
        ]
        lines += [
            f"transported integral (order {t['order']}): {t['integral']} = {t['level']}"
            for t in integrals
        ]
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
        if "conserved" in red.errors:
            payload["eliminated_conserved"] = None
            lines.append(f"(no conserved form: {red.errors['conserved']})")
        if "initial_value" in red.errors:
            payload["reduced_initial_value"] = None
            lines.append(f"(no reduced initial value: {red.errors['initial_value']})")
        else:
            payload["reduced_initial_value"] = start = {n: v.render() for n, v in red.initial_values.items()}
            lines.append("reduced initial value:")
            lines += [f"  {n}(0) = {v}" for n, v in start.items()]
    else:
        payload["qss"] = qss = {n: e.render() for n, e in red.eliminated.solved}
        lines.append("fast-variable expressions (first order):")
        lines += [f"  {n}_scaled = {e}" for n, e in qss.items()]

    payload["certificate"] = cert.to_json()
    payload["diagnostics"] = {"route": red.route}
    lines.append(
        f"eigenvalue certificate: {cert.verdict} "
        f"(margin {cert.nu_margin:.6g}, {len(cert.samples)} samples, {cert.method})"
    )
    emit(args, payload, "\n".join(lines))
    if cert.verdict != "pass":
        return EXIT_REFUSED
    return EXIT_OK


def cmd_converge(args) -> int:
    from .sim import IntegrationError, convergence_study, default_ladder
    spec = load_spec(args)
    fast = pick_fast(spec, args)
    params = {p.name: Fraction(1) for p in spec.system.ctx.params}
    params.update(parse_assignments(args.set or "", list(params)))
    ladder = parse_ladder(args.ladder) if args.ladder else default_ladder()
    if not 0 <= args.t1 < args.t2:
        raise InputError("need 0 <= --t1 < --t2")
    if not math.isfinite(args.t2):
        raise InputError("need a finite --t2")
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
    lines += [f"failure: {f}" for f in report.failures]
    emit(args, payload, "\n".join(lines))
    if report.failures:
        return EXIT_NUMERIC
    return EXIT_OK if report.verdict == "converges" else EXIT_NUMERIC


def cmd_demo_linex(args) -> int:
    from .sim import IntegrationError, default_ladder, iv_inconsistency_demo
    ladder = parse_ladder(args.ladder) if args.ladder else default_ladder(1e-1, 1e-3)
    if not (args.a <= 0 and args.c < 0 and args.tau > 0):
        raise InputError("need --a <= 0, --c < 0 and --tau > 0")
    if not math.isfinite(args.tau):
        raise InputError("need a finite --tau")
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
    from .builtin_models import BUILTINS
    lines = []
    for name in sorted(BUILTINS):
        spec = BUILTINS[name]()
        lines.append(f"{name:24s} {spec.description}")
    print("\n".join(lines))
    return EXIT_OK


def add_model_args(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", help="builtin model name (see 'list')")
    source.add_argument("--model", help="JSON model file")
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
    # no abbreviated options: --mode must not pass for --model
    ap = _Parser(
        prog="tfred",
        allow_abbrev=False,
        description="degenerate scalings and singular-perturbation reductions of polynomial ODE models",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)

    p = add("check", help="consistency verdicts for a partition")
    add_model_args(p)
    p.set_defaults(fn=cmd_check)

    p = add("ltc", help="minimal admissible fast sets")
    add_model_args(p)
    p.set_defaults(fn=cmd_ltc)

    p = add("conditions", help="parameter conditions for a pre-assigned fast set")
    add_model_args(p)
    p.add_argument("--scope", choices=("local", "full"), default="local")
    p.set_defaults(fn=cmd_conditions)

    p = add("reduce", help="symbolic reduction with certificate")
    add_model_args(p)
    p.add_argument("--mode", choices=("auto", "standard", "nonstandard"), default="auto")
    p.add_argument("--samples", type=int, default=25, help="certificate sample count")
    p.set_defaults(fn=cmd_reduce)

    p = add("converge", help="eps-ladder convergence study")
    add_model_args(p)
    p.add_argument("--ladder", help="comma list or start:stop:half")
    p.add_argument("--t1", type=float, default=0.1)
    p.add_argument("--t2", type=float, default=2.0)
    p.add_argument("--set", help="parameter values k1=1,km1=2,...")
    p.set_defaults(fn=cmd_converge)

    p = add("demo-linex", help="initial-value inconsistency demonstration")
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

    p = add("list", help="available builtin models")
    p.set_defaults(fn=cmd_list)
    return ap


def main(argv=None) -> int:
    """Run one command; bad input exits 2, a closed stdout 1, any other fault once it is loaded exits 5."""
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        _sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except (InputError, ModelError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INCONSISTENT
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_CLOSED_PIPE
    except Exception as exc:
        print(f"internal error: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at os.devnull, so the interpreter's last flush writes nowhere."""
    try:
        fd = _sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor, as for a StringIO
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
