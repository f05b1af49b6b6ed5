"""Traced runs: wrappers around tfred's public functions, spans and counters.

``install`` replaces each target function with a timing wrapper in every
``tfred`` module namespace that holds it (``tfred.cli.eigen_certificate`` as
well as ``tfred.reduction.eigen_certificate``) and in its class, and returns
the patches so ``uninstall`` can put the originals back.

Stage-level calls record a span: name, parent span, job id, start, end, self
time and a few attributes.  Kernel methods of the exact arithmetic, called
millions of times on the larger transport models, only update an aggregate
(calls, self time, counters).  A call's self time is its duration minus the
durations of the wrapped calls made inside it.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from time import perf_counter

SPAN = "span"
AGG = "agg"


def _mul_terms(stats, args, out):
    other = args[1]
    stats[2] += len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)


def _divide_hit(stats, args, out):
    stats[2] += out is not None


def _pair_cancel(stats, args, out):
    stats[2] += out[1].terms.keys() != args[1].terms.keys()


def _ltc_attrs(tracer, args, kwargs, out, attrs):
    attrs["subset_tests"] = out.checked_count


def _certificate_attrs(tracer, args, kwargs, out, attrs):
    attrs["samples"] = len(out.samples)
    attrs["rejected_samples"] = out.rejected


def _reduced_attrs(tracer, args, kwargs, out, attrs):
    attrs["terms"] = sum(len(r.num.terms) + len(r.den.terms) for r in out.field)


def _integrate_attrs(tracer, args, kwargs, out, attrs):
    attrs["steps"] = out.stats.steps
    attrs["rejected"] = out.stats.rejected


def _reduced_field(tracer, args, kwargs, out, attrs):
    tracer.reduced_fields.add(out)


def _full_field(tracer, args, kwargs, out, attrs):
    tracer.field_eps[out] = float(args[2] if len(args) > 2 else kwargs["eps"])


# (module, attribute path, metric key, kind, counter or attribute hook).
# Keys without a metric of their own still count towards their module's
# self_s, so that time spent in a layer is not charged to its caller; model
# loading (builtins, model files, network compilation) is kept apart as
# model.load, so that cli.self_s holds only payload assembly and rendering.
# Functions called per term, per sample or per subset are AGG; stage-level
# calls are SPAN.
TARGETS = [
    ("rational", "Polynomial.__mul__", "rational.mul", AGG, _mul_terms),
    ("rational", "Polynomial.__add__", "rational.add", AGG, None),
    ("rational", "Polynomial.__sub__", "rational.sub", AGG, None),
    ("rational", "Polynomial.__pow__", "rational.pow", AGG, None),
    ("rational", "Polynomial.exact_divide", "rational.exact_divide", AGG, _divide_hit),
    ("rational", "Polynomial.monomial_content", "rational.monomial_content", AGG, None),
    ("rational", "Polynomial.shift_down", "rational.shift_down", AGG, None),
    ("rational", "Polynomial.subs", "rational.subs", AGG, None),
    ("rational", "Polynomial.subs_rf", "rational.subs", AGG, None),
    ("rational", "Polynomial.eval", "rational.eval", AGG, None),
    ("rational", "Polynomial.diff", "rational.diff", AGG, None),
    ("rational", "_reduce_pair", "rational.reduce_pair", AGG, _pair_cancel),
    ("rational", "RationalFunction.__add__", "rational.rf_add", AGG, None),
    ("rational", "RationalFunction.__sub__", "rational.rf_add", AGG, None),
    ("rational", "RationalFunction.__mul__", "rational.rf_mul", AGG, None),
    ("rational", "RationalFunction.__truediv__", "rational.rf_div", AGG, None),
    ("rational", "RationalFunction.__eq__", "rational.rf_eq", AGG, None),
    ("rational", "RationalFunction.subs", "rational.subs", AGG, None),
    ("rational", "RationalFunction.eval", "rational.eval", AGG, None),
    ("rational", "RationalFunction.diff", "rational.diff", AGG, None),
    ("rational", "Context.parse", "rational.parse", AGG, None),
    ("matrices", "RFMatrix.__matmul__", "matrices.matmul", AGG, None),
    ("matrices", "RFMatrix.mul_vector", "matrices.matmul", AGG, None),
    ("matrices", "RFMatrix.eval", "matrices.eval", AGG, None),
    ("matrices", "fraction_rank", "matrices.fraction", AGG, None),
    ("matrices", "fraction_nullspace", "matrices.fraction", AGG, None),
    ("matrices", "fraction_solve", "matrices.fraction", AGG, None),
    ("matrices", "linear_solve", "matrices.linear_solve", SPAN, None),
    ("matrices", "solve_matrix", "matrices.solve_matrix", SPAN, None),
    ("matrices", "invert", "matrices.solve_matrix", SPAN, None),
    ("matrices", "determinant", "matrices.determinant", SPAN, None),
    ("matrices", "hadamard_factor", "matrices.hadamard_factor", SPAN, None),
    ("matrices", "rank_and_factor", "matrices.rank_and_factor", SPAN, None),
    ("matrices", "char_poly", "matrices.char_poly", SPAN, None),
    ("matrices", "jacobian", "matrices.jacobian", SPAN, None),
    ("systems", "apply_scaling", "systems.apply_scaling", SPAN, None),
    ("systems", "check_ltc", "systems.check_ltc", SPAN, None),
    ("systems", "linear_first_integrals", "systems.linear_first_integrals", SPAN, None),
    ("ltc", "minimal_ltc_sets", "ltc.minimal_ltc_sets", SPAN, _ltc_attrs),
    ("ltc", "preassigned_conditions", "ltc.preassigned_conditions", SPAN, None),
    ("ltc", "is_ltc_set", "ltc.is_ltc_set", AGG, None),
    ("reduction", "standard_decomposition", "reduction.decompose", SPAN, None),
    ("reduction", "nonstandard_decomposition", "reduction.decompose", SPAN, None),
    ("reduction", "find_decomposition", "reduction.decompose", SPAN, None),
    ("reduction", "reduce_with", "reduction.reduce", SPAN, _reduced_attrs),
    ("reduction", "standard_reduce", "reduction.reduce", SPAN, _reduced_attrs),
    ("reduction", "eliminate_on_manifold", "reduction.eliminate", SPAN, None),
    ("reduction", "fast_linear_integrals", "reduction.initial_value", SPAN, None),
    ("reduction", "scaled_initial_symbolic", "reduction.initial_value", SPAN, None),
    ("reduction", "reduced_initial_value", "reduction.initial_value", SPAN, None),
    ("reduction", "transform_first_integral", "reduction.transport_integrals", SPAN, None),
    ("reduction", "integral_level", "reduction.transport_integrals", SPAN, None),
    ("reduction", "eigen_certificate", "reduction.certify", SPAN, _certificate_attrs),
    ("reduction", "_fraction_char_poly", "reduction.char_poly", AGG, None),
    ("stability", "is_hurwitz_stable", "stability.hurwitz", AGG, None),
    ("stability", "max_real_part", "stability.eig", AGG, None),
    ("sim", "compile_rows", "sim.compile", SPAN, _reduced_field),
    ("sim", "compile_system", "sim.compile", SPAN, _full_field),
    ("sim", "integrate", "sim.integrate", SPAN, _integrate_attrs),
    ("sim", "Trajectory.sample", "sim.sample", SPAN, None),
    ("sim", "convergence_study", "sim.convergence_study", SPAN, None),
    ("sim", "iv_inconsistency_demo", "sim.iv_demo", SPAN, None),
    ("builtin_models", "load_builtin", "model.load", SPAN, None),
    ("modelfile", "load_model", "model.load", SPAN, None),
    ("modelfile", "model_from_dict", "model.load", SPAN, None),
    ("networks", "compile_network", "model.load", SPAN, None),
    ("networks", "build_transport_system", "model.load", SPAN, None),
    ("cli", "main", "cli", SPAN, None),
]

MODULES = ("rational", "matrices", "systems", "ltc", "reduction", "stability", "sim", "cli")


class Tracer:
    """Spans, aggregates and the stack of open calls for one traced round."""

    def __init__(self):
        # each frame is [time spent in wrapped children]; the root collects
        # calls made outside any job
        self.stack: list[list[float]] = [[0.0]]
        self.current: "int | None" = None
        self.job: "int | None" = None
        # [key, parent, job, start, end, self_s, attrs]
        self.spans: list[list] = []
        # key -> [calls, self_s, counter]
        self.agg: dict[str, list] = {}
        self.reduced_fields: "weakref.WeakSet" = weakref.WeakSet()
        self.field_eps: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def agg_wrapper(self, key, fn, counter):
        stats = self.agg.setdefault(key, [0, 0.0, 0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dur
                stats[1] += dur - frame[0]
            # a binary operator that declines the operand did no work to count
            if out is not NotImplemented:
                stats[0] += 1
                if counter is not None:
                    counter(stats, args, out)
            return out

        return wrapper

    def span_wrapper(self, key, fn, hook):
        tracer = self
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            name, attrs = key, {}
            if key == "sim.integrate":
                args, name, attrs = tracer._integrate_args(args)
            sid = len(spans)
            parent = tracer.current
            tracer.current = sid
            spans.append(None)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stack[-1][0] += t1 - t0
                tracer.current = parent
                spans[sid] = [name, parent, tracer.job, t0, t1, t1 - t0 - frame[0], attrs]
                if "counter" in attrs:
                    attrs["evals"] = attrs.pop("counter")[0]
            if hook is not None:
                hook(tracer, args, kwargs, out, attrs)
            return out

        return wrapper

    def _integrate_args(self, args):
        """Count field evaluations and tell the reduced flow from the full one."""
        f = args[0]
        counter = [0]

        def counted(t, z):
            counter[0] += 1
            return f(t, z)

        kind = "reduced" if f in self.reduced_fields else "full"
        attrs = {"counter": counter}
        eps = self.field_eps.get(f) if kind == "full" else None
        if eps is not None:
            attrs["eps"] = eps
        return (counted,) + tuple(args[1:]), f"sim.integrate_{kind}", attrs


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns (owner, attribute, original) patches."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "tfred" or name.startswith("tfred.")]
    patches = []
    for modname, path, key, kind, hook in TARGETS:
        owner = importlib.import_module(f"tfred.{modname}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if kind == AGG:
            wrapper = tracer.agg_wrapper(key, original, hook)
        else:
            wrapper = tracer.span_wrapper(key, original, hook)
        holders = [owner] if outer else modules
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    patches.append((holder, name, original))
    return patches


def uninstall(patches):
    for holder, name, original in reversed(patches):
        setattr(holder, name, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round, keyed by metric name."""
    self_s = {key: own for key, (n, own, _) in tracer.agg.items()}
    calls = {key: n for key, (n, own, _) in tracer.agg.items()}
    steps = rejected = evals = subset_tests = samples = rejected_samples = reduced_terms = 0
    smallest: dict[object, tuple[float, int]] = {}
    total_s: dict[str, float] = {}
    for key, parent, job, t0, t1, own, attrs in tracer.spans:
        self_s[key] = self_s.get(key, 0.0) + own
        if not _inside(tracer.spans, parent, key):
            total_s[key] = total_s.get(key, 0.0) + t1 - t0
        calls[key] = calls.get(key, 0) + 1
        if key.startswith("sim.integrate"):
            steps += attrs.get("steps", 0)
            rejected += attrs.get("rejected", 0)
            evals += attrs["evals"]
            if "eps" in attrs and (job not in smallest or attrs["eps"] <= smallest[job][0]):
                smallest[job] = (attrs["eps"], attrs.get("steps", 0))
        subset_tests += attrs.get("subset_tests", 0)
        samples += attrs.get("samples", 0)
        rejected_samples += attrs.get("rejected_samples", 0)
        reduced_terms += attrs.get("terms", 0)
    eps_min_steps = sum(n for _, n in smallest.values())

    def s(key):
        return self_s.get(key, 0.0)

    def c(key):
        return calls.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    integrate_s = s("sim.integrate_full") + s("sim.integrate_reduced")
    out = {
        "rational.mul.calls": c("rational.mul"),
        "rational.mul.self_s": s("rational.mul"),
        "rational.mul.term_products": tracer.agg["rational.mul"][2],
        "rational.add.self_s": s("rational.add"),
        "rational.exact_divide.calls": c("rational.exact_divide"),
        "rational.exact_divide.self_s": s("rational.exact_divide"),
        "rational.exact_divide.hit_ratio": ratio(tracer.agg["rational.exact_divide"][2], c("rational.exact_divide")),
        "rational.reduce_pair.calls": c("rational.reduce_pair"),
        "rational.reduce_pair.self_s": s("rational.reduce_pair"),
        "rational.reduce_pair.cancel_ratio": ratio(tracer.agg["rational.reduce_pair"][2], c("rational.reduce_pair")),
        "rational.monomial_content.calls": c("rational.monomial_content"),
        "rational.monomial_content.self_s": s("rational.monomial_content"),
        "matrices.linear_solve.calls": c("matrices.linear_solve"),
        "matrices.linear_solve.self_s": s("matrices.linear_solve"),
        "matrices.rank_and_factor.self_s": s("matrices.rank_and_factor"),
        "matrices.jacobian.self_s": s("matrices.jacobian"),
        "systems.apply_scaling.self_s": s("systems.apply_scaling"),
        "systems.check_ltc.self_s": s("systems.check_ltc"),
        "ltc.minimal_ltc_sets.self_s": s("ltc.minimal_ltc_sets"),
        "ltc.subset_tests": subset_tests,
        "reduction.decompose.self_s": s("reduction.decompose"),
        "reduction.reduce.self_s": s("reduction.reduce"),
        "reduction.eliminate.self_s": s("reduction.eliminate"),
        "reduction.initial_value.self_s": s("reduction.initial_value"),
        "reduction.transport_integrals.self_s": s("reduction.transport_integrals"),
        "reduction.certify.self_s": s("reduction.certify"),
        "reduction.char_poly.self_s": s("reduction.char_poly"),
        "reduction.certify.accept_ratio": ratio(samples, samples + rejected_samples),
        "reduction.reduced_terms": reduced_terms,
        "stability.hurwitz.calls": c("stability.hurwitz"),
        "stability.hurwitz.self_s": s("stability.hurwitz"),
        "stability.eig.self_s": s("stability.eig"),
        "sim.compile.self_s": s("sim.compile"),
        "sim.integrate_full.self_s": s("sim.integrate_full"),
        "sim.integrate_reduced.self_s": s("sim.integrate_reduced"),
        "sim.steps": steps,
        "sim.rejected": rejected,
        "sim.accept_ratio": ratio(steps, steps + rejected),
        "sim.field_evals": evals,
        "sim.us_per_step": 1e6 * ratio(integrate_s, steps),
        "sim.us_per_eval": 1e6 * ratio(integrate_s, evals),
        "sim.steps.eps_min": eps_min_steps,
        "sim.sample.self_s": s("sim.sample"),
        "model.load.self_s": s("model.load"),
        "cli.self_s": s("cli"),
        "cli.jobs": c("cli"),
    }
    for stage in ("decompose", "reduce", "eliminate", "initial_value", "transport_integrals", "certify"):
        out[f"reduction.{stage}.total_s"] = total_s.get(f"reduction.{stage}", 0.0)
    for module in MODULES:
        if module != "cli":
            out[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(module + "."))
    return out


def _inside(spans, sid, key) -> bool:
    """Is span ``sid`` or one of its ancestors named ``key``?"""
    while sid is not None:
        if spans[sid][0] == key:
            return True
        sid = spans[sid][1]
    return False


def spans_as_records(tracer: Tracer) -> list[dict]:
    return [
        {"id": i, "name": key, "parent": parent, "job": job, "start": t0, "end": t1, "self_s": own, **attrs}
        for i, (key, parent, job, t0, t1, own, attrs) in enumerate(tracer.spans)
    ]
