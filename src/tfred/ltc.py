"""Search for index sets of fast variables whose vanishing kills the fast part.

An index set J is admissible when setting the J-variables to zero makes the
whole lowest-order field vanish identically; supersets of admissible sets stay
admissible, so the interesting output is the minimal ones.  For fields of
state-degree at most two the search runs on a conflict graph (quadratic in
practice); beyond that a guarded pruned enumeration takes over.

The pre-assigned variant goes the other way: fix the candidate fast variables
and derive the polynomial conditions on parameters that make their own
equations vanish on the candidate subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .rational import Context, Polynomial, SymbolicError
from .systems import ModelError

SUBSET_GUARD = 1 << 20


@dataclass(frozen=True)
class LtcReport:
    candidate_slow: tuple[str, ...]
    minimal_sets: tuple[tuple[str, ...], ...]
    checked_count: int
    complete: bool

    def to_json(self, states: Sequence[str]) -> dict:
        idx = {n: i for i, n in enumerate(states)}
        return {
            "candidate_slow": {
                "indices": sorted(idx[n] for n in self.candidate_slow),
                "names": sorted(self.candidate_slow, key=lambda n: idx[n]),
            },
            "minimal_ltc_sets": [
                {
                    "indices": sorted(idx[n] for n in group),
                    "names": sorted(group, key=lambda n: idx[n]),
                }
                for group in self.minimal_sets
            ],
            "checked_count": self.checked_count,
            "complete": self.complete,
        }


@dataclass(frozen=True)
class ParameterConditions:
    """Vanishing conditions on parameters for a pre-assigned fast set."""

    conditions: tuple[Polynomial, ...]
    solved: "dict[str, Fraction] | None"
    feasible: bool = True


def _state_part(ctx: Context, expo: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(expo[ctx.index[s.name]] for s in ctx.states)


def is_ltc_set(rows: Sequence[Polynomial], J: Iterable[str]) -> bool:
    """Does zeroing the J-variables annihilate every entry?"""
    names = list(J)
    if not rows:
        return True
    ctx = rows[0].ctx
    state_names = {s.name for s in ctx.states}
    if not names or not set(names) < state_names:
        raise ModelError("J must be a nonempty proper subset of the states")
    return not any(p.by_degree(names)[0] for p in rows)


def candidate_slow_set(rows: Sequence[Polynomial]) -> tuple[str, ...]:
    """States that never occur as a pure power (so they may stay slow)."""
    if not rows:
        return ()
    ctx = rows[0].ctx
    excluded: set[str] = set()
    for p in rows:
        for e in p.monomials():
            sp = _state_part(ctx, e)
            on = [i for i, k in enumerate(sp) if k > 0]
            if len(on) == 1:
                excluded.add(ctx.states[on[0]].name)
    return tuple(s.name for s in ctx.states if s.name not in excluded)


def _conflict_pairs(rows: Sequence[Polynomial], S: Sequence[str]) -> set[frozenset[str]]:
    ctx = rows[0].ctx
    sset = set(S)
    pairs: set[frozenset[str]] = set()
    for p in rows:
        for e in p.monomials():
            sp = _state_part(ctx, e)
            on = [ctx.states[i].name for i, k in enumerate(sp) if k > 0]
            if len(on) == 2 and set(on) <= sset:
                pairs.add(frozenset(on))
    return pairs


def _maximal_independent_sets(vertices: Sequence[str], edges: set[frozenset[str]]) -> list[tuple[str, ...]]:
    """All maximal independent sets, by DFS in ascending vertex order."""
    order = list(vertices)
    neighbours = {v: set() for v in order}
    for e in edges:
        a, b = tuple(e)
        neighbours[a].add(b)
        neighbours[b].add(a)
    results: list[tuple[str, ...]] = []
    seen: set[frozenset[str]] = set()

    def extend(current: set[str], start: int):
        grew = False
        for i in range(start, len(order)):
            v = order[i]
            if v in current or neighbours[v] & current:
                continue
            grew = True
            extend(current | {v}, i + 1)
        if not grew:
            # check true maximality against earlier vertices too
            for v in order:
                if v not in current and not (neighbours[v] & current):
                    return
            key = frozenset(current)
            if key not in seen:
                seen.add(key)
                results.append(tuple(n for n in order if n in current))

    extend(set(), 0)
    return results


def minimal_ltc_sets(rows: Sequence[Polynomial]) -> LtcReport:
    """All minimal admissible fast sets of the given lowest-order field.

    Fields of state-degree <= 2 use the maximal complement extension inside
    the candidate slow set; otherwise subsets of the candidate slow set are
    enumerated largest first, pruned by the superset monotonicity, and
    guarded by ``SUBSET_GUARD`` predicate calls.
    """
    if not rows:
        raise ModelError("empty system")
    ctx = rows[0].ctx
    state_names = [s.name for s in ctx.states]
    graded = [p.by_degree(state_names) for p in rows]
    if any(groups[0] for groups in graded):
        # a term free of the states vanishes on no fast set
        return LtcReport((), (), 0, True)
    S = candidate_slow_set(rows)
    checked = 0
    degree = max(len(groups) for groups in graded) - 1

    if degree <= 2:
        edges = _conflict_pairs(rows, S)
        complements = _maximal_independent_sets(S, edges)
        minimal = []
        for comp in complements:
            if len(comp) == len(state_names):
                # field is identically zero: every singleton is admissible
                minimal.extend((n,) for n in state_names)
                continue
            J = tuple(n for n in state_names if n not in comp)
            if J and len(J) < len(state_names):
                checked += 1
                if not is_ltc_set(rows, J):
                    raise SymbolicError(f"degree-2 search produced a bad set {J}")
                minimal.append(J)
        return LtcReport(S, tuple(minimal), checked, True)

    # general-degree fallback: subsets of S, largest first
    maximal_comps: list[set[str]] = []
    complete = True
    sizes = range(len(S), 0, -1)
    for size in sizes:
        for comp in combinations(S, size):
            cset = set(comp)
            if any(cset <= m for m in maximal_comps):
                continue
            J = tuple(n for n in state_names if n not in cset)
            if not J or len(J) == len(state_names):
                continue
            checked += 1
            if checked > SUBSET_GUARD:
                complete = False
                break
            if is_ltc_set(rows, J):
                maximal_comps.append(cset)
        if not complete:
            break
    minimal = [
        tuple(n for n in state_names if n not in comp) for comp in maximal_comps
    ]
    return LtcReport(S, tuple(minimal), checked, complete)


def preassigned_conditions(
    rows: Sequence[Polynomial],
    J: Iterable[str],
    scope: str = "local",
) -> ParameterConditions:
    """Parameter conditions making a pre-assigned fast set J admissible.

    With scope "local" only the equations of the J-variables themselves are
    forced to vanish on the J-subspace (consistency of the scaling, the form
    used in the worked case studies); scope "full" forces every equation.
    Conditions are the coefficient polynomials, grouped per state-monomial, of
    the monomials free of J-variables.  An explicit solution is attempted only
    when each condition is a power of a single parameter or, assuming
    nonnegative parameters, a positively weighted sum of them.
    """
    names = list(J)
    if not rows:
        raise ModelError("empty system")
    ctx = rows[0].ctx
    if scope not in ("local", "full"):
        raise ValueError("scope must be 'local' or 'full'")
    state_names = [s.name for s in ctx.states]
    if scope == "local":
        take = [state_names.index(n) for n in names]
    else:
        take = list(range(len(rows)))

    grouped: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for i in take:
        # the monomials free of the J-variables: the row on the J-subspace
        for e, c in rows[i].by_degree(names)[0].monomials().items():
            spart = _state_part(ctx, e)
            ppart = tuple(
                e[ctx.index[q.name]] for q in ctx.params
            )
            key = (i,) + spart
            grouped.setdefault(key, {})[ppart] = grouped.get(key, {}).get(ppart, Fraction(0)) + c

    conditions: list[Polynomial] = []
    seen: set[frozenset] = set()
    feasible = True
    for key, coef in grouped.items():
        terms = {}
        for ppart, c in coef.items():
            if c == 0:
                continue
            e = [0] * ctx.nvars
            for k, q in enumerate(ctx.params):
                e[ctx.index[q.name]] = ppart[k]
            terms[tuple(e)] = c
        poly = Polynomial(ctx, terms)
        if poly.is_zero():
            continue
        if poly.is_constant():
            feasible = False
            conditions.append(poly)
            continue
        k = frozenset(poly.terms.items())
        if k not in seen:
            seen.add(k)
            conditions.append(poly)

    solved: dict[str, Fraction] | None = None
    if feasible:
        assignment: dict[str, Fraction] = {}
        solvable = True
        for cond in conditions:
            pieces = list(cond.monomials().items())
            piece_params = []
            sign = None
            for e, c in pieces:
                on = [i for i, k in enumerate(e) if k > 0]
                if len(on) != 1 or ctx.symbols[on[0]].kind != "parameter":
                    piece_params = []
                    break
                if sign is None:
                    sign = c > 0
                elif (c > 0) != sign:
                    piece_params = []
                    break
                piece_params.append(ctx.symbols[on[0]].name)
            if piece_params:
                for name in piece_params:
                    assignment[name] = Fraction(0)
            else:
                solvable = False
                break
        if solvable:
            solved = assignment
    return ParameterConditions(tuple(conditions), solved, feasible)
