"""Search for index sets of fast variables whose vanishing kills the fast part.

An index set J is admissible when setting the J-variables to zero makes the
whole lowest-order field vanish identically, that is when every monomial
holds a state of J; supersets of admissible sets stay admissible, so the
interesting output is the minimal ones.  Their complements are the maximal
sets of candidate slow states that hold no monomial's state support, and one
depth-first search over the states finds them for a field of any degree,
within ``SUBSET_GUARD`` nodes.

The pre-assigned variant goes the other way: fix the candidate fast variables
and derive the polynomial conditions on parameters that make their own
equations vanish on the candidate subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rational import Polynomial, SymbolicError
from .systems import ModelError, Partition

SUBSET_GUARD = 1 << 20


@dataclass(frozen=True)
class LtcReport:
    """The minimal admissible fast sets, in the search's order.

    ``checked_count`` is the number of sets verified with :func:`is_ltc_set`;
    ``complete`` says the search ended within ``SUBSET_GUARD`` nodes, so that
    no minimal set is missing.
    """

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


def _supports(rows: Sequence[Polynomial]) -> set[int]:
    """The state supports of the field's monomials, as bit masks over the context's states."""
    ctx = rows[0].ctx
    n = len(ctx.states)
    unpack = ctx.unpack
    return {sum(1 << i for i, k in enumerate(unpack(e)[:n]) if k) for p in rows for e in p.terms}


def _slow(n: int, supports: set[int]) -> list[int]:
    """Indices of the states that are no monomial's whole state support."""
    return [i for i in range(n) if 1 << i not in supports]


def candidate_slow_set(rows: Sequence[Polynomial]) -> tuple[str, ...]:
    """States that never occur as a pure power (so they may stay slow)."""
    if not rows:
        return ()
    states = rows[0].ctx.states
    return tuple(states[i].name for i in _slow(len(states), _supports(rows)))


def _maximal_free_sets(order: Sequence[int], edges: Sequence[int]) -> tuple[list[int], bool]:
    """The maximal sets of the states in ``order`` that hold no edge, as masks.

    A depth-first search takes the states in order: it takes a state when that
    completes no edge, and leaves it out only when some edge through it can
    still be completed by the states taken or to come; a leaf counts when
    every state left out completes an edge with the states taken.  Taking
    comes first, so the sets come out in lexicographic order.  Returns them
    and whether the search ended within ``SUBSET_GUARD`` nodes.
    """
    through = {i: [e for e in edges if e >> i & 1] for i in order}
    found: list[int] = []
    stack = [(0, 0)]
    nodes = 0
    while stack:
        k, taken = stack.pop()
        nodes += 1
        if nodes > SUBSET_GUARD:
            return found, False
        if k == len(order):
            if all(any(e & ~taken == 1 << i for e in through[i]) for i in order if not taken >> i & 1):
                found.append(taken)
            continue
        i = order[k]
        below = (1 << i) - 1
        if any(not e & below & ~taken for e in through[i]):
            stack.append((k + 1, taken))
        if not any(e & ~taken == 1 << i for e in through[i]):
            stack.append((k + 1, taken | 1 << i))
    return found, True


def minimal_ltc_sets(rows: Sequence[Polynomial]) -> LtcReport:
    """All minimal admissible fast sets of the given lowest-order field.

    J is admissible when every monomial holds a state of J.  A monomial free
    of the states rules every J out; one whose state support is a single
    state puts that state in every J, so the complements of the minimal J are
    the maximal subsets of the candidate slow set that hold no other support
    (:func:`_maximal_free_sets`).  Each J found is verified with
    :func:`is_ltc_set`; ``SUBSET_GUARD`` bounds the search for every degree.
    """
    if not rows:
        raise ModelError("empty system")
    names = [s.name for s in rows[0].ctx.states]
    supports = _supports(rows)
    if 0 in supports:
        # a term free of the states vanishes on no fast set
        return LtcReport((), (), 0, True)
    order = _slow(len(names), supports)
    S = tuple(names[i] for i in order)
    if not supports:
        # the field is identically zero: every singleton that leaves a slow state is admissible
        return LtcReport(S, tuple((n,) for n in names) if len(names) > 1 else (), 0, True)
    slow = sum(1 << i for i in order)
    edges = [m for m in supports if m & (m - 1) and not m & ~slow]
    complements, complete = _maximal_free_sets(order, edges)
    minimal = []
    for comp in complements:
        J = tuple(n for i, n in enumerate(names) if not comp >> i & 1)
        if len(J) < len(names):
            if not is_ltc_set(rows, J):
                raise SymbolicError(f"the fast-set search produced a bad set {J}")
            minimal.append(J)
    return LtcReport(S, tuple(minimal), len(minimal), complete)


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
    nonnegative parameters, a positively weighted sum of them.  J must name
    distinct states and leave at least one out; anything else raises
    ModelError.
    """
    if not rows:
        raise ModelError("empty system")
    ctx = rows[0].ctx
    if scope not in ("local", "full"):
        raise ValueError("scope must be 'local' or 'full'")
    state_names = [s.name for s in ctx.states]
    names = list(Partition.of_states(state_names, J).fast)
    if scope == "local":
        take = [state_names.index(n) for n in names]
    else:
        take = list(range(len(rows)))

    n = len(state_names)
    grouped: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for i in take:
        # the monomials free of the J-variables (the row on the J-subspace), per
        # state monomial: its coefficient, a polynomial in the parameters
        for e, c in rows[i].by_degree(names)[0].monomials().items():
            coef = grouped.setdefault((i, *e[:n]), {})
            params = (0,) * n + e[n:-1] + (0,)
            coef[params] = coef.get(params, 0) + c

    conditions: list[Polynomial] = []
    seen: set[frozenset] = set()
    feasible = True
    for coef in grouped.values():
        poly = Polynomial(ctx, coef)
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
