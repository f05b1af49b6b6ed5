"""Exact multivariate polynomial and rational-function arithmetic over the rationals.

Every coefficient is an ``int`` when it is integral and a ``fractions.Fraction``
otherwise (never an integral Fraction, never a float); :func:`Q` and
:func:`_div` keep that invariant, and there is no floating point in this
layer.  Polynomials live in a shared :class:`Context` (symbol table) that fixes
the variable order.  Each term is keyed by one packed int, its monomial: the
exponents in 16-bit fields in symbol order (symbol 0 in the most significant
field), each field's top bit a guard that stays clear, and the total degree
in the unbounded bits above the fields.  An exponent is at most
``EXPONENT_MAX`` (32767); anything larger raises :class:`SymbolicError`.  With
this layout a product's monomial is one integer add, graded lexicographic
order is integer order (so equal polynomials have identical canonical
renderings), and divisibility is one subtract and a guard-bit test, after
Monagan and Pearce, "Sparse polynomial division using a heap" (2011).
:meth:`Context.pack` and :meth:`Context.unpack` convert between a monomial and
its exponent tuple; :meth:`Polynomial.monomials` is the tuple view for code
outside this module.

Rational functions are kept lightly reduced: common monomial content is
cancelled, exact polynomial division is attempted in both directions, and the
denominator is normalised to leading coefficient one.  Equality is decided by
cross-multiplication, never by representation.

Setting symbols to zero and scaling them by eps are gradings, not
substitutions: :meth:`Polynomial.by_degree` splits the terms by their total
degree in the named symbols, so group 0 is the polynomial with those symbols
at 0 and y = eps*y_star moves group k up k powers of eps, and
:meth:`Polynomial.relabel` carries the packed terms over to a context that
renames this one in place.  Every other substitution goes through
:func:`substitute`, which rebuilds a polynomial over a target context (the
same one or another) with the named symbols replaced by images there, and
returns a (num, den) pair: the terms, in the polynomial's own order, over one
common denominator (each distinct image denominator to the highest power any
term needs), with the powers of those denominators that the numerator shares
divided out.  :meth:`Polynomial.subs`, :meth:`Polynomial.subs_rf` and
:meth:`RationalFunction.subs` wrap it.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import comb, gcd, lcm, log2, log10, prod
from operator import add, mul, or_, sub, truediv
from sys import get_int_max_str_digits
from typing import Iterable, Mapping, Sequence, Union

Coefficient = Union[int, Fraction, str]

STATE = "state"
PARAM = "parameter"
EPS = "epsilon"

FIELD_BITS = 16
EXPONENT_MAX = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
MAX_NESTING = 100
MAX_POWER_TERMS = 2000  # most terms the parser lets a multi-term power or product have


class SymbolicError(Exception):
    """Base class for errors raised by the symbolic layer."""


class ZeroDivisorError(SymbolicError, ZeroDivisionError):
    """A rational function's denominator is identically zero."""


class SubstitutionError(SymbolicError):
    """A substitution made a denominator vanish identically."""


def Q(x: Coefficient) -> "int | Fraction":
    """Coerce ints, Fractions and 'p/q' strings to an exact coefficient.

    Integral values come back as ``int``; a non-integral Fraction comes back
    as it is.
    """
    if x.__class__ is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(a: "int | Fraction", b: "int | Fraction") -> "int | Fraction":
    """Exact quotient of two coefficients: an int when it is integral."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def cleared_row(values: Iterable[int | Fraction]) -> tuple[list[int], int]:
    """The values as integers over one denominator: ([d*v for v in values], d), d the lcm of theirs."""
    values = list(values)
    d = lcm(*[v.denominator for v in values if v.__class__ is not int])
    if d == 1:
        return [v if v.__class__ is int else v.numerator for v in values], 1
    return [v * d if v.__class__ is int else v.numerator * (d // v.denominator) for v in values], d


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints."""
    return {
        e: c if c.__class__ is int or c.denominator != 1 else c.numerator
        for e, c in terms.items()
        if c
    }


@dataclass(frozen=True)
class Symbol:
    """A named variable: a state, a parameter, or the small parameter."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (STATE, PARAM, EPS):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"bad symbol name {self.name!r}")

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind})"


class Context:
    """Shared symbol table.

    Holds the ordered list of symbols (states first, then parameters, then the
    single epsilon symbol, always named ``eps``) and acts as a factory for
    polynomials over them.  Immutable after construction; polynomials from
    different contexts never mix.

    It also holds the monomial layout: ``shifts[i]`` is the bit offset of
    symbol i's field, ``dshift`` that of the total degree, ``fields`` masks
    every exponent field and ``guard`` every field's top bit.
    """

    __slots__ = (
        "symbols", "index", "states", "params", "eps",
        "shifts", "dshift", "fields", "guard", "_struct", "_zero", "_one",
    )

    def __init__(self, states: Sequence[str], params: Sequence[str] = ()):
        syms = [Symbol(n, STATE) for n in states]
        syms += [Symbol(n, PARAM) for n in params]
        syms.append(Symbol("eps", EPS))
        names = [s.name for s in syms]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        self.symbols: tuple[Symbol, ...] = tuple(syms)
        self.index: dict[str, int] = {s.name: i for i, s in enumerate(syms)}
        self.states: tuple[Symbol, ...] = tuple(s for s in syms if s.kind == STATE)
        self.params: tuple[Symbol, ...] = tuple(s for s in syms if s.kind == PARAM)
        self.eps: Symbol = syms[-1]
        n = len(syms)
        self.shifts: tuple[int, ...] = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self.dshift = FIELD_BITS * n
        self.fields = (1 << self.dshift) - 1
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        self._struct = struct.Struct(f">{n}H")
        self._zero = Polynomial._of(self, {})
        self._one = Polynomial._of(self, {0: 1})

    @property
    def nvars(self) -> int:
        return len(self.symbols)

    def zero(self) -> "Polynomial":
        return self._zero

    def one(self) -> "Polynomial":
        return self._one

    def const(self, c: Coefficient) -> "Polynomial":
        c = Q(c)
        if c == 0:
            return self._zero
        return Polynomial._of(self, {0: c})

    def sym(self, name: str) -> "Polynomial":
        return Polynomial._of(self, {(1 << self.shifts[self.index[name]]) | (1 << self.dshift): 1})

    def pack(self, e: Sequence[int]) -> int:
        """The monomial of an exponent tuple (one entry per symbol)."""
        self._refuse(e)
        return int.from_bytes(self._struct.pack(*e), "big") | (sum(e) << self.dshift)

    def unpack(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of a monomial."""
        return self._struct.unpack((m & self.fields).to_bytes(2 * len(self.symbols), "big"))

    def divides(self, a: int, b: int) -> bool:
        """Whether monomial a divides monomial b: no field of b - a borrows."""
        d = b - a
        return d >= 0 and not d & self.guard

    def meet(self, a: int, b: int) -> int:
        """The per-field minimum of two monomials (their gcd), as a monomial."""
        return self._with_degree(self._field_min(a & self.fields, b))

    def _field_min(self, m: int, e: int) -> int:
        """Per-field minimum of fields-only m and monomial e, fields only.

        Each guard bit of (m | guard) - e survives exactly where m's field is
        at least e's, and ``t - (t >> 15)`` widens it to the field's mask.
        """
        t = ((m | self.guard) - e) & self.guard
        return m ^ ((m ^ e) & (t - (t >> (FIELD_BITS - 1))))

    def _with_degree(self, m: int) -> int:
        """The monomial of fields-only m: its total degree added on top."""
        return m | (sum(self.unpack(m)) << self.dshift)

    def _refuse(self, e: Sequence[int]) -> None:
        """Raise SymbolicError naming the largest exponent of e if it is above the limit."""
        top = max(e)
        if top > EXPONENT_MAX:
            raise SymbolicError(
                f"exponent {top} of {self.symbols[e.index(top)].name} is above the limit {EXPONENT_MAX}"
            )

    def _check_sum(self, m: int) -> None:
        """Raise SymbolicError if some field of a sum of two monomials carried.

        Two fields below the guard bit sum to less than two guard bits, so a
        field that carried holds its exponent in full and never spills over.
        """
        if m & self.guard:
            self._refuse(self.unpack(m))

    def symbol(self, name: str) -> Symbol:
        return self.symbols[self.index[name]]

    def point_values(self, point: Mapping[str, Coefficient]) -> "Point":
        """A point's exact values, cleared to integers over one denominator.

        Clear a point once and evaluate any number of polynomials at it with
        :meth:`Polynomial.eval_at`; :meth:`Point.bind` extends it in place.
        """
        ints, den = cleared_row([Q(v) for v in point.values()])
        nums: list = [None] * len(self.symbols)
        for name, v in zip(point, ints):
            nums[self.index[name]] = v
        return Point(self, nums, den)

    def parse(self, text: str) -> "RationalFunction":
        return _Parser(self, text).parse()

    def parse_poly(self, text: str) -> "Polynomial":
        rf = self.parse(text)
        if not rf.den.is_one():
            raise ValueError(f"expected a polynomial, got denominator {rf.den}")
        return rf.num

    def __repr__(self):
        return f"Context(states={[s.name for s in self.states]}, params={[p.name for p in self.params]})"


class Point:
    """Exact values of a context's symbols as integers over one common denominator.

    ``nums[i]`` is symbol i's value times ``den`` (None where unbound), with
    ``den`` > 0 the lcm of the values' denominators.  A polynomial of total
    degree D then takes the value (sum of integer term products, each lifted
    by den^(D - deg)) / (its coefficient denominator * den^D), with no
    Fraction until the end.  The powers of ``den`` are cached.
    """

    __slots__ = ("ctx", "nums", "den", "_powers")

    def __init__(self, ctx: Context, nums: list, den: int):
        self.ctx = ctx
        self.nums = nums
        self.den = den
        self._powers: dict[int, int] = {}

    def bind(self, name: str, value: Coefficient) -> None:
        """Set one symbol's value; a new denominator rescales ``nums`` and raises ``den``."""
        value = Q(value)
        d = value.denominator
        f = d // gcd(self.den, d)
        if f != 1:
            self.nums = [None if a is None else a * f for a in self.nums]
            self.den *= f
            self._powers.clear()
        self.nums[self.ctx.index[name]] = value.numerator * (self.den // d)

    def power(self, k: int) -> int:
        """den^k, cached."""
        p = self._powers.get(k)
        if p is None:
            p = self._powers[k] = self.den**k
        return p


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps monomials, each one packed int in the context's layout
    (16 bits per symbol, exponents up to ``EXPONENT_MAX`` = 32767, total
    degree on top; see the module docstring), to nonzero coefficients, each
    an ``int`` when integral and a non-integral ``Fraction`` otherwise.  The
    constructor takes exponent tuples (one entry per context symbol) and
    packs them; :meth:`monomials` gives the terms back keyed by tuples.
    Instances are immutable by convention: no method mutates ``terms`` after
    construction.  ``_cleared`` holds the terms for evaluation at a
    :class:`Point`: one coefficient denominator q (the lcm of the
    coefficients' denominators), the total degree D, and the terms grouped by
    D - deg, each as its integer coefficient times q with its ((index, power),
    ...) over the nonzero powers.  It is built by the first :meth:`eval_at`
    and reused by every later one.
    """

    __slots__ = ("ctx", "terms", "_cleared")

    def __init__(self, ctx: Context, terms: dict[tuple[int, ...], "int | Fraction"]):
        self.ctx = ctx
        self.terms = _clean({ctx.pack(e): c for e, c in terms.items()})
        self._cleared = None

    @staticmethod
    def _of(ctx: Context, terms: dict) -> "Polynomial":
        """Wrap monomial-keyed terms that hold the invariant (no zeros, no integral Fractions)."""
        p = object.__new__(Polynomial)
        p.ctx = ctx
        p.terms = terms
        p._cleared = None
        return p

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == self.ctx._one.terms

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> "int | Fraction":
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ctx is not self.ctx:
                raise SymbolicError("polynomials from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _merge(self, items) -> "Polynomial":
        """self plus the (exponent, coefficient) pairs, merged into a copy of self's terms."""
        out = dict(self.terms)
        for e, c in items:
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if not s:
                del out[e]
            elif s.__class__ is int or s.denominator != 1:
                out[e] = s
            else:
                out[e] = s.numerator
        return Polynomial._of(self.ctx, out)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other.terms.items())

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge((e, -c) for e, c in other.terms.items())

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.ctx.zero()
        ctx = self.ctx
        a, b = self.terms, other.terms
        if (max(a) + max(b)) >> ctx.dshift > EXPONENT_MAX:
            # the total degree allows a field to carry: look at every product
            for e1 in a:
                for e2 in b:
                    ctx._check_sum(e1 + e2)
        out: dict = {}
        get = out.get
        b_items = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in b_items:
                e = e1 + e2
                s = get(e, 0) + c1 * c2
                # a cancelled term that comes back goes to the end: compiled
                # float fields sum the terms in this order
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._of(self.ctx, _clean(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        ctx = self.ctx
        if self.terms and n * (max(self.terms) >> ctx.dshift) > EXPONENT_MAX:
            # the power of a symbol's degree is that symbol's degree in the result
            ctx._refuse([n * d for d in map(max, zip(*map(ctx.unpack, self.terms)))])
        result = ctx.one()
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __truediv__(self, other):
        return RationalFunction.of(self) / other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if isinstance(other, RationalFunction):
            return other == self
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure ---------------------------------------------------------

    def monomials(self) -> dict[tuple[int, ...], "int | Fraction"]:
        """The terms keyed by exponent tuples, in term order."""
        unpack = self.ctx.unpack
        return {unpack(e): c for e, c in self.terms.items()}

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return max(self.terms) >> self.ctx.dshift

    def degree_in(self, name: str) -> int:
        if self.is_zero():
            return -1
        s = self.ctx.shifts[self.ctx.index[name]]
        return max((e >> s) & _FIELD for e in self.terms)

    def symbols_used(self) -> set[str]:
        # ctx.index lists the names in symbol order, one per unpacked field
        return set(compress(self.ctx.index, self.ctx.unpack(reduce(or_, self.terms, 0))))

    def leading(self) -> tuple[int, "int | Fraction"]:
        """Leading term (monomial, coefficient) in graded lexicographic order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[int, "int | Fraction"]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, reverse=True)]

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        s = self.ctx.shifts[self.ctx.index[name]]
        step = (1 << s) | (1 << self.ctx.dshift)
        out: dict = {}
        for e, c in self.terms.items():
            k = (e >> s) & _FIELD
            if k:
                # distinct monomials stay distinct after lowering one field
                out[e - step] = c * k
        return Polynomial._of(self.ctx, _clean(out))

    # -- substitution and evaluation ----------------------------------------

    def subs(self, bindings: Mapping[str, "Polynomial | Coefficient"]) -> "Polynomial":
        """Simultaneous substitution with polynomial (or constant) values."""
        return substitute(self, self.ctx, bindings)[0]

    def subs_rf(self, bindings: Mapping[str, "RationalFunction | Polynomial | Coefficient"]) -> "RationalFunction":
        """Simultaneous substitution allowing rational-function values."""
        return RationalFunction(*substitute(self, self.ctx, bindings))

    def eval(self, point: Mapping[str, Coefficient]) -> "int | Fraction":
        """Exact evaluation; every symbol occurring in the polynomial must be bound."""
        return self.eval_at(self.ctx.point_values(point))

    def eval_at(self, point: Point) -> "int | Fraction":
        """Exact evaluation at a point from :meth:`Context.point_values`."""
        return _div(*self.cleared_at(point))

    def cleared_at(self, point: Point) -> tuple[int, int]:
        """(n, d) with d > 0 and n/d the value at ``point``, both integers.

        Raises SymbolicError naming the first unbound symbol in term order.
        """
        cleared = self._cleared
        if cleared is None:
            cleared = self._cleared = self._clear()
        q, top, groups = cleared
        nums = point.nums
        total = 0
        try:
            for lift, group in groups:
                s = 0
                for c, factors in group:
                    for i, k in factors:
                        a = nums[i]
                        c *= a if k == 1 else a**k
                    s += c
                total += s * point.power(lift) if lift else s
        except TypeError:  # an unbound value is None
            unpack = self.ctx.unpack
            i = next(i for e in self.terms for i, k in enumerate(unpack(e)) if k and nums[i] is None)
            raise SymbolicError(f"unbound symbol {self.ctx.symbols[i].name} in evaluation") from None
        return total, q * point.power(top)

    def _clear(self) -> tuple:
        """(q, D, groups) for :meth:`cleared_at`; see the class docstring."""
        terms = self.terms
        if not terms:
            return 1, 0, []
        ints, q = cleared_row(terms.values())
        dshift, unpack = self.ctx.dshift, self.ctx.unpack
        top = max(terms) >> dshift
        groups: dict[int, list] = {}
        for e, n in zip(terms, ints):
            factors = tuple((i, k) for i, k in enumerate(unpack(e)) if k)
            groups.setdefault(top - (e >> dshift), []).append((n, factors))
        return q, top, list(groups.items())

    # -- grading -------------------------------------------------------------

    def by_degree(self, names: Iterable[str]) -> list["Polynomial"]:
        """The terms grouped by their total degree in the named symbols, each group in term order.

        Group k holds the terms of degree k (a zero polynomial when there are
        none), up to the highest degree; group 0 is the polynomial with the
        named symbols at 0, and there is always one.
        """
        ctx = self.ctx
        shifts = [ctx.shifts[ctx.index[n]] for n in names]
        groups: list[dict] = [{}]
        for e, c in self.terms.items():
            k = sum((e >> s) & _FIELD for s in shifts)
            while len(groups) <= k:
                groups.append({})
            groups[k][e] = c
        return [Polynomial._of(ctx, t) for t in groups]

    def relabel(self, ctx: Context) -> "Polynomial":
        """The same packed terms over ctx, a context that renames this one's symbols in place.

        Contexts list states, then parameters, then eps, so one with as many
        symbols and states has the same kind at every position; any other is
        refused with SymbolicError.
        """
        own = self.ctx
        if ctx is own:
            return self
        if len(ctx.symbols) != len(own.symbols) or len(ctx.states) != len(own.states):
            raise SymbolicError(f"{ctx} does not rename {own} in place")
        return Polynomial._of(ctx, self.terms)

    # -- epsilon grading -----------------------------------------------------

    def eps_coefficients(self) -> dict[int, "Polynomial"]:
        """Split into {k: coefficient of eps^k}, each coefficient eps-free."""
        ctx = self.ctx
        s = ctx.shifts[ctx.index[ctx.eps.name]]
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = (e >> s) & _FIELD
            out.setdefault(k, {})[e - (k << s) - (k << ctx.dshift)] = c
        return {k: Polynomial._of(ctx, t) for k, t in out.items()}

    def eps_free(self) -> bool:
        s = self.ctx.shifts[self.ctx.index[self.ctx.eps.name]]
        return not (reduce(or_, self.terms, 0) >> s) & _FIELD

    # -- division -----------------------------------------------------------

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return self/divisor when the division is exact, else None.

        The remainder is one dict updated in place, with its monomials also
        grouped by total degree, so the graded-lex leading term is the largest
        monomial of the top degree group.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.ctx.zero()
        ctx = self.ctx
        if divisor.is_constant():
            d = divisor.constant_value()
            return Polynomial._of(ctx, {e: _div(c, d) for e, c in self.terms.items()})
        terms, dterms = self.terms, divisor.terms
        lead_e = max(dterms)
        # Graded lex is multiplicative, so an exact quotient's leading and
        # trailing terms times the divisor's give those of self.
        if not ctx.divides(lead_e, max(terms)):
            return None
        if not ctx.divides(min(dterms), min(terms)):
            return None
        lead_c = dterms[lead_e]
        dshift, guard = ctx.dshift, ctx.guard
        lead_d = lead_e >> dshift
        rest = [(e, c, e >> dshift) for e, c in dterms.items() if e != lead_e]
        rem = dict(terms)
        # the remainder's monomials by total degree
        by_deg: defaultdict[int, set] = defaultdict(set)
        for e in terms:
            by_deg[e >> dshift].add(e)
        deg = max(by_deg)
        quotient = {}
        while rem:
            bucket = by_deg.get(deg)
            if not bucket:
                deg -= 1
                continue
            e = max(bucket)
            bucket.remove(e)
            qe = e - lead_e
            if qe < 0 or qe & guard:
                return None
            qc = _div(rem.pop(e), lead_c)
            quotient[qe] = qc
            qd = deg - lead_d
            for de, dc, dd in rest:
                t = qe + de
                v = rem.get(t)
                if v is None:
                    rem[t] = -qc * dc
                    by_deg[qd + dd].add(t)
                else:
                    v -= qc * dc
                    if v:
                        rem[t] = v
                    else:
                        del rem[t]
                        by_deg[qd + dd].remove(t)
        return Polynomial._of(ctx, quotient)

    def monomial_content(self) -> int:
        """The per-field minimum of all monomials, as a monomial (zero poly: 0)."""
        terms = self.terms
        if not terms or 0 in terms:
            return 0
        ctx = self.ctx
        it = iter(terms)
        m = next(it) & ctx.fields
        field_min = ctx._field_min
        for e in it:
            m = field_min(m, e)
            if not m:
                return 0
        return ctx._with_degree(m)

    def shift_down(self, content: int) -> "Polynomial":
        """Every monomial divided by ``content``, which divides them all."""
        return Polynomial._of(self.ctx, {e - content: c for e, c in self.terms.items()})

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lex descending terms, explicit '*' and '^'.

        Within a monomial, parameters are printed before states (rate-law
        style); the term order itself uses the fixed symbol indices.
        """
        if self.is_zero():
            return "0"
        order = [self.ctx.index[p.name] for p in self.ctx.params]
        order += [self.ctx.index[s.name] for s in self.ctx.states]
        order.append(self.ctx.index[self.ctx.eps.name])
        parts: list[str] = []
        unpack = self.ctx.unpack
        for m, c in self.sorted_terms():
            e = unpack(m)
            factors = []
            for i in order:
                k = e[i]
                if k == 0:
                    continue
                name = self.ctx.symbols[i].name
                factors.append(name if k == 1 else f"{name}^{k}")
            if not factors:
                body = _render_coeff(abs(c), standalone=True)
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = _render_coeff(abs(c), standalone=False) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


def _render_coeff(c: Fraction, standalone: bool) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


class RationalFunction:
    """Quotient of two polynomials over the same context.

    The denominator is never identically zero.  Reduction cancels monomial
    content and exact polynomial factors; the denominator's leading coefficient
    is normalised to one.  Equality is by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisorError("rational function with zero denominator")
        if num.ctx is not den.ctx:
            raise SymbolicError("numerator and denominator from different contexts")
        num, den = _reduce_pair(num, den)
        self.num = num
        self.den = den

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    @staticmethod
    def of(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, p.ctx.one())

    @staticmethod
    def coerce(ctx: Context, v) -> "RationalFunction":
        if isinstance(v, RationalFunction):
            if v.ctx is not ctx:
                raise SymbolicError("rational functions from different contexts")
            return v
        if isinstance(v, Polynomial):
            return RationalFunction.of(v)
        return RationalFunction.of(ctx.const(v))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def _coerce_other(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.ctx is not self.ctx:
                raise SymbolicError("rational functions from different contexts")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.of(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.of(self.ctx.const(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        # common-denominator shortcuts keep the factors from piling up
        q = other.den.exact_divide(self.den)
        if q is not None:
            return RationalFunction(self.num * q + other.num, other.den)
        q = self.den.exact_divide(other.den)
        if q is not None:
            return RationalFunction(self.num + other.num * q, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        # cross-cancel before multiplying to control swell
        if not d.is_one() and not a.is_zero():
            q = a.exact_divide(d)
            if q is not None:
                a, d = q, d.ctx.one()
            elif not a.is_constant():
                q = d.exact_divide(a)
                if q is not None:
                    a, d = a.ctx.one(), q
        if not b.is_one() and not c.is_zero():
            q = c.exact_divide(b)
            if q is not None:
                c, b = q, b.ctx.one()
            elif not c.is_constant():
                q = b.exact_divide(c)
                if q is not None:
                    c, b = c.ctx.one(), q
        return RationalFunction(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce_other(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisorError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("rational function powers must be integers")
        if n < 0:
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = self._coerce_other(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    # -- calculus -------------------------------------------------------------

    def diff(self, name: str) -> "RationalFunction":
        """Exact partial derivative (quotient rule)."""
        dn = self.num.diff(name)
        if self.den.is_one():
            return RationalFunction.of(dn)
        dd = self.den.diff(name)
        if dd.is_zero():
            return RationalFunction(dn, self.den)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def subs(self, bindings: Mapping[str, "RationalFunction | Polynomial | Coefficient"]) -> "RationalFunction":
        num = self.num.subs_rf(bindings)
        if self.den.is_one():
            return num
        den = self.den.subs_rf(bindings)
        if den.is_zero():
            names = ", ".join(sorted(bindings))
            raise SubstitutionError(
                f"denominator {self.den.render()} vanishes identically under bindings {{{names}}}"
            )
        return num / den

    def eval(self, point: Mapping[str, Coefficient]) -> "int | Fraction":
        return self.eval_at(self.ctx.point_values(point))

    def eval_at(self, point: Point) -> "int | Fraction":
        """Exact value at a point from :meth:`Context.point_values`.

        The denominator is evaluated first; the one Fraction is the quotient.
        """
        dn, dd = self.den.cleared_at(point)
        if not dn:
            raise ZeroDivisionError(f"denominator {self.den.render()} vanishes at sample point")
        nn, nd = self.num.cleared_at(point)
        return _div(nn * dd, nd * dn)

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        num = self.num.render()
        den = self.den.render()
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1 or "*" in den or "^" in den:
            den = f"({den})"
        return f"{num} / {den}"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RF({self.render()})"


def _reduce_pair(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    ctx = num.ctx
    if num.is_zero():
        return ctx.zero(), ctx.one()
    if den.is_one():
        return num, den
    # monomial content
    cd = den.monomial_content()
    if cd:
        common = ctx.meet(num.monomial_content(), cd)
        if common:
            num = num.shift_down(common)
            den = den.shift_down(common)
    # exact syntactic factor cancellation
    if not den.is_constant():
        q = num.exact_divide(den)
        if q is not None:
            num, den = q, ctx.one()
        else:
            q = den.exact_divide(num)
            if q is not None:
                # num/den = 1/q
                num, den = ctx.one(), q
    # normalise the denominator's leading coefficient to 1
    _, lc = den.leading()
    if lc != 1:
        num = Polynomial._of(ctx, {e: _div(c, lc) for e, c in num.terms.items()})
        den = Polynomial._of(ctx, {e: _div(c, lc) for e, c in den.terms.items()})
    return num, den


def substitute(
    p: Polynomial, ctx: Context, images: Mapping[str, "RationalFunction | Polynomial | Coefficient"]
) -> tuple[Polynomial, Polynomial]:
    """p with the symbols named in ``images`` replaced, as a (num, den) pair over ctx.

    The images live in ctx; every other symbol of p keeps its name and must
    exist in ctx.  Each term goes over one common denominator: every distinct
    image denominator, raised to the highest total power its images reach in
    any term.  The terms are summed into one dict in p's order, and the powers
    of the image denominators that the numerator shares are then divided out.
    Only the images of symbols that occur in p are expanded, but every image
    denominator stays a candidate for that division, in the order of
    ``images``: a factor of p may cancel against an image it does not use.
    When no bound symbol occurs in p and ctx is p's own, the result is
    (p, 1), which is what the expansion would rebuild.
    """
    one = ctx.one()
    used = reduce(or_, p.terms, 0)  # every field of a symbol occurring in p is nonzero here
    skip = set()  # the indices in p's context of every bound symbol
    bound = []  # (index in p's context, image numerator) of the bound symbols occurring in p
    dens: list[Polynomial] = []  # the distinct image denominators other than 1
    groups: list[list[int]] = []  # per denominator, the occurring indices in p's context over it
    for name, v in images.items():
        if isinstance(v, RationalFunction):
            num, den = v.num, v.den
        else:
            num, den = (v if isinstance(v, Polynomial) else ctx.const(v)), one
        if num.ctx is not ctx:
            raise SymbolicError(f"image of {name} lives in another context")
        i = p.ctx.index[name]
        skip.add(i)
        occurs = used >> p.ctx.shifts[i] & _FIELD
        if occurs:
            bound.append((i, num))
        if not den.is_one():
            if den not in dens:
                dens.append(den)
                groups.append([])
            if occurs:
                groups[dens.index(den)].append(i)
    if not bound and p.ctx is ctx:
        return p, one
    exps = list(map(p.ctx.unpack, p.terms))
    if p.ctx is ctx:
        # the kept fields stay in place: masking out the bound ones skips
        # the remap's walk over every symbol, which dominates the many
        # small same-context calls (subs)
        keep = ctx.fields & ~sum(_FIELD << ctx.shifts[i] for i in skip)
        kept_parts = [ctx._with_degree(m & keep) for m in p.terms]
    else:
        for i, sym in enumerate(p.ctx.symbols):
            if i not in skip and sym.name not in ctx.index:
                raise SymbolicError(f"symbol {sym.name} missing from the target context")
        # for each symbol of ctx, the index of its kept namesake in p (-1: none)
        src = [p.ctx.index.get(sym.name, -1) for sym in ctx.symbols]
        src = [-1 if i in skip else i for i in src]
        kept_parts = [ctx.pack(tuple(map((e + (0,)).__getitem__, src))) for e in exps]
    top = [max((sum(e[i] for i in idx) for e in exps), default=0) for idx in groups]
    powers: dict = {}

    def power(base: Polynomial, k: int) -> Polynomial:
        if k == 1:
            return base
        key = (id(base), k)
        if key not in powers:
            powers[key] = base ** k
        return powers[key]

    out: dict = {}
    for e, kept, c in zip(exps, kept_parts, p.terms.values()):
        factors = [power(num, e[i]) for i, num in bound if e[i]]
        for d, idx, m in zip(dens, groups, top):
            k = m - sum(e[i] for i in idx)
            if k:
                factors.append(power(d, k))
        if factors:
            image = reduce(mul, factors).terms
            if (kept + max(image, default=0)) >> ctx.dshift > EXPONENT_MAX:
                for fe in image:
                    ctx._check_sum(kept + fe)
            items = image.items()
        else:
            items = ((0, 1),)
        for fe, fc in items:
            t = kept + fe
            v = out.get(t, 0) + c * fc
            # a cancelled term that comes back goes to the end: compiled
            # float fields sum the terms in this order
            if v:
                out[t] = v
            else:
                del out[t]
    den = reduce(mul, (power(d, m) for d, m in zip(dens, top) if m), one)
    return cancel_common_factors((Polynomial._of(ctx, _clean(out)), den), dens)


def cancel_common_factors(
    pair: tuple[Polynomial, Polynomial], candidates: Sequence[Polynomial]
) -> tuple[Polynomial, Polynomial]:
    """Strip factors shared by numerator and denominator, by trial division.

    A cheap substitute for multivariate gcd: only the supplied candidate
    factors (typically denominators met during an elimination) are tried.
    """
    num, den = pair
    changed = True
    while changed:
        changed = False
        for f in candidates:
            if f.is_constant() or f.is_zero():
                continue
            while True:
                qn = num.exact_divide(f)
                if qn is None:
                    break
                qd = den.exact_divide(f)
                if qd is None:
                    break
                num, den = qn, qd
                changed = True
    return num, den


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for '+ - * / ^ ( )' expressions over a context.

    Numbers are integers or p/q handled through division; names must exist in
    the context.  Each rule returns a Polynomial until a '/', a negative power
    or an operand that is already rational promotes it to a RationalFunction;
    :meth:`parse` wraps the result in one.  A zero divisor raises
    ZeroDivisorError; parentheses nested deeper than ``MAX_NESTING``, the
    power of a single term whose coefficient would have more digits than an
    int may print, the power of a multi-term expression or a product of two
    (judged on the operands of each '*', '/' and sum over two denominators)
    that may have more than ``MAX_POWER_TERMS`` terms, and a result with such
    a coefficient raise SymbolicError.
    """

    def __init__(self, ctx: Context, text: str):
        self.ctx = ctx
        self.tokens = self._lex(text)
        self.pos = 0
        self.depth = 0

    @staticmethod
    def _lex(text: str) -> list[str]:
        tokens: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                tokens.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(text[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise ValueError(f"unexpected character {ch!r} in expression")
        return tokens

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> RationalFunction:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        value = _rational(value)
        _refuse_long_coefficients(value)
        return value

    def expr(self) -> "Polynomial | RationalFunction":
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        total = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            total = _combine(add if op == "+" else sub, total, self.term())
        return total

    def term(self) -> "Polynomial | RationalFunction":
        total = self.factor()
        while self.peek() in ("*", "/"):
            op = mul if self.take() == "*" else truediv
            total = _combine(op, total, self.factor())
        return total

    def factor(self) -> "Polynomial | RationalFunction":
        negate = False
        while self.peek() == "-":  # a loop, so a run of signs does not recurse
            self.take()
            negate = not negate
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            tok = self.take()
            if not tok.isdigit():
                raise ValueError(f"expected integer exponent, got {tok!r}")
            n = int(tok)
            _refuse_long_power(base, n)
            _refuse_large_power(base, n)
            base = _rational(base) ** -n if neg else base ** n
        return -base if negate else base

    def atom(self) -> "Polynomial | RationalFunction":
        tok = self.take()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise SymbolicError(f"expression nested deeper than {MAX_NESTING} parentheses")
            self.depth += 1
            inner = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            self.depth -= 1
            return inner
        if tok.isdigit():
            return self.ctx.const(int(tok))
        if tok in self.ctx.index:
            return self.ctx.sym(tok)
        raise ValueError(f"unknown symbol {tok!r}")


def _refuse_long_power(base: "Polynomial | RationalFunction", n: int) -> None:
    """Raise SymbolicError, before computing it, when the numerator of base is
    a single term whose coefficient to the power n has more digits than
    ``sys.get_int_max_str_digits()`` lets an int print.

    A single-term denominator needs no test: its coefficient is 1, as every
    denominator has leading coefficient one.
    """
    limit = get_int_max_str_digits()
    num = base.num if base.__class__ is RationalFunction else base
    if limit and len(num.terms) == 1:
        c = Fraction(next(iter(num.terms.values())))
        if n * max(log10(abs(c.numerator)), log10(c.denominator)) >= limit:
            raise SymbolicError(f"a constant to the power {n} has more than {limit} digits")


def _refuse_large_power(base: "Polynomial | RationalFunction", n: int) -> None:
    """Raise SymbolicError, before computing it, when the power n of the
    numerator or the denominator of base may have more than
    ``MAX_POWER_TERMS`` terms.

    The bound on the terms of p^n, for p of t terms, is the smaller of the
    multinomial count C(n + t - 1, t - 1) and the count of exponent vectors
    within n times p's degree in each symbol.
    """
    if n < 2:
        return
    for p in _num_den(base):
        t = len(p.terms)
        if t < 2 or comb(n + t - 1, min(n, t - 1)) <= MAX_POWER_TERMS:
            continue
        if prod(n * d + 1 for d in _degrees(p)) > MAX_POWER_TERMS:
            raise SymbolicError(f"a {t}-term expression to the power {n} may have more than {MAX_POWER_TERMS} terms")


def _refuse_large_product(p: Polynomial, q: Polynomial) -> None:
    """Raise SymbolicError, before p*q is formed, when it may have more than
    ``MAX_POWER_TERMS`` terms.

    The bound on the terms of p*q, for p and q of two or more terms each, is
    the smaller of the product of their term counts and the count of exponent
    vectors within the sum of their degrees in each symbol.
    """
    tp, tq = len(p.terms), len(q.terms)
    if tp < 2 or tq < 2 or tp * tq <= MAX_POWER_TERMS:
        return
    if prod(d + e + 1 for d, e in zip(_degrees(p), _degrees(q))) > MAX_POWER_TERMS:
        raise SymbolicError(
            f"a product of a {tp}-term and a {tq}-term expression may have more than {MAX_POWER_TERMS} terms"
        )


def _num_den(v: "Polynomial | RationalFunction") -> tuple[Polynomial, Polynomial]:
    """The numerator and denominator of v; a Polynomial's is 1."""
    return (v.num, v.den) if v.__class__ is RationalFunction else (v, v.ctx.one())


def _degrees(p: Polynomial) -> Iterable[int]:
    """p's largest exponent of each symbol, in symbol order."""
    return map(max, zip(*map(p.ctx.unpack, p.terms)))


def _refuse_long_coefficients(value: RationalFunction) -> None:
    """Raise SymbolicError when a coefficient of value's numerator or
    denominator has more digits than ``sys.get_int_max_str_digits()`` lets an
    int print, judged from its bit length."""
    limit = get_int_max_str_digits()
    if not limit:
        return
    bits = limit * log2(10)  # an int of at most this many bits has at most limit digits
    for p in (value.num, value.den):
        for c in p.terms.values():
            for k in (c,) if c.__class__ is int else (c.numerator, c.denominator):
                if k.bit_length() > bits and abs(k) >= 10**limit:
                    raise SymbolicError(f"a coefficient has more than {limit} digits")


def _rational(v: "Polynomial | RationalFunction") -> RationalFunction:
    """v as a RationalFunction (a Polynomial over 1)."""
    return v if v.__class__ is RationalFunction else RationalFunction.of(v)


def _combine(op, a: "Polynomial | RationalFunction", b: "Polynomial | RationalFunction"):
    """a op b, on Polynomials while both operands are, else on RationalFunctions,
    once ``_refuse_large_product`` has judged each product it forms.

    The products are judged on the operands as written, before any
    cancellation: a*b forms num*num and den*den, a/b num*den and den*num, and
    a sum or difference over two different denominators num*den, den*num and
    den*den.  Both operands are promoted, so the left one stays on the left:
    with a denominator of 1 the RationalFunction operations are the
    Polynomial ones, and the terms come out in the same order.  A Polynomial
    quotient is a RationalFunction.
    """
    if a.__class__ is b.__class__ is Polynomial:
        # of two Polynomials only a*b forms a product: a/b is a over b
        if op is mul:
            _refuse_large_product(a, b)
        return op(a, b)
    an, ad = _num_den(a)
    bn, bd = _num_den(b)
    if op is mul:
        pairs = ((an, bn), (ad, bd))
    elif op is truediv:
        pairs = ((an, bd), (ad, bn))
    else:
        pairs = () if ad == bd else ((an, bd), (bn, ad), (ad, bd))
    for p, q in pairs:
        _refuse_large_product(p, q)
    return op(_rational(a), _rational(b))
