"""Exact multivariate polynomial and rational-function arithmetic over the rationals.

Every coefficient is an ``int`` when it is integral and a ``fractions.Fraction``
otherwise (never an integral Fraction, never a float); :func:`Q` and
:func:`_div` keep that invariant, and there is no floating point in this
layer.  Polynomials live in a shared :class:`Context` (symbol table) that fixes
the variable order; terms are keyed by exponent tuples and compared in graded
lexicographic order, so equal polynomials have identical canonical renderings.

Rational functions are kept lightly reduced: common monomial content is
cancelled, exact polynomial division is attempted in both directions, and the
denominator is normalised to leading coefficient one.  Equality is decided by
cross-multiplication, never by representation.

Every substitution goes through :func:`substitute`, which rebuilds a polynomial
over a target context (the same one or another) with the named symbols replaced
by images there, and returns a (num, den) pair: the terms, in the polynomial's
own order, over one common denominator (each distinct image denominator to the
highest power any term needs), with the powers of those denominators that the
numerator shares divided out.  :meth:`Polynomial.subs`,
:meth:`Polynomial.subs_rf` and :meth:`RationalFunction.subs` wrap it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub
from typing import Mapping, Sequence, Union

Coefficient = Union[int, Fraction, str]

STATE = "state"
PARAM = "parameter"
EPS = "epsilon"


class SymbolicError(Exception):
    """Base class for errors raised by the symbolic layer."""


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
    single epsilon symbol) and acts as a factory for polynomials over them.
    Immutable after construction; polynomials from different contexts never mix.
    """

    __slots__ = ("symbols", "index", "states", "params", "eps", "_zero", "_one")

    def __init__(self, states: Sequence[str], params: Sequence[str] = (), eps: str = "eps"):
        syms = [Symbol(n, STATE) for n in states]
        syms += [Symbol(n, PARAM) for n in params]
        syms.append(Symbol(eps, EPS))
        names = [s.name for s in syms]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        self.symbols: tuple[Symbol, ...] = tuple(syms)
        self.index: dict[str, int] = {s.name: i for i, s in enumerate(syms)}
        self.states: tuple[Symbol, ...] = tuple(s for s in syms if s.kind == STATE)
        self.params: tuple[Symbol, ...] = tuple(s for s in syms if s.kind == PARAM)
        self.eps: Symbol = syms[-1]
        self._zero = Polynomial(self, {})
        nvars = len(syms)
        self._one = Polynomial(self, {(0,) * nvars: 1})

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
        return Polynomial(self, {(0,) * self.nvars: c})

    def sym(self, name: str) -> "Polynomial":
        i = self.index[name]
        expo = [0] * self.nvars
        expo[i] = 1
        return Polynomial(self, {tuple(expo): 1})

    def symbol(self, name: str) -> Symbol:
        return self.symbols[self.index[name]]

    def point_values(self, point: Mapping[str, Coefficient]) -> list:
        """Exact values of a point by symbol index (None where unbound).

        Convert a point once and evaluate any number of polynomials at it with
        :meth:`Polynomial.eval_at`.
        """
        vals: list = [None] * len(self.symbols)
        for name, v in point.items():
            vals[self.index[name]] = Q(v)
        return vals

    def parse(self, text: str) -> "RationalFunction":
        return _Parser(self, text).parse()

    def parse_poly(self, text: str) -> "Polynomial":
        rf = self.parse(text)
        if not rf.den.is_one():
            raise ValueError(f"expected a polynomial, got denominator {rf.den}")
        return rf.num

    def __repr__(self):
        return f"Context(states={[s.name for s in self.states]}, params={[p.name for p in self.params]})"


def _grlex_first(terms) -> tuple[int, ...]:
    """The graded-lex largest exponent among ``terms`` (compared in C)."""
    return max(zip(map(sum, terms), terms))[1]


def _grlex_last(terms) -> tuple[int, ...]:
    """The graded-lex smallest exponent among ``terms``."""
    return min(zip(map(sum, terms), terms))[1]


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per context symbol) to nonzero
    coefficients, each an ``int`` when integral and a non-integral
    ``Fraction`` otherwise.  Instances are immutable by convention: no method
    mutates ``terms`` after construction.  ``_flat`` holds the terms as
    (coefficient, ((index, power), ...)) over the nonzero powers, built by the
    first :meth:`eval_at` and reused by every later one.
    """

    __slots__ = ("ctx", "terms", "_flat")

    def __init__(self, ctx: Context, terms: dict[tuple[int, ...], "int | Fraction"]):
        self.ctx = ctx
        self.terms = _clean(terms)
        self._flat = None

    @staticmethod
    def _of(ctx: Context, terms: dict) -> "Polynomial":
        """Wrap terms that already hold the invariant (no zeros, no integral Fractions)."""
        p = object.__new__(Polynomial)
        p.ctx = ctx
        p.terms = terms
        p._flat = None
        return p

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == self.ctx._one.terms

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and not any(next(iter(t))))

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

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.ctx.zero()
        out: dict = {}
        get = out.get
        b_items = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in b_items:
                e = tuple(map(add, e1, e2))
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
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return max(map(sum, self.terms))

    def degree_in(self, name: str) -> int:
        i = self.ctx.index[name]
        if self.is_zero():
            return -1
        return max(e[i] for e in self.terms)

    def state_degree(self) -> int:
        """Total degree counting state symbols only."""
        if self.is_zero():
            return -1
        idx = [self.ctx.index[s.name] for s in self.ctx.states]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def symbols_used(self) -> set[str]:
        used: set[str] = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k > 0:
                    used.add(self.ctx.symbols[i].name)
        return used

    def leading(self) -> tuple[tuple[int, ...], "int | Fraction"]:
        """Leading term in graded lexicographic order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = _grlex_first(self.terms)
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], "int | Fraction"]]:
        keys = sorted(zip(map(sum, self.terms), self.terms), reverse=True)
        return [(e, self.terms[e]) for _, e in keys]

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        i = self.ctx.index[name]
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = list(e)
            ne[i] = k - 1
            # distinct exponents stay distinct after lowering one entry
            out[tuple(ne)] = c * k
        return Polynomial(self.ctx, out)

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

    def eval_at(self, vals: Sequence) -> "int | Fraction":
        """Exact evaluation at values from :meth:`Context.point_values`."""
        flat = self._flat
        if flat is None:
            flat = self._flat = [
                (c, tuple((i, k) for i, k in enumerate(e) if k)) for e, c in self.terms.items()
            ]
        total = 0
        for c, factors in flat:
            for i, k in factors:
                v = vals[i]
                if v is None:
                    raise SymbolicError(f"unbound symbol {self.ctx.symbols[i].name} in evaluation")
                c = c * (v if k == 1 else v ** k)
            total += c
        return Q(total)

    # -- epsilon grading -----------------------------------------------------

    def eps_coefficients(self) -> dict[int, "Polynomial"]:
        """Split into {k: coefficient of eps^k}, each coefficient eps-free."""
        i = self.ctx.index[self.ctx.eps.name]
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[i]
            ne = list(e)
            ne[i] = 0
            out.setdefault(k, {})[tuple(ne)] = c
        return {k: Polynomial._of(self.ctx, t) for k, t in out.items()}

    def eps_free(self) -> bool:
        i = self.ctx.index[self.ctx.eps.name]
        return all(e[i] == 0 for e in self.terms)

    # -- division -----------------------------------------------------------

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return self/divisor when the division is exact, else None.

        The remainder is one dict updated in place, with its exponents also
        grouped by total degree (each degree summed once), so the graded-lex
        leading term is the largest exponent of the top degree group.
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
        lead_e = _grlex_first(dterms)
        # Graded lex is multiplicative, so an exact quotient's leading and
        # trailing terms times the divisor's give those of self.
        if min(map(sub, _grlex_first(terms), lead_e)) < 0:
            return None
        if min(map(sub, _grlex_last(terms), _grlex_last(dterms))) < 0:
            return None
        lead_c = dterms[lead_e]
        lead_d = sum(lead_e)
        rest = [(e, c, sum(e)) for e, c in dterms.items() if e != lead_e]
        rem = dict(terms)
        # the remainder's exponents by total degree, each summed once
        by_deg: defaultdict[int, set] = defaultdict(set)
        for e in terms:
            by_deg[sum(e)].add(e)
        deg = max(by_deg)
        quotient = {}
        while rem:
            bucket = by_deg.get(deg)
            if not bucket:
                deg -= 1
                continue
            e = max(bucket)
            bucket.remove(e)
            qe = tuple(map(sub, e, lead_e))
            if min(qe) < 0:
                return None
            qc = _div(rem.pop(e), lead_c)
            quotient[qe] = qc
            qd = deg - lead_d
            for de, dc, dd in rest:
                t = tuple(map(add, qe, de))
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

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly: all zeros)."""
        if self.is_zero():
            return (0,) * self.ctx.nvars
        return tuple(map(min, zip(*self.terms)))

    def shift_down(self, content: tuple[int, ...]) -> "Polynomial":
        return Polynomial._of(
            self.ctx, {tuple(map(sub, e, content)): c for e, c in self.terms.items()}
        )

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
        for e, c in self.sorted_terms():
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
            raise ZeroDivisionError("rational function with zero denominator")
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
            raise ZeroDivisionError("division by zero rational function")
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
        den = self.den.subs_rf(bindings)
        if den.is_zero():
            names = ", ".join(sorted(bindings))
            raise SubstitutionError(
                f"denominator {self.den.render()} vanishes identically under bindings {{{names}}}"
            )
        return num / den

    def eval(self, point: Mapping[str, Coefficient]) -> "int | Fraction":
        return self.eval_at(self.ctx.point_values(point))

    def eval_at(self, vals: Sequence) -> "int | Fraction":
        """Exact value at values from :meth:`Context.point_values`."""
        d = self.den.eval_at(vals)
        if d == 0:
            raise ZeroDivisionError(f"denominator {self.den.render()} vanishes at sample point")
        return _div(self.num.eval_at(vals), d)

    # -- epsilon structure ------------------------------------------------------

    def eps_expansion(self) -> tuple[int, "RationalFunction"]:
        """(valuation k, leading coefficient) of the expansion in the small parameter.

        Requires the denominator to have nonzero epsilon-order-zero part after
        removing common eps powers; holds for every quotient formed from
        eps-free denominators.
        """
        if self.is_zero():
            return (0, self)
        num_parts = self.num.eps_coefficients()
        den_parts = self.den.eps_coefficients()
        vn = min(num_parts)
        vd = min(den_parts)
        lead = RationalFunction(num_parts[vn], den_parts[vd])
        return (vn - vd, lead)

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
    if any(cd):
        common = tuple(map(min, num.monomial_content(), cd))
        if any(common):
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
    """
    one = ctx.one()
    bound = []  # (index in p's context, image numerator)
    dens: list[Polynomial] = []  # the distinct image denominators other than 1
    groups: list[list[int]] = []  # per denominator, the indices in p's context over it
    for name, v in images.items():
        if isinstance(v, RationalFunction):
            num, den = v.num, v.den
        else:
            num, den = (v if isinstance(v, Polynomial) else ctx.const(v)), one
        if num.ctx is not ctx:
            raise SymbolicError(f"image of {name} lives in another context")
        i = p.ctx.index[name]
        bound.append((i, num))
        if not den.is_one():
            if den not in dens:
                dens.append(den)
                groups.append([])
            groups[dens.index(den)].append(i)
    skip = {i for i, _ in bound}
    for i, sym in enumerate(p.ctx.symbols):
        if i not in skip and sym.name not in ctx.index:
            raise SymbolicError(f"symbol {sym.name} missing from the target context")
    # for each symbol of ctx, the index of its kept namesake in p (-1: none)
    src = [p.ctx.index.get(sym.name, -1) for sym in ctx.symbols]
    src = [-1 if i in skip else i for i in src]
    top = [max((sum(e[i] for i in idx) for e in p.terms), default=0) for idx in groups]
    powers: dict = {}

    def power(base: Polynomial, k: int) -> Polynomial:
        if k == 1:
            return base
        key = (id(base), k)
        if key not in powers:
            powers[key] = base ** k
        return powers[key]

    zero_e = (0,) * ctx.nvars
    out: dict = {}
    for e, c in p.terms.items():
        kept = tuple(map((e + (0,)).__getitem__, src))
        factors = [power(num, e[i]) for i, num in bound if e[i]]
        for d, idx, m in zip(dens, groups, top):
            k = m - sum(e[i] for i in idx)
            if k:
                factors.append(power(d, k))
        for fe, fc in reduce(mul, factors).terms.items() if factors else ((zero_e, 1),):
            t = tuple(map(add, kept, fe))
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
    the context.  Produces a RationalFunction.
    """

    def __init__(self, ctx: Context, text: str):
        self.ctx = ctx
        self.tokens = self._lex(text)
        self.pos = 0

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
        rf = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return rf

    def expr(self) -> RationalFunction:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        total = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term(self) -> RationalFunction:
        total = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            total = total * rhs if op == "*" else total / rhs
        return total

    def factor(self) -> RationalFunction:
        if self.peek() == "-":
            self.take()
            return -self.factor()
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
            return base ** (-n if neg else n)
        return base

    def atom(self) -> RationalFunction:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if tok.isdigit():
            return RationalFunction.of(self.ctx.const(int(tok)))
        if tok in self.ctx.index:
            return RationalFunction.of(self.ctx.sym(tok))
        raise ValueError(f"unknown symbol {tok!r}")
