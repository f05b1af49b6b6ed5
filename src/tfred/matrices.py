"""Matrices over the rational-function field, with fraction-free elimination.

An ``Elimination`` of [M | B] splits M into independent blocks (rows and
columns joined by nonzero entries), orders each block's rows and columns,
clears per-row denominators and runs one Bareiss elimination over the
polynomial ring.  Its rank decides what the one elimination serves: a linear
solve, or the rank factorization of a singular matrix with a particular
solution over its columns.  Back-substitution is fraction-free as well:
every solution entry of a block is one polynomial over one common
denominator, the block's last pivot d, so expression swell stays controlled,
every division is exact and no rational-function arithmetic runs in the
back-substitution.  ``solve_blocks`` hands a solution on in that form, as
(unknown columns, d, numerator rows) per block, and ``minus_product`` forms
C - A X from it with one rational function per entry and block.  On top of
that sits the other structural factorization the reduction machinery needs:
writing a vector field that vanishes on a coordinate subspace as a matrix
times the vanishing variables.  Constant matrices take the integer kernel
beside ``_bareiss``: rows cleared to integers (``cleared_row``), then one
fraction-free Gauss-Jordan elimination on ints (``integer_gauss_jordan``).
Beside both sits the one characteristic-polynomial kernel, division-free
Berkowitz (``berkowitz``) over ints or polynomials: ``char_poly`` runs it on
a matrix of rational functions cleared to one polynomial matrix, and the
certificate on integer-cleared sample matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Mapping, Sequence

from .rational import (
    Context,
    Point,
    Polynomial,
    RationalFunction,
    SymbolicError,
    _div,
    cancel_common_factors,
    cleared_row,
)


class ConsistencyError(SymbolicError):
    """A vector expected to vanish on a coordinate subspace does not."""


class EliminationError(SymbolicError):
    """An exact pivot division or a rank factorization G R = M failed: a fault of tfred."""


class NoSolution:
    """Marker result for a linear system without a (unique) solution.

    ``row`` is the original index of an inconsistent row and ``col`` the first
    inconsistent right-hand column; both are None when the system is
    consistent but its coefficient columns are dependent.
    """

    def __init__(self, row: "int | None", col: "int | None" = None):
        self.row = row
        self.col = col

    def __repr__(self):
        return f"NoSolution(row={self.row}, col={self.col})"


class RFMatrix:
    """Rectangular matrix of rational functions over one context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: Context, entries: Sequence[Sequence]):
        self.ctx = ctx
        self.entries: list[list[RationalFunction]] = [
            [RationalFunction.coerce(ctx, v) for v in row] for row in entries
        ]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(ctx: Context, n: int) -> "RFMatrix":
        one = RationalFunction.of(ctx.one())
        zero = RationalFunction.of(ctx.zero())
        return RFMatrix(ctx, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def column(ctx: Context, vec: Sequence) -> "RFMatrix":
        return RFMatrix(ctx, [[v] for v in vec])

    def __getitem__(self, ij: tuple[int, int]) -> RationalFunction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> list[RationalFunction]:
        return list(self.entries[i])

    def col(self, j: int) -> list[RationalFunction]:
        return [self.entries[i][j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.entries for v in row)

    # -- arithmetic ------------------------------------------------------------

    def __sub__(self, other: "RFMatrix") -> "RFMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RFMatrix(
            self.ctx,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __matmul__(self, other: "RFMatrix") -> "RFMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RationalFunction.of(self.ctx.zero())
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RFMatrix(self.ctx, out)

    def mul_vector(self, vec: Sequence) -> list[RationalFunction]:
        col = RFMatrix.column(self.ctx, vec)
        return (self @ col).col(0)

    def __eq__(self, other):
        if not isinstance(other, RFMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    # -- evaluation --------------------------------------------------------------

    def eval(self, point: Mapping[str, object]) -> list[list[Fraction]]:
        return self.eval_at(self.ctx.point_values(point))  # type: ignore[arg-type]

    def eval_at(self, point: Point) -> list[list[Fraction]]:
        """Exact entries at a point from :meth:`Context.point_values`; a zero entry is 0, unevaluated."""
        return [[v.eval_at(point) if v.num.terms else 0 for v in row] for row in self.entries]

    def __repr__(self):
        return f"RFMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Integer elimination of constant matrices
# ---------------------------------------------------------------------------


def integer_gauss_jordan(a: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place; returns the pivot columns.

    Pivots are searched in the first ``ncols`` columns; entries to their right
    (an augmented column) are carried along.  Afterwards row k is zero in
    every pivot column but pivots[k], and the later rows are zero in the first
    ``ncols`` columns.  Pivot columns do not depend on the row operations, so
    each pivot row is the sparsest candidate.  A row with entry f at pivot p
    becomes (p*row - f*pivot row) / gcd(p, f), updated on the pivot row's
    nonzero entries only, then divided by its content.
    """
    rows = len(a)
    width = len(a[0]) if rows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = max((i for i in range(r, rows) if a[i][c]), key=lambda i: a[i].count(0), default=None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        nonzero = [j for j in range(c, width) if prow[j]]
        for i in range(rows):
            f = a[i][c]
            if not f or i == r:
                continue
            g = gcd(p, f)
            s, t = p // g, f // g
            row = a[i] if s == 1 else [s * v for v in a[i]]
            for j in nonzero:
                row[j] -= t * prow[j]
            g = gcd(*row)
            a[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
    return pivots


def fraction_rank(m: list[list[int | Fraction]]) -> int:
    """Rank of an exact numeric matrix."""
    return len(integer_gauss_jordan([cleared_row(row)[0] for row in m], len(m[0]) if m else 0))


def fraction_nullspace(m: list[list[int | Fraction]]) -> list[list[int | Fraction]]:
    """Basis of the right nullspace: one vector per free column, set to 1, the others 0."""
    cols = len(m[0]) if m else 0
    a = [cleared_row(row)[0] for row in m]
    pivots = integer_gauss_jordan(a, cols)
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        vec = [0] * cols
        vec[fc] = 1
        for row, pc in zip(a, pivots):
            vec[pc] = _div(-row[fc], row[pc])
        basis.append(vec)
    return basis


def fraction_solve(m: list[list[int | Fraction]], b: list[int | Fraction]) -> list[int | Fraction] | None:
    """One solution of m x = b, free variables set to 0; None when there is none."""
    cols = len(m[0]) if m else 0
    a = [cleared_row([*row, bi])[0] for row, bi in zip(m, b)]
    pivots = integer_gauss_jordan(a, cols)
    if any(row[cols] for row in a[len(pivots):]):
        return None
    x: list[int | Fraction] = [0] * cols
    for row, pc in zip(a, pivots):
        x[pc] = _div(row[cols], row[pc])
    return x


# ---------------------------------------------------------------------------
# Fraction-free elimination over the polynomial ring
# ---------------------------------------------------------------------------


def _clear_row_denominators(ctx: Context, row: list[RationalFunction]) -> tuple[list[Polynomial], Polynomial]:
    """Scale a row by a common multiple of its denominators.

    The multiplier is the product of the row's denominators in order, where
    a denominator that already divides the product so far is skipped.
    Returns the polynomial row and the multiplier.
    """
    mult = ctx.one()
    for v in row:
        if not v.den.is_one() and mult.exact_divide(v.den) is None:
            mult = mult * v.den
    out = []
    for v in row:
        q = mult.exact_divide(v.den)
        # exact by construction
        assert q is not None
        out.append(v.num * q)
    return out, mult


def _bareiss(
    rows: list[list[Polynomial]], ncols: int
) -> tuple[list[list[Polynomial]], list[int], list[int], int]:
    """Fraction-free forward elimination.

    Returns (echelon rows, pivot column list, row permutation applied, sign of
    that permutation), where echelon rows keep polynomial entries and each
    elimination step divides by the previous pivot exactly (Bareiss).  Rows
    below the pivot block are zero in the first ``ncols`` columns.
    """
    a = [row[:] for row in rows]
    nrows = len(a)
    perm = list(range(nrows))
    pivots: list[int] = []
    sign = 1
    prev = None  # previous pivot polynomial
    r = 0
    for c in range(ncols):
        piv = None
        best = None
        for rr in range(r, nrows):
            if not a[rr][c].is_zero():
                size = len(a[rr][c].terms)
                if best is None or size < best:
                    best = size
                    piv = rr
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            perm[r], perm[piv] = perm[piv], perm[r]
            sign = -sign
        pv = a[r][c]
        for rr in range(r + 1, nrows):
            if all(a[rr][j].is_zero() for j in range(c, len(a[rr]))):
                continue
            updated = [
                pv * a[rr][cc] - a[rr][c] * a[r][cc] for cc in range(c, len(a[rr]))
            ]
            if prev is not None:
                # Bareiss step: by Sylvester's identity the previous pivot
                # divides every updated entry exactly
                divided = []
                for u in updated:
                    q = u.exact_divide(prev)
                    if q is None:
                        raise EliminationError("Bareiss step: the previous pivot does not divide exactly")
                    divided.append(q)
                updated = divided
            for off, val in enumerate(updated):
                a[rr][c + off] = val
        prev = pv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots, perm, sign


def _blocks(M: RFMatrix) -> list[tuple[list[int], list[int]]]:
    """The independent blocks of M: rows and columns joined by nonzero entries.

    Union-find over rows and columns; each block is (row indices, column
    indices), in ascending order, and blocks come in order of their smallest
    row (or, for an all-zero column, column).  An all-zero row is a block
    without columns, an all-zero column one without rows.
    """
    m = M.rows
    parent = list(range(m + M.cols))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for i, row in enumerate(M.entries):
        for j, v in enumerate(row):
            if not v.is_zero():
                a, b = find(i), find(m + j)
                if a != b:
                    parent[max(a, b)] = min(a, b)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for k in range(len(parent)):
        rows, cols = groups.setdefault(find(k), ([], []))
        if k < m:
            rows.append(k)
        else:
            cols.append(k - m)
    return list(groups.values())


def _fraction_free_back_substitute(
    ech: list[list[Polynomial]], pivots: list[int], ncols: int
) -> tuple[Polynomial, list[list[Polynomial]]]:
    """Solve a Bareiss echelon form over one common denominator.

    ``ech`` holds fraction-free echelon rows of [A | B] with A's ``ncols``
    columns first; ``pivots`` are the pivot columns of its leading rows.  With
    free variables at zero, the last pivot d is the determinant of the pivot
    block, so y = d x is polynomial and each step divides by its pivot exactly
    (Nakos, Turner and Williams 1997).  Returns d and, per pivot row, the
    numerators y over all right-hand columns.  A pivot that does not divide
    exactly means ``ech`` was no Bareiss echelon form and raises
    EliminationError.
    """
    r = len(pivots)
    d = ech[r - 1][pivots[r - 1]]
    Y = [None] * (r - 1) + [ech[r - 1][ncols:]]
    for pr in range(r - 2, -1, -1):
        row = ech[pr]
        later = [(row[pivots[k]], Y[k]) for k in range(pr + 1, r) if not row[pivots[k]].is_zero()]
        ys = []
        for j in range(len(row) - ncols):
            s = d * row[ncols + j]
            for a, y in later:
                if not y[j].is_zero():
                    s = s - a * y[j]
            q = s.exact_divide(row[pivots[pr]])
            if q is None:
                raise EliminationError(
                    f"pivot of echelon row {pr} does not divide its back-substitution numerator exactly"
                )
            ys.append(q)
        Y[pr] = ys
    return d, Y


def _divide_out(
    f: Polynomial, d: Polynomial, Y: list[list[Polynomial]]
) -> tuple[Polynomial, list[list[Polynomial]]]:
    """d and every entry of Y divided by f, as often as f divides all of them."""
    while True:
        q = d.exact_divide(f)
        if q is None:
            return d, Y
        rows = []
        for y in Y:
            row = [v.exact_divide(f) for v in y]
            if None in row:
                return d, Y
            rows.append(row)
        d, Y = q, rows


# (unknown columns, last pivot d, numerator rows) of one block of a solve
SolvedBlock = tuple[list[int], Polynomial, list[list[Polynomial]]]


class Elimination:
    """One ``_bareiss`` of [M | B] per independent block of M (``_blocks``).

    Each block clears the denominators of its rows of [M | B] once.  By
    default its rows and columns go sparsest first (ties by index);
    ``right_first`` keeps the rows in index order and takes the columns in
    descending index order, so that the pivot columns are the columns
    independent of those to their right.  An all-zero row only checks its
    right-hand entries, and an all-zero column is a free variable.  ``bad``
    lists each nonzero right-hand entry left on a row below a block's pivots
    as (right-hand column, original row); ``free`` says whether some column
    of M is no pivot column.
    """

    def __init__(self, M: RFMatrix, B: RFMatrix, right_first: bool = False):
        if B.rows != M.rows:
            raise ValueError("right-hand side length mismatch")
        self.M = M
        # (columns of M in elimination order, echelon rows, pivot positions)
        self.blocks: list[tuple[list[int], list[list[Polynomial]], list[int]]] = []
        self.bad: list[tuple[int, int]] = []
        self.free = False
        if not right_first:
            nnz_row = [sum(not v.is_zero() for v in row) for row in M.entries]
            nnz_col = [sum(not row[j].is_zero() for row in M.entries) for j in range(M.cols)]
        for rows, cols in _blocks(M):
            if not cols:
                self.bad += [(j, i) for i in rows for j, v in enumerate(B.entries[i]) if not v.is_zero()]
                continue
            if not rows:
                self.free = True
                continue
            if right_first:
                cols.reverse()
            else:
                rows.sort(key=lambda i: (nnz_row[i], i))
                cols.sort(key=lambda j: (nnz_col[j], j))
            w = len(cols)
            aug = [_clear_row_denominators(M.ctx, [M.entries[i][j] for j in cols] + B.entries[i])[0] for i in rows]
            ech, pivots, perm, _ = _bareiss(aug, w)
            self.bad += [
                (j, rows[perm[rr]])
                for rr in range(len(pivots), len(ech))
                for j, v in enumerate(ech[rr][w:])
                if not v.is_zero()
            ]
            self.free = self.free or len(pivots) < w
            self.blocks.append((cols, ech, pivots))

    @property
    def rank(self) -> int:
        return sum(len(pivots) for _, _, pivots in self.blocks)

    def _no_solution(self) -> "NoSolution | None":
        """NoSolution at the first inconsistent right-hand column and its smallest row, if any."""
        if not self.bad:
            return None
        col, row = min(self.bad)
        return NoSolution(row, col)

    def solution(self, unique: bool = True) -> "list[SolvedBlock] | NoSolution":
        """X with M X = B, free variables at zero, as one solved block per block of M.

        A solved block is (unknown columns, last pivot d, numerator rows): the
        unknown in column ``unknowns[k]`` of M is ``Y[k][j] / d`` in column j
        of B, from one fraction-free back-substitution; every other unknown is
        zero.  NoSolution when the system is inconsistent, or when ``unique``
        and a column of M is free.
        """
        failed = self._no_solution()
        if failed is not None:
            return failed
        if unique and self.free:
            return NoSolution(None)
        out = []
        for cols, ech, pivots in self.blocks:
            d, Y = _fraction_free_back_substitute(ech, pivots, len(cols))
            # clearing a row of M multiplied d and every numerator by the
            # row's denominators; those with more than one term are divided
            # out here, the monomials by each entry's reduction later
            dens = {self.M.entries[i][c].den: None for i in range(self.M.rows) for c in cols}
            for f in dens:
                if len(f.terms) > 1:
                    d, Y = _divide_out(f, d, Y)
            out.append(([cols[pc] for pc in pivots], d, Y))
        return out

    def factor(self) -> "tuple[int, RFMatrix, RFMatrix, list[RationalFunction]] | NoSolution":
        """``rank_and_factor``'s (rank, G, R, w) of M and B's one column, or NoSolution.

        Needs ``right_first``: G's columns are the pivot columns.  Each block
        back-substitutes with its pivot columns first and the other columns
        and b as right-hand sides.
        """
        ctx, M = self.M.ctx, self.M
        if M.is_zero():
            raise ValueError("a zero matrix has no rank factorization")
        failed = self._no_solution()
        if failed is not None:
            return failed
        zero, one = RationalFunction.of(ctx.zero()), RationalFunction.of(ctx.one())
        R_cols = {}  # column of M -> its column of R, by column of G
        w_at = {}  # column of G -> its entry of w
        for cols, ech, pivots in self.blocks:
            r, n = len(pivots), len(cols)
            others = [c for c in range(n) if c not in pivots]
            order = pivots + others + [n]
            d, Y = _fraction_free_back_substitute([[row[c] for c in order] for row in ech[:r]], list(range(r)), r)
            for k, pc in enumerate(pivots):
                w_at[cols[pc]] = RationalFunction(Y[k][-1], d)
            for m, c in enumerate(others):
                R_cols[cols[c]] = {cols[pc]: RationalFunction(Y[k][m], d) for k, pc in enumerate(pivots)}
        selected = sorted(w_at)
        G = RFMatrix(ctx, [[M.entries[i][j] for j in selected] for i in range(M.rows)])
        R = RFMatrix(ctx, [
            [R_cols[j].get(g, zero) if j in R_cols else one if j == g else zero for j in range(M.cols)]
            for g in selected
        ])
        if not (G @ R - M).is_zero():
            raise EliminationError("the rank factorization G R does not reproduce the matrix")
        return len(selected), G, R, [w_at.get(j, zero) for j in range(M.cols)]


def _assemble(M: RFMatrix, B: RFMatrix, solved: "list[SolvedBlock] | NoSolution") -> "RFMatrix | NoSolution":
    """X as a matrix of rational functions, one entry ``Y[k][j] / d`` at a time."""
    if isinstance(solved, NoSolution):
        return solved
    zero = RationalFunction.of(M.ctx.zero())
    X = [[zero] * B.cols for _ in range(M.cols)]
    for unknowns, d, Y in solved:
        for c, y in zip(unknowns, Y):
            X[c] = [RationalFunction(v, d) for v in y]
    return RFMatrix(M.ctx, X)


def linear_solve(M: RFMatrix, b: Sequence) -> "list[RationalFunction] | NoSolution":
    """One solution of M x = b over the rational-function field.

    On an inconsistent system returns NoSolution carrying the (original) index
    of the offending row.  Underdetermined systems get free variables set to
    zero.
    """
    B = RFMatrix.column(M.ctx, b)
    x = _assemble(M, B, Elimination(M, B).solution(unique=False))
    return x if isinstance(x, NoSolution) else x.col(0)


def solve_blocks(M: RFMatrix, B: RFMatrix) -> "list[SolvedBlock] | NoSolution":
    """The unique X with M X = B as solved blocks, one common denominator per block.

    One ``Elimination`` of [M | B], rows and columns sparsest first, then one
    fraction-free back-substitution per block over its last pivot d (see
    ``Elimination.solution``).  NoSolution when the system is inconsistent,
    naming the first inconsistent right-hand column over all blocks and the
    smallest original index of an offending row in it, and NoSolution(None)
    when the columns of M are dependent (for square M: when M is singular).
    """
    return Elimination(M, B).solution()


def solve_matrix(M: RFMatrix, B: RFMatrix) -> "RFMatrix | NoSolution":
    """The unique X with M X = B, from one elimination for all columns of B.

    NoSolution when the system is inconsistent or the columns of M are
    dependent (for square M: when M is singular).
    """
    return _assemble(M, B, solve_blocks(M, B))


def minus_product(
    C: Sequence[Sequence[RationalFunction]],
    A: RFMatrix,
    solved: Sequence[SolvedBlock],
    rows: "Sequence[int] | None" = None,
) -> list[list[RationalFunction]]:
    """C - A X for the X that ``solve_blocks`` gives as solved blocks.

    With ``rows``, only those rows of C - A X are formed, in that order.
    Each is the row the whole product gives: the candidate factors below
    come from every row of A.

    Each row of A meets each block (unknowns, d, Y) once.  With polynomial
    entries a_k on the block's unknowns, every column j takes the single
    rational function (sum_k a_k Y[k][j]) / d, summed in polynomial
    arithmetic in column order, the order a product of matrices sums in.
    Its reduction cancels the shared monomial content, and a d that divides
    the whole sum; the other cancellations a product a_k * (Y[k][j] / d)
    would make are taken from the entries of A and Y that divide d:
    - a row whose one entry a on the block divides d gives Y[k][j] / (d / a);
    - every entry with more than one term on the block's columns that
      divides d is divided out of numerator and denominator as often as
      both allow;
    - an entry Y[k][j] that divides d makes Y[k][j] / d the reciprocal of a
      polynomial, which no sum over d shows: the columns where one meets the
      row are summed term by term as rational functions, as are rows with
      a rational entry.
    Each quotient of d by an entry is computed once per block.
    """
    ctx = A.ctx
    one = ctx.one()
    if rows is None:
        rows = range(len(C))
    out = [list(C[i]) for i in rows]
    for unknowns, d, Y in solved:
        quotients: dict[Polynomial, "Polynomial | None"] = {}

        def divide(a: Polynomial) -> "Polynomial | None":
            if a not in quotients:
                quotients[a] = d.exact_divide(a)
            return quotients[a]

        order = sorted(range(len(unknowns)), key=unknowns.__getitem__)
        # the entries on the block's columns with more than one term, up to
        # sign, that divide d
        multi: dict[Polynomial, None] = {}
        for row in A.entries:
            for c in unknowns:
                a = row[c]
                if a.den.is_one() and len(a.num.terms) > 1:
                    multi[a.num if a.num.leading()[1] > 0 else -a.num] = None
        factors = [a for a in multi if divide(a) is not None]
        reciprocal = {
            (k, j) for k, y in enumerate(Y) for j, v in enumerate(y) if not v.is_zero() and d.exact_divide(v) is not None
        }
        for i, orow in zip(rows, out):
            arow = A.entries[i]
            terms = [(k, arow[unknowns[k]]) for k in order if not arow[unknowns[k]].is_zero()]
            if not terms:
                continue
            rational = any(not a.den.is_one() for _, a in terms)
            coeffs, den = [a.num for _, a in terms], d
            if len(coeffs) == 1 and not coeffs[0].is_constant() and divide(coeffs[0]) is not None:
                coeffs, den = [one], divide(coeffs[0])
            for j, c in enumerate(orow):
                if rational or any((k, j) in reciprocal for k, _ in terms):
                    acc = RationalFunction.of(ctx.zero())
                    for k, a in terms:
                        if not Y[k][j].is_zero():
                            acc = acc + a * RationalFunction(Y[k][j], d)
                    if not acc.is_zero():
                        orow[j] = _subtract(c, acc)
                    continue
                s = ctx.zero()
                for a, (k, _) in zip(coeffs, terms):
                    if not Y[k][j].is_zero():
                        s = s + (Y[k][j] if a is one else a * Y[k][j])
                if s.is_zero():
                    continue
                t = RationalFunction(s, den)
                if factors:
                    num, rest = cancel_common_factors((t.num, t.den), factors)
                    if num is not t.num:
                        t = RationalFunction(num, rest)
                orow[j] = _subtract(c, t)
    return out


def _subtract(c: RationalFunction, t: RationalFunction) -> RationalFunction:
    """c - t as the sum c + (-t) forms it, term order included, without forming -t."""
    if c.den.is_one():
        return RationalFunction(c.num * t.den - t.num, t.den)
    return c - t


def invert(M: RFMatrix) -> RFMatrix:
    """Inverse of a square RF matrix; raises if singular."""
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    X = solve_matrix(M, RFMatrix.identity(M.ctx, M.rows))
    if isinstance(X, NoSolution):
        raise SymbolicError("matrix is singular over the rational-function field")
    return X


def determinant(M: RFMatrix) -> RationalFunction:
    """Exact determinant via fraction-free elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return RationalFunction.of(M.ctx.one())
    rows = []
    scale = M.ctx.one()
    for i in range(n):
        cleared, mult = _clear_row_denominators(M.ctx, M.row(i))
        scale = scale * mult
        rows.append(cleared)
    ech, pivots, _, sign = _bareiss(rows, n)
    if len(pivots) < n:
        return RationalFunction.of(M.ctx.zero())
    # Bareiss: last pivot equals the determinant of the cleared matrix
    return RationalFunction.of(ech[n - 1][n - 1]) * sign / RationalFunction.of(scale)


# ---------------------------------------------------------------------------
# Structural factorizations
# ---------------------------------------------------------------------------


def hadamard_factor(v: Sequence[Polynomial], yvars: Sequence[str]) -> RFMatrix:
    """Write a vector vanishing at y=0 as G*y exactly, G polynomial.

    Every entry of v must vanish identically when all of yvars are set to 0;
    otherwise ConsistencyError reports the first offending entry and its
    residual.  For a monomial containing several yvars the divisor is the yvar
    of lowest index, which makes the output deterministic.
    """
    if not v:
        raise ValueError("empty vector")
    ctx = v[0].ctx
    ynames = list(yvars)
    yidx = [ctx.index[n] for n in ynames]
    for i, entry in enumerate(v):
        residual = entry.by_degree(ynames)[0]
        if residual:
            raise ConsistencyError(
                f"entry {i} does not vanish at {{{', '.join(ynames)}}} = 0; residual: {residual.render()}"
            )
    rows = []
    for entry in v:
        cols = [dict() for _ in ynames]  # type: list[dict]
        for e, c in entry.monomials().items():
            for pos, gi in enumerate(yidx):
                if e[gi] > 0:
                    ne = list(e)
                    ne[gi] -= 1
                    cols[pos][tuple(ne)] = cols[pos].get(tuple(ne), 0) + c
                    break
            else:
                raise ConsistencyError(
                    f"monomial free of {{{', '.join(ynames)}}} survived the vanishing check"
                )
        rows.append([Polynomial(ctx, col) for col in cols])
    return RFMatrix(ctx, rows)


def rank_and_factor(
    M: RFMatrix, b: Sequence
) -> "tuple[int, RFMatrix, RFMatrix, list[RationalFunction]] | NoSolution":
    """Rank factorization M = G * R and a solution w of M w = b.

    G's columns are the columns of M independent of the columns to their
    right, so R carries an identity block on them; w is zero off them.  Each
    independent block of M (``_blocks``) gets one ``_bareiss`` of [its
    columns in descending index order | b], whose pivot columns are exactly
    G's columns, and one fraction-free back-substitution with the other
    columns and b as right-hand sides (``Elimination.factor``).  Returns
    (rank, G, R, w), or NoSolution naming the smallest row where b leaves the
    span of M's columns.  A zero M raises ValueError, a product G R other
    than M raises EliminationError.
    """
    if len(b) != M.rows:
        raise ValueError("right-hand side length mismatch")
    return Elimination(M, RFMatrix.column(M.ctx, b), right_first=True).factor()


def berkowitz(b: list[list]) -> list:
    """Characteristic polynomial [1, p1, ..., pn] of a square matrix over ints or Polynomials, division-free.

    Berkowitz (1984): bordering the leading block B_k with column c, row r
    and corner a multiplies the coefficient vector of its characteristic
    polynomial by the lower triangular Toeplitz matrix with first column
    (1, -a, -r c, -r B_k c, ..., -r B_k^(k-1) c).  O(n^4) ring products, less
    those with a zero entry of b (a falsy one), which are skipped.
    """
    n = len(b)
    if not n:
        return [1]
    a = b[0][0]
    p = [1, -a]
    # cols[i], vals[i]: the nonzero entries of row i of the leading block B_k
    cols = [[0] if a else []]
    vals = [[a] if a else []]
    for k in range(1, n):
        bk = b[k]
        a = bk[k]
        rc = [j for j in range(k) if bk[j]]
        c = [b[i][k] for i in range(k)]
        if rc and any(c):
            rv = [bk[j] for j in rc]
            q = [1, -a]
            v = c
            for t in range(k):
                q.append(-sum(map(mul, rv, map(v.__getitem__, rc))))
                if t < k - 1:
                    get = v.__getitem__
                    v = [sum(map(mul, vi, map(get, ci))) for ci, vi in zip(cols, vals)]
            rq = q[::-1]
            p = [sum(map(mul, rq[k + 1 - i:], p)) for i in range(k + 2)]
        else:
            # r B_k^t c = 0 for every t: p times (x - a)
            p = [x - a * y for x, y in zip(p + [0], [0] + p)]
        if k + 1 < n:
            for i in range(k):
                if c[i]:
                    cols[i].append(k)
                    vals[i].append(c[i])
            if a:
                rc.append(k)
            cols.append(rc)
            vals.append([bk[j] for j in rc])
    return p


def char_poly(M: RFMatrix) -> list[RationalFunction]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    Coefficient k multiplies lambda^(n-k).  M is cleared to one polynomial
    matrix B = d*M, d the multiplier that ``_clear_row_denominators`` gives
    M's entries taken as one row; ``berkowitz``
    gives B's coefficients b_k = d^k c_k, and c_k is b_k / d^k with the entry
    denominators that divide both cancelled.
    """
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n, ctx = M.rows, M.ctx
    entries = [v for row in M.entries for v in row]
    flat, d = _clear_row_denominators(ctx, entries)
    coeffs = berkowitz([flat[i * n:i * n + n] for i in range(n)])
    dens = list({v.den: None for v in entries})
    return [RationalFunction.of(ctx.one())] + [
        RationalFunction(*cancel_common_factors((b, d**k), dens)) for k, b in enumerate(coeffs[1:], 1)
    ]


def jacobian(v: Sequence[Polynomial | RationalFunction], names: Sequence[str]) -> RFMatrix:
    """Matrix of partial derivatives of a vector w.r.t. the given symbols."""
    if not v:
        raise ValueError("empty vector")
    ctx = v[0].ctx
    rows = []
    for entry in v:
        rf = RationalFunction.coerce(ctx, entry)
        rows.append([rf.diff(n) for n in names])
    return RFMatrix(ctx, rows)
