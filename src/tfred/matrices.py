"""Matrices over the rational-function field, with fraction-free elimination.

A linear solve splits the matrix into independent blocks (rows and columns
joined by nonzero entries), orders each block's rows and columns sparsest
first, clears per-row denominators and runs one Bareiss elimination over the
polynomial ring.  Back-substitution is fraction-free as well: every solution
entry of a block is one polynomial over one common denominator, the block's
last pivot, so expression swell stays controlled, every division is exact and
no rational-function arithmetic runs in the back-substitution.  On top of
that sit the structural factorizations the reduction machinery needs: writing
a vector field that vanishes on a coordinate subspace as a matrix times the
vanishing variables, and rank factorization of a singular matrix, with a
particular solution over its columns, from one elimination per block.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .rational import (
    Context,
    Polynomial,
    RationalFunction,
    SymbolicError,
    _div,
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
        one = ctx.one()
        zero = ctx.zero()
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

    def __add__(self, other: "RFMatrix") -> "RFMatrix":
        self._check_shape(other, same=True)
        return RFMatrix(
            self.ctx,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "RFMatrix") -> "RFMatrix":
        self._check_shape(other, same=True)
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

    def map(self, fn: Callable[[RationalFunction], RationalFunction]) -> "RFMatrix":
        return RFMatrix(self.ctx, [[fn(v) for v in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, RFMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2)
        )

    def _check_shape(self, other: "RFMatrix", same: bool):
        if same and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    # -- evaluation --------------------------------------------------------------

    def eval(self, point: Mapping[str, object]) -> list[list[Fraction]]:
        return self.eval_at(self.ctx.point_values(point))  # type: ignore[arg-type]

    def eval_at(self, vals: Sequence) -> list[list[Fraction]]:
        """Exact entries at values from :meth:`Context.point_values`."""
        return [[v.eval_at(vals) for v in row] for row in self.entries]

    def __repr__(self):
        return f"RFMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Exact numeric helpers (Fraction matrices)
# ---------------------------------------------------------------------------


def fraction_echelon(a: list[list[Fraction]], ncols: int) -> tuple[list[int], int]:
    """Forward Gaussian elimination of a Fraction matrix, in place.

    Pivots are searched in the first ``ncols`` columns; entries to their right
    (an augmented column) are carried along.  Returns the pivot column of each
    echelon row, in row order, and the sign of the row permutation applied.
    """
    rows = len(a)
    width = len(a[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((rr for rr in range(r, rows) if a[rr][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pv = a[r][c]
        for rr in range(r + 1, rows):
            if a[rr][c] != 0:
                f = _div(a[rr][c], pv)
                for cc in range(c, width):
                    a[rr][cc] -= f * a[r][cc]
        pivots.append(c)
    return pivots, sign


def _back_substitute(a: list[list[Fraction]], pivots: list[int], x: list[Fraction]) -> list[Fraction]:
    """Fill the pivot entries of x so that every echelon row has a . x = 0.

    Non-pivot entries of x are kept as given; the result is unique.
    """
    for pr in range(len(pivots) - 1, -1, -1):
        pc = pivots[pr]
        s = 0
        for cc in range(pc + 1, len(x)):
            s -= a[pr][cc] * x[cc]
        x[pc] = _div(s, a[pr][pc])
    return x


def fraction_rank(m: list[list[Fraction]]) -> int:
    """Rank of a Fraction matrix by plain Gaussian elimination."""
    return len(fraction_echelon([row[:] for row in m], len(m[0]) if m else 0)[0])


def fraction_nullspace(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace: one vector per free column, set to 1."""
    cols = len(m[0]) if m else 0
    a = [row[:] for row in m]
    pivots, _ = fraction_echelon(a, cols)
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            vec = [0] * cols
            vec[fc] = 1
            basis.append(_back_substitute(a, pivots, vec))
    return basis


def fraction_solve(m: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """One solution of m x = b over Fractions, free variables set to 0."""
    cols = len(m[0]) if m else 0
    a = [m[i][:] + [b[i]] for i in range(len(m))]
    pivots, _ = fraction_echelon(a, cols)
    if any(row[cols] != 0 for row in a[len(pivots):]):
        return None
    # [m | b] . (x, -1) = 0
    x = _back_substitute(a, pivots, [0] * cols + [-1])
    return x[:cols]


# ---------------------------------------------------------------------------
# Fraction-free elimination over the polynomial ring
# ---------------------------------------------------------------------------


def _clear_row_denominators(
    ctx: Context, row: list[RationalFunction], ncols: int
) -> tuple[list[Polynomial], Polynomial]:
    """Scale a row by a common multiple of its denominators.

    The multiplier is the product of the denominators of the first ``ncols``
    entries times that of the right-hand entries after them, where a
    right-hand denominator already dividing the right-hand product so far is
    skipped.  Returns the polynomial row and the multiplier.
    """
    mult = ctx.one()
    for v in row[:ncols]:
        if not v.den.is_one():
            mult = mult * v.den
    rhs = ctx.one()
    for v in row[ncols:]:
        if not v.den.is_one() and rhs.exact_divide(v.den) is None:
            rhs = rhs * v.den
    mult = mult * rhs
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


def _eliminate_block(
    M: RFMatrix, B: RFMatrix, rows: list[int], cols: list[int], bad: list[tuple[int, int]]
) -> tuple[list[list[Polynomial]], list[int]]:
    """One ``_bareiss`` of [M | B] on a block's rows and columns, in the order given.

    Clears each row's denominators first.  Rows below the pivot block are
    zero in M's columns, so each nonzero right-hand entry there is appended
    to ``bad`` as (right-hand column, original row).  Returns the echelon
    rows and the pivot positions in ``cols``.
    """
    w = len(cols)
    aug = [_clear_row_denominators(M.ctx, [M.entries[i][j] for j in cols] + B.entries[i], w)[0] for i in rows]
    ech, pivots, perm, _ = _bareiss(aug, w)
    bad += [
        (j, rows[perm[rr]])
        for rr in range(len(pivots), len(ech))
        for j, v in enumerate(ech[rr][w:])
        if not v.is_zero()
    ]
    return ech, pivots


def _solve(M: RFMatrix, B: RFMatrix, unique: bool) -> "RFMatrix | NoSolution":
    """M X = B with one common denominator per independent block of M.

    M splits into blocks of rows and columns joined by nonzero entries
    (``_blocks``).  An all-zero row only checks its right-hand entries, and an
    all-zero column is a free variable.  Each other block orders its rows and
    columns sparsest first (ties by index), clears the denominators of every
    row of [M | B] once and runs one ``_bareiss``; every column of B is then
    back-substituted fraction-free over the block's last pivot d, so each
    entry of X is one polynomial over d and the back-substitution runs in
    polynomial arithmetic only.  An inconsistent system gives NoSolution
    naming the first inconsistent right-hand column over all blocks and the
    smallest original index of an offending row in it.  Free variables are
    set to zero, unless ``unique`` asks for NoSolution(None) when the columns
    of M are dependent.
    """
    ctx = M.ctx
    if B.rows != M.rows:
        raise ValueError("right-hand side length mismatch")
    nnz_row = [sum(not v.is_zero() for v in row) for row in M.entries]
    nnz_col = [sum(not row[j].is_zero() for row in M.entries) for j in range(M.cols)]
    bad: list[tuple[int, int]] = []  # (right-hand column, original row)
    free = False
    solved = []
    for rows, cols in _blocks(M):
        if not cols:
            bad += [(j, i) for i in rows for j, v in enumerate(B.entries[i]) if not v.is_zero()]
            continue
        if not rows:
            free = True
            continue
        rows.sort(key=lambda i: (nnz_row[i], i))
        cols.sort(key=lambda j: (nnz_col[j], j))
        ech, pivots = _eliminate_block(M, B, rows, cols, bad)
        free = free or len(pivots) < len(cols)
        solved.append((cols, ech, pivots))
    if bad:
        col, row = min(bad)
        return NoSolution(row, col)
    if unique and free:
        return NoSolution(None)
    zero = RationalFunction.of(ctx.zero())
    X = [[zero] * B.cols for _ in range(M.cols)]
    for cols, ech, pivots in solved:
        d, Y = _fraction_free_back_substitute(ech, pivots, len(cols))
        for pc, y in zip(pivots, Y):
            X[cols[pc]] = [RationalFunction(v, d) for v in y]
    return RFMatrix(ctx, X)


def linear_solve(M: RFMatrix, b: Sequence) -> "list[RationalFunction] | NoSolution":
    """One solution of M x = b over the rational-function field.

    On an inconsistent system returns NoSolution carrying the (original) index
    of the offending row.  Underdetermined systems get free variables set to
    zero.
    """
    x = _solve(M, RFMatrix.column(M.ctx, b), unique=False)
    return x if isinstance(x, NoSolution) else x.col(0)


def solve_matrix(M: RFMatrix, B: RFMatrix) -> "RFMatrix | NoSolution":
    """The unique X with M X = B, from one elimination for all columns of B.

    NoSolution when the system is inconsistent or the columns of M are
    dependent (for square M: when M is singular).
    """
    return _solve(M, B, unique=True)


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
        cleared, mult = _clear_row_denominators(M.ctx, M.row(i), n)
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
    zero_binding = {n: 0 for n in ynames}
    for i, entry in enumerate(v):
        residual = entry.subs(zero_binding)
        if not residual.is_zero():
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
    columns and b as right-hand sides.  Returns (rank, G, R, w), or
    NoSolution naming the smallest row where b leaves the span of M's
    columns.  A zero M raises ValueError, a product G R other than M raises
    EliminationError.
    """
    ctx = M.ctx
    if len(b) != M.rows:
        raise ValueError("right-hand side length mismatch")
    if M.is_zero():
        raise ValueError("a zero matrix has no rank factorization")
    B = RFMatrix.column(ctx, b)
    zero, one = RationalFunction.of(ctx.zero()), RationalFunction.of(ctx.one())
    R_cols = {}  # column of M -> its column of R, by column of G
    w_at = {}  # column of G -> its entry of w
    bad: list[tuple[int, int]] = []
    for rows, cols in _blocks(M):
        if not (rows and cols):
            # an all-zero row checks b; an all-zero column is no column of G
            bad += [(0, i) for i in rows if not B[i, 0].is_zero()]
            continue
        cols.reverse()
        ech, pivots = _eliminate_block(M, B, rows, cols, bad)
        # pivot columns first, then the others and b as right-hand sides
        r, n = len(pivots), len(cols)
        others = [c for c in range(n) if c not in pivots]
        order = pivots + others + [n]
        d, Y = _fraction_free_back_substitute([[row[c] for c in order] for row in ech[:r]], list(range(r)), r)
        for k, pc in enumerate(pivots):
            w_at[cols[pc]] = RationalFunction(Y[k][-1], d)
        for m, c in enumerate(others):
            R_cols[cols[c]] = {cols[pc]: RationalFunction(Y[k][m], d) for k, pc in enumerate(pivots)}
    if bad:
        return NoSolution(min(bad)[1], 0)
    selected = sorted(w_at)
    G = RFMatrix(ctx, [[M.entries[i][j] for j in selected] for i in range(M.rows)])
    R = RFMatrix(ctx, [
        [R_cols[j].get(g, zero) if j in R_cols else one if j == g else zero for j in range(M.cols)]
        for g in selected
    ])
    if not (G @ R - M).is_zero():
        raise EliminationError("the rank factorization G R does not reproduce the matrix")
    return len(selected), G, R, [w_at.get(j, zero) for j in range(M.cols)]


def char_poly(M: RFMatrix) -> list[RationalFunction]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    Uses the Faddeev-LeVerrier recursion, so no fresh indeterminate is needed;
    coefficient k multiplies lambda^(n-k).
    """
    if M.rows != M.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = M.rows
    ctx = M.ctx
    coeffs = [RationalFunction.of(ctx.one())]
    Mk = M
    ident = RFMatrix.identity(ctx, n)
    for k in range(1, n + 1):
        tr = RationalFunction.of(ctx.zero())
        for i in range(n):
            tr = tr + Mk.entries[i][i]
        ck = tr * Fraction(-1, k)
        coeffs.append(ck)
        if k < n:
            Mk = M @ (Mk + ident.map(lambda v, c=ck: v * c))
    return coeffs


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
