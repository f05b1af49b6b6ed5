"""Matrix layer: fraction-free solves, factorizations, characteristic polynomials."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfred.builtin_models import BUILTINS, transport_binding
from tfred import reduction
from tfred.rational import Context, RationalFunction, SymbolicError, cleared_row
from tfred.stability import is_hurwitz_stable
from tfred.matrices import (
    ConsistencyError,
    EliminationError,
    NoSolution,
    RFMatrix,
    berkowitz,
    char_poly,
    determinant,
    fraction_nullspace,
    fraction_rank,
    fraction_solve,
    hadamard_factor,
    integer_gauss_jordan,
    invert,
    jacobian,
    linear_solve,
    minus_product,
    rank_and_factor,
    solve_blocks,
    solve_matrix,
    _clear_row_denominators,
    _fraction_free_back_substitute,
)
from tfred.reduction import ReductionError, default_sample, find_decomposition, reduce_model
from tfred.systems import Partition, apply_scaling, linear_first_integrals


@pytest.fixture
def mm():
    # starred fast variables of the scaled three-species system
    return Context(["s", "e_star", "c_star"], ["k1", "km1", "k2"])


def _cofactor_det(m, ctx):
    """Independent determinant oracle by Laplace expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = RationalFunction.of(ctx.zero())
    sign = 1
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total = total + m[0][j] * _cofactor_det(minor, ctx) * sign
        sign = -sign
    return total


# -- hadamard_factor ---------------------------------------------------------


def test_hadamard_mm_fast_row(mm):
    v = [mm.parse_poly("k1*e_star*s - (km1 + k2)*c_star")]
    G = hadamard_factor(v, ["e_star", "c_star"])
    assert G.entries[0][0] == mm.parse("k1*s")
    assert G.entries[0][1] == mm.parse("-(km1 + k2)")


def test_hadamard_zero_vector(mm):
    G = hadamard_factor([mm.zero()], ["e_star", "c_star"])
    assert G.entries[0][0].is_zero() and G.entries[0][1].is_zero()


def test_hadamard_rejects_nonvanishing_entry(mm):
    with pytest.raises(ConsistencyError) as err:
        hadamard_factor([mm.parse_poly("k1*s + c_star")], ["e_star", "c_star"])
    assert "k1*s" in str(err.value)


def test_hadamard_random_degree3_identity(mm):
    # random vectors vanishing at y = 0: each term forced to contain a y variable
    rng = random.Random(3)
    ynames = ["e_star", "c_star"]
    all_names = ["s", "e_star", "c_star", "k1", "km1", "k2"]
    for _ in range(20):
        v = []
        for _ in range(2):
            p = mm.zero()
            for _ in range(rng.randint(1, 5)):
                term = mm.const(Fraction(rng.randint(-5, 5)))
                term = term * mm.sym(rng.choice(ynames))
                for _ in range(rng.randint(0, 2)):
                    term = term * mm.sym(rng.choice(all_names))
                p = p + term
            v.append(p)
        G = hadamard_factor(v, ynames)
        recon = G.mul_vector([mm.sym(n) for n in ynames])
        for original, back in zip(v, recon):
            assert back == original


# -- linear_solve ------------------------------------------------------------


def test_linear_solve_diagonal_inverse(mm):
    # km1 * I * gamma = -delta  =>  gamma = -delta / km1
    delta = [mm.parse("s + e_star"), mm.parse("c_star^2")]
    M = RFMatrix(mm, [[mm.parse("km1"), mm.parse("0")], [mm.parse("0"), mm.parse("km1")]])
    x = linear_solve(M, [-d for d in delta])
    assert not isinstance(x, NoSolution)
    for xi, di in zip(x, delta):
        assert xi == -di / mm.parse("km1")


def test_linear_solve_identity(mm):
    M = RFMatrix.identity(mm, 3)
    b = [mm.parse("s"), mm.parse("e_star/k1"), mm.parse("c_star + 1")]
    x = linear_solve(M, b)
    assert x == b


def test_linear_solve_random_invertible_3x3(mm):
    rng = random.Random(11)
    for _ in range(8):
        entries = [
            [mm.const(rng.randint(-4, 4)) + mm.sym("k1") * rng.randint(0, 2) for _ in range(3)]
            for _ in range(3)
        ]
        M = RFMatrix(mm, entries)
        if determinant(M).is_zero():
            continue
        b = [mm.parse("s"), mm.parse("e_star"), mm.parse("k2*c_star")]
        x = linear_solve(M, b)
        assert not isinstance(x, NoSolution)
        back = M.mul_vector(x)
        for got, want in zip(back, b):
            assert got == RationalFunction.coerce(mm, want)


def test_linear_solve_inconsistent_row_reported(mm):
    M = RFMatrix(mm, [[mm.one(), mm.one()], [mm.one(), mm.one()]])
    out = linear_solve(M, [mm.parse("s"), mm.parse("s + 1")])
    assert isinstance(out, NoSolution)
    assert out.row == 1


def test_linear_solve_underdetermined_free_vars_zero(mm):
    M = RFMatrix(mm, [[mm.one(), mm.one()]])
    x = linear_solve(M, [mm.parse("s")])
    assert not isinstance(x, NoSolution)
    assert x[0] == mm.parse("s") and x[1].is_zero()


def test_invert_and_projection_shapes(mm):
    M = RFMatrix(mm, [[mm.parse_poly("k1*s"), mm.one()], [mm.zero(), mm.parse_poly("km1")]])
    Minv = invert(M)
    assert (M @ Minv - RFMatrix.identity(mm, 2)).is_zero()
    with pytest.raises(Exception):
        invert(RFMatrix(mm, [[mm.one(), mm.one()], [mm.one(), mm.one()]]))


def test_solve_matrix_multiple_rhs(mm):
    M = RFMatrix(mm, [[mm.parse_poly("k1"), mm.zero()], [mm.one(), mm.parse_poly("k2")]])
    B = RFMatrix(mm, [[mm.parse("s"), mm.zero()], [mm.zero(), mm.parse("e_star")]])
    X = solve_matrix(M, B)
    assert not isinstance(X, NoSolution)
    assert (M @ X - B).is_zero()


def _random_rf(rng, ctx):
    # affine numerator over a few symbols; sometimes a one-symbol denominator
    p = ctx.const(rng.randint(-2, 2))
    for _ in range(rng.randint(0, 2)):
        p = p + ctx.sym(rng.choice(["s", "k1", "km1", "k2"])) * rng.randint(-2, 2)
    den = ctx.sym(rng.choice(["k1", "k2"])) if rng.random() < 0.2 else ctx.one()
    return RationalFunction(p, den)


def test_solve_matrix_on_random_systems(mm):
    # one elimination for all columns gives the per-column solutions when M
    # is invertible, and no solution at all when M is square and singular
    rng = random.Random(5)
    singular = 0
    for _ in range(200):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        M = RFMatrix(mm, [[_random_rf(rng, mm) for _ in range(n)] for _ in range(n)])
        if rng.random() < 0.3 and n > 1:
            # a dependent last row keeps every consistent right-hand side consistent
            M = RFMatrix(mm, M.entries[:-1] + [[a + b for a, b in zip(M.entries[0], M.entries[-2])]])
        X0 = RFMatrix(mm, [[_random_rf(rng, mm) for _ in range(k)] for _ in range(n)])
        B = M @ X0
        X = solve_matrix(M, B)
        if determinant(M).is_zero():
            singular += 1
            assert isinstance(X, NoSolution)
            continue
        assert not isinstance(X, NoSolution)
        for j in range(k):
            assert X.col(j) == linear_solve(M, B.col(j))
        assert X == X0
    assert singular > 20


# -- independent blocks, sparse order and NoSolution ------------------------------

SHAPES = ["block", "arrow", "permuted", "zero_rows", "zero_cols", "tall", "wide"]


def _nonzero_rf(rng, ctx):
    v = _random_rf(rng, ctx)
    while v.is_zero():
        v = _random_rf(rng, ctx)
    return v


def _structured_matrix(rng, ctx, shape, dependent):
    """A seeded matrix of at most 6x6 entries with the named sparsity structure.

    Block shapes fill diagonal blocks of random sizes; "permuted" shuffles the
    rows and columns of one, and "zero_rows" / "zero_cols" clear one or two
    rows or columns of one.  "arrow" is a diagonal plus one dense row and
    column; "tall" and "wide" are rectangular with random zeros.  With
    ``dependent`` a row is replaced by the sum of one or two others, so that
    nonzero blocks are singular too.
    """
    n = rng.randint(2, 6)
    rows = rng.randint(1, n - 1) if shape == "wide" else n
    cols = rng.randint(1, n - 1) if shape == "tall" else n
    if shape in ("tall", "wide"):
        cells = [(i, j) for i in range(rows) for j in range(cols) if rng.random() < 0.6]
    elif shape == "arrow":
        h = rng.randrange(n)
        cells = [(i, j) for i in range(n) for j in range(n) if i == j or h in (i, j)]
    else:
        cells, start = [], 0
        while start < n:
            size = rng.randint(1, min(3, n - start))
            cells += [(i, j) for i in range(start, start + size) for j in range(start, start + size)]
            start += size
    zero = RationalFunction.of(ctx.zero())
    M = [[zero] * cols for _ in range(rows)]
    for i, j in cells:
        M[i][j] = _nonzero_rf(rng, ctx)
    if shape == "permuted":
        rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
        M = [[M[rp[i]][cp[j]] for j in range(n)] for i in range(n)]
    elif shape == "zero_rows":
        for i in rng.sample(range(n), rng.randint(1, 2)):
            M[i] = [zero] * n
    elif shape == "zero_cols":
        for j in rng.sample(range(n), rng.randint(1, 2)):
            for row in M:
                row[j] = zero
    if dependent and rows > 1:
        t, *others = rng.sample(range(rows), min(rows, 3))
        M[t] = [sum((M[a][j] for a in others[: rng.randint(1, len(others))]), zero) for j in range(cols)]
    return M


def _offending(a, b, r):
    """Row r of the numeric system a x = b is inconsistent with rows that determine it.

    That is, some linearly independent rows T of a span row r of a, but the
    rows T of [a | b] do not span row r of [a | b].
    """
    others = [i for i in range(len(a)) if i != r]
    for mask in range(1 << len(others)):
        T = [i for bit, i in enumerate(others) if mask >> bit & 1]
        sub = [a[i] for i in T]
        if (
            fraction_rank(sub) == len(T) == fraction_rank(sub + [a[r]])
            and fraction_rank([a[i] + [b[i]] for i in T + [r]]) > len(T)
        ):
            return True
    return False


def _structured_cases(mm, shape, count):
    """(M, X0, B = M X0, M at a random point) for seeded structured systems."""
    rng = random.Random(SHAPES.index(shape))
    for case in range(count):
        M = RFMatrix(mm, _structured_matrix(rng, mm, shape, dependent=case % 2 == 1 and shape != "zero_rows"))
        k = rng.randint(1, 4)
        X0 = RFMatrix(mm, [[_random_rf(rng, mm) for _ in range(k)] for _ in range(M.cols)])
        point = {name: Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3)) for name in ("s", "e_star", "c_star", "k1", "km1", "k2", "eps")}
        yield rng, M, X0, M @ X0, point


@pytest.mark.parametrize("shape", SHAPES)
def test_structured_solves_and_no_solution(mm, shape):
    # the generic rank at a random point is the independent oracle for which
    # systems are consistent and which columns of M are dependent
    inconsistent = 0
    for rng, M, X0, B, point in _structured_cases(mm, shape, 16):
        a = M.eval(point)
        rank = fraction_rank(a)
        X = solve_matrix(M, B)
        if rank == M.cols:
            assert X == X0
        else:
            assert isinstance(X, NoSolution) and (X.row, X.col) == (None, None)
        for j in range(B.cols):
            x = linear_solve(M, B.col(j))
            assert M.mul_vector(x) == B.col(j)
            # free variables at 0: the solution uses independent columns only
            support = [c for c in range(M.cols) if not x[c].is_zero()]
            assert fraction_rank([[row[c] for c in support] for row in a]) == len(support)
        # perturb the right-hand side in one row or in every row, in some
        # columns; on "zero_rows" only in zero rows
        zero_rows = [i for i in range(M.rows) if all(v.is_zero() for v in M.entries[i])]
        rows = zero_rows if shape == "zero_rows" else list(range(M.rows))
        entries = [row[:] for row in B.entries]
        for i in rows if rng.random() < 0.5 else [rng.choice(rows)]:
            for j in rng.sample(range(B.cols), rng.randint(1, B.cols)):
                entries[i][j] = entries[i][j] + _nonzero_rf(rng, mm)
        Bbad = RFMatrix(mm, entries)
        b = Bbad.eval(point)
        bad = [j for j in range(B.cols) if fraction_rank([r + [b[i][j]] for i, r in enumerate(a)]) > rank]
        X = solve_matrix(M, Bbad)
        if not bad:
            assert not isinstance(X, NoSolution) or X.row is None
            continue
        inconsistent += 1
        col = [row[bad[0]] for row in b]
        assert isinstance(X, NoSolution) and X.col == bad[0]
        assert _offending(a, col, X.row)
        if shape == "zero_rows":
            assert X.row == min(i for i in zero_rows if not Bbad.entries[i][bad[0]].is_zero())
        x = linear_solve(M, Bbad.col(bad[0]))
        assert isinstance(x, NoSolution) and x.col == 0 and _offending(a, col, x.row)
    assert inconsistent >= 3


def test_structured_square_solves_match_cramer(mm):
    pytest.importorskip("sympy")
    from test_kernel_oracle import cramer, same

    compared = 0
    for shape in ("block", "arrow", "permuted"):
        for _, M, _, B, _ in _structured_cases(mm, shape, 6):
            X = solve_matrix(M, B)
            for j in range(B.cols):
                want = cramer(M, B.col(j))
                if want is None:
                    assert isinstance(X, NoSolution)
                    break
                compared += 1
                assert all(same(X[i, j], want[i]) for i in range(M.cols))
    assert compared >= 10


def _from_blocks(M, B, solved):
    """X of M X = B from solved blocks: Y[k][j] / d on each block's unknowns, zero elsewhere."""
    zero = RationalFunction.of(M.ctx.zero())
    X = [[zero] * B.cols for _ in range(M.cols)]
    for unknowns, d, Y in solved:
        assert not d.is_zero()
        for c, y in zip(unknowns, Y):
            X[c] = [RationalFunction(v, d) for v in y]
    return X


@pytest.mark.parametrize("shape", ["block", "arrow", "permuted", "tall"])
def test_solved_blocks_hold_solve_matrix_entries_over_one_denominator(mm, shape):
    # each block's numerators over its last pivot are solve_matrix's entries,
    # as rational functions and at a random point
    solved_count = 0
    for _, M, X0, B, point in _structured_cases(mm, shape, 16):
        solved = solve_blocks(M, B)
        X = solve_matrix(M, B)
        if isinstance(X, NoSolution):
            assert isinstance(solved, NoSolution) and (solved.row, solved.col) == (X.row, X.col)
            continue
        solved_count += 1
        unknowns = [c for block in solved for c in block[0]]
        assert len(unknowns) == len(set(unknowns)) == M.cols
        got = _from_blocks(M, B, solved)
        vals = mm.point_values(point)
        for i in range(M.cols):
            for j in range(B.cols):
                assert got[i][j] == X[i, j] == X0[i, j]
                assert got[i][j].eval_at(vals) == X[i, j].eval_at(vals)
    assert solved_count >= 3


def test_solved_blocks_match_cramer(mm):
    pytest.importorskip("sympy")
    from test_kernel_oracle import cramer, same

    compared = 0
    for shape in ("block", "arrow", "permuted"):
        for _, M, _, B, _ in _structured_cases(mm, shape, 6):
            solved = solve_blocks(M, B)
            for j in range(B.cols):
                want = cramer(M, B.col(j))
                if want is None:
                    assert isinstance(solved, NoSolution)
                    break
                compared += 1
                got = _from_blocks(M, B, solved)
                assert all(same(got[i][j], want[i]) for i in range(M.cols))
    assert compared >= 10


def _size(rf):
    return len(rf.num.terms) + len(rf.den.terms)


def test_minus_product_equals_the_product_of_rational_functions(mm):
    # C - A X over the solved blocks of X, against C - A @ X entry by entry,
    # which reduces each Y / d before it multiplies: equal, and no larger.
    # Some entries of A have more than one term, some denominators of their
    # own; some systems have entries over two-term denominators, whose
    # solutions include reciprocals of polynomials
    rng = random.Random(11)
    factor = mm.parse_poly("km1 + k2")

    def entry():
        v = _random_rf(rng, mm)
        if rng.random() < 0.3:
            v = v / mm.parse(rng.choice(["k1 + k2", "km1 + s", "k1*s + 1"]))
        return v

    cases = [(M, B) for shape in SHAPES for _, M, _, B, _ in _structured_cases(mm, shape, 8)]
    for _ in range(60):
        n = rng.randint(1, 3)
        cases.append((RFMatrix(mm, [[entry() for _ in range(n)] for _ in range(n)]),
                      RFMatrix(mm, [[entry() for _ in range(2)] for _ in range(n)])))
    compared = 0
    for M, B in cases:
        solved = solve_blocks(M, B)
        if isinstance(solved, NoSolution):
            continue
        rows = rng.randint(1, 4)
        A = []
        for _ in range(rows):
            row = [_random_rf(rng, mm) if rng.random() < 0.6 else RationalFunction.of(mm.zero()) for _ in range(M.cols)]
            if rng.random() < 0.4:
                # a polynomial entry with more than one term
                c = rng.choice(rng.choice(solved)[0])
                row[c] = RationalFunction.of(factor if rng.random() < 0.5 else factor * mm.sym("s"))
            A.append(row)
        A = RFMatrix(mm, A)
        C = [[_random_rf(rng, mm) for _ in range(B.cols)] for _ in range(rows)]
        want = RFMatrix(mm, C) - A @ RFMatrix(mm, _from_blocks(M, B, solved))
        got = minus_product(C, A, solved)
        for i in range(rows):
            for j in range(B.cols):
                assert got[i][j] == want[i, j]
                assert _size(got[i][j]) <= _size(want[i, j])
                compared += 1
    assert compared > 300
    # a denominator with the factor (km1 + k2): M with that entry in a pivot
    M = RFMatrix(mm, [[mm.parse("km1 + k2"), mm.parse("k1")], [mm.parse("0"), mm.parse("km1 + k2")]])
    B = RFMatrix(mm, [[mm.parse("s")], [mm.parse("k1*s")]])
    solved = solve_blocks(M, B)
    A = RFMatrix(mm, [[mm.parse("km1 + k2"), mm.parse("0")], [mm.parse("-km1 - k2"), mm.parse("k1")]])
    got = minus_product([[mm.parse("0")], [mm.parse("s")]], A, solved)
    X = solve_matrix(M, B)
    assert got[0][0] == -(A @ X)[0, 0] and got[1][0] == mm.parse("s") - (A @ X)[1, 0]
    # d = (km1 + k2)^2 keeps one factor only where the numerator keeps none
    assert solved[0][1].exact_divide(factor * factor) is not None
    assert got[0][0].den == factor


def test_solved_blocks_drop_the_denominators_the_elimination_cleared():
    # clearing a row of M multiplies it by the product of its entries'
    # denominators, here (a + b)^2 where (a + b) would do, so d and every
    # numerator of the block share the extra (a + b); it is divided out again
    ctx = Context(["x"], ["a", "b"])
    M = RFMatrix(ctx, [[ctx.parse("1 / (a + b)"), ctx.parse("a / (a + b)")], [ctx.parse("b"), ctx.parse("1")]])
    B = RFMatrix(ctx, [[ctx.parse("x")], [ctx.parse("a*x")]])
    [(unknowns, d, Y)] = solve_blocks(M, B)
    assert d.exact_divide(ctx.parse_poly("a + b")) is None
    assert _from_blocks(M, B, [(unknowns, d, Y)]) == solve_matrix(M, B).entries


def test_rank_and_factor_needs_no_sample(mm):
    # at k1 = 1 every entry is 1, so a sample there would select column 2
    # alone; over the rational-function field column 1 is independent of it
    # and column 0 equals it
    M = RFMatrix(mm, [[mm.one(), mm.one(), mm.one()], [mm.parse("k1"), mm.one(), mm.parse("k1")]])
    b = [mm.parse("k2"), mm.parse("km1")]
    s1, G, R, w = rank_and_factor(M, b)
    assert s1 == 2
    assert G == RFMatrix(mm, [[M[i, j] for j in (1, 2)] for i in range(2)])
    assert R == RFMatrix(mm, [[0, 1, 0], [1, 0, 1]])
    assert M.mul_vector(w) == b
    assert w[0].is_zero()
    # a zero row and a repeated row: b leaves the span in the rows named
    M4 = RFMatrix(mm, [[0, 0], [1, 1], [1, 1], [mm.parse("k1"), 1]])
    for b, row in (([0, 0, 1, 0], 2), ([1, 0, 1, 0], 0)):
        out = rank_and_factor(M4, b)
        assert isinstance(out, NoSolution)
        assert out.row == row


def test_inexact_pivot_division_raises():
    # [[k1, 1 | 0], [0, km1 | 1]] is no Bareiss echelon form: the last pivot
    # km1 times x0 = -1/(k1*km1) is not a polynomial
    ctx = Context(["s"], ["k1", "km1"])
    ech = [[ctx.sym("k1"), ctx.one(), ctx.zero()], [ctx.zero(), ctx.sym("km1"), ctx.one()]]
    assert issubclass(EliminationError, SymbolicError)
    with pytest.raises(EliminationError, match="echelon row 0"):
        _fraction_free_back_substitute(ech, [0, 1], 2)


# -- rank_and_factor -----------------------------------------------------------


def _positive_sample():
    return {
        "s": Fraction(2),
        "e_star": Fraction(1),
        "c_star": Fraction(3),
        "k1": Fraction(1),
        "km1": Fraction(2),
        "k2": Fraction(1),
        "eps": Fraction(1, 10),
    }


def test_rank_and_factor_mm_g0(mm):
    G0 = RFMatrix(
        mm,
        [
            [mm.parse("-k1*s"), mm.parse("km1 + k2")],
            [mm.parse("k1*s"), mm.parse("-(km1 + k2)")],
        ],
    )
    s1, Gt, R, _ = rank_and_factor(G0, [0, 0])
    assert s1 == 1
    assert Gt.entries[0][0] == mm.parse("km1 + k2")
    assert Gt.entries[1][0] == mm.parse("-(km1 + k2)")
    assert R.entries[0][0] == mm.parse("-k1*s / (km1 + k2)")
    assert R.entries[0][1] == mm.parse("1")
    assert (Gt @ R - G0).is_zero()


def test_rank_and_factor_invertible_identity_R(mm):
    M = RFMatrix(mm, [[mm.parse_poly("k1"), mm.zero()], [mm.one(), mm.parse_poly("k2*s")]])
    s1, Gt, R, _ = rank_and_factor(M, [0, 0])
    assert s1 == 2
    assert Gt == M
    assert (R - RFMatrix.identity(mm, 2)).is_zero()


def test_rank_and_factor_recovers_rank_one_product(mm):
    rng = random.Random(5)
    col = [mm.parse_poly("k1*s + 1"), mm.parse_poly("e_star"), mm.parse_poly("km1")]
    row = [mm.parse_poly("c_star"), mm.parse_poly("k2"), mm.parse_poly("s + e_star")]
    M = RFMatrix.column(mm, col) @ RFMatrix(mm, [row])
    s1, Gt, R, _ = rank_and_factor(M, [0, 0, 0])
    assert s1 == 1
    assert (Gt @ R - M).is_zero()
    assert fraction_rank(Gt.eval(_positive_sample())) == 1
    assert fraction_rank(R.eval(_positive_sample())) == 1


def test_rank_and_factor_rejects_zero_matrix(mm):
    with pytest.raises(ValueError):
        rank_and_factor(RFMatrix(mm, [[0, 0], [0, 0]]), [0, 0])


# -- independent columns and rows, against the greedy rank loop -------------------


def greedy_independent(vectors, reverse=False):
    """Indices of the vectors that raise the rank, scanned in order (or from the end).

    The selection loop that ``rank_and_factor`` and ``find_decomposition``
    used before they read the pivots of one elimination: one ``fraction_rank``
    call per candidate.
    """
    order = range(len(vectors) - 1, -1, -1) if reverse else range(len(vectors))
    chosen, current = [], []
    for j in order:
        cand = current + [list(vectors[j])]
        if fraction_rank(cand) > len(current):
            chosen.append(j)
            current = cand
    return sorted(chosen)


SELECTION_CASES = {
    # (rank relative to the shape, number of all-zero columns)
    "full_rank": (None, 0),
    "rank_deficient": (-1, 0),
    "zero_columns": (-1, 2),
}


def random_columns(rng, m, n, case):
    """n integer columns of length m with the case's rank and zero columns."""
    shift, zero_cols = SELECTION_CASES[case]
    nonzero = n - zero_cols
    full = min(m, nonzero)
    r = full if shift is None else max(1, full + shift)
    while True:
        basis = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        cols = [
            [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(m)]
            for coeffs in ([rng.choice([-1, 0, 0, 1, 2]) for _ in range(r)] for _ in range(nonzero))
        ]
        if fraction_rank([list(row) for row in zip(*cols)]) == r:
            break
    for _ in range(zero_cols):
        cols.insert(rng.randint(0, len(cols)), [0] * m)
    return cols, r


@pytest.mark.parametrize("case", sorted(SELECTION_CASES))
def test_rank_and_factor_selects_the_greedy_columns(case):
    rng = random.Random(f"rank_and_factor/{case}")
    ctx = Context(["x"], ["a", "b"])
    for _ in range(12):
        m, n = rng.randint(2, 5), rng.randint(3, 6)
        cols, r = random_columns(rng, m, n, case)
        # scaling row i by a + (i+1)*b keeps the column dependencies exact
        scale = [ctx.sym("a") + ctx.sym("b") * (i + 1) for i in range(m)]
        M = RFMatrix(ctx, [[scale[i] * cols[j][i] for j in range(n)] for i in range(m)])
        s1, G, R, _ = rank_and_factor(M, [0] * m)
        selected = greedy_independent(cols, reverse=True)
        assert s1 == len(selected) == r
        assert G == RFMatrix(ctx, [[M[i, j] for j in selected] for i in range(m)])
        for k, j in enumerate(selected):
            assert R.col(j) == [RationalFunction.of(ctx.one() if kk == k else ctx.zero()) for kk in range(r)]


@pytest.mark.parametrize("case", sorted(SELECTION_CASES))
def test_find_decomposition_selects_the_greedy_rows(case):
    rng = random.Random(f"find_decomposition/{case}")
    for _ in range(12):
        n = rng.randint(3, 5)
        ctx = Context([f"z{i}" for i in range(n)], ["a"])
        zs = [ctx.sym(f"z{i}") for i in range(n)]
        # the rows of Dh0 are the columns drawn here, so the zero-column
        # case has entries of h0 that vanish
        rows, r = random_columns(rng, n, n, case)
        h0 = [sum((zs[j] * c for j, c in enumerate(row) if c), ctx.zero()) for row in rows]
        if r == n:
            with pytest.raises(ReductionError):
                find_decomposition(h0, default_sample(ctx, 3))
            continue
        dec = find_decomposition(h0, default_sample(ctx, 3))
        assert dec.mu == [RationalFunction.of(h0[i]) for i in greedy_independent(rows)]


# -- char_poly ------------------------------------------------------------------


def test_char_poly_1x1(mm):
    M = RFMatrix(mm, [[mm.parse("c_star")]])
    coeffs = char_poly(M)
    assert coeffs[0] == mm.parse("1")
    assert coeffs[1] == mm.parse("-c_star")


def test_char_poly_mm_dmup(mm):
    M = RFMatrix(mm, [[mm.parse("-(k1*s + km1 + k2)")]])
    coeffs = char_poly(M)
    # lambda + (k1*s + km1 + k2)
    assert coeffs[1] == mm.parse("k1*s + km1 + k2")


def test_char_poly_chain_matrix_against_cofactor_oracle():
    ctx = Context(["s"], ["k1", "km1", "k2", "km2", "k3", "km3", "k4"])
    rows = [
        ["-(k1*s + km1 + k2)", "-k1*s + km2", "-k1*s"],
        ["k2", "-(km2 + k3)", "km3"],
        ["0", "k3", "-(km3 + k4)"],
    ]
    M = RFMatrix(ctx, [[ctx.parse(v) for v in row] for row in rows])
    coeffs = char_poly(M)
    assert len(coeffs) == 4
    # trace check: c1 = -tr(M)
    tr = M.entries[0][0] + M.entries[1][1] + M.entries[2][2]
    assert coeffs[1] == -tr
    # determinant check: c3 = (-1)^3 det(M)
    det = _cofactor_det(M.entries, ctx)
    assert coeffs[3] == -det
    assert determinant(M) == det


def _oracle_char_poly(M):
    """Faddeev-LeVerrier over RationalFunction: [1, c1, ..., cn] from n - 1 products and a trace each.

    M_1 = M, c_k = -tr(M_k) / k and M_(k+1) = M (M_k + c_k I).
    """
    n, ctx = M.rows, M.ctx
    coeffs = [RationalFunction.of(ctx.one())]
    Mk = M
    for k in range(1, n + 1):
        tr = RationalFunction.of(ctx.zero())
        for i in range(n):
            tr = tr + Mk.entries[i][i]
        ck = tr * Fraction(-1, k)
        coeffs.append(ck)
        if k < n:
            shifted = [[v + ck if i == j else v for j, v in enumerate(row)] for i, row in enumerate(Mk.entries)]
            Mk = M @ RFMatrix(ctx, shifted)
    return coeffs


_CP = Context(["s", "e_star", "c_star"], ["k1", "km1", "k2"])
# one-symbol denominators and two-symbol ones
_CP_DENOMINATORS = [_CP.parse_poly(t) for t in ("k1", "k2 + 2", "k1 + k2", "s*km1 + 1")]


@st.composite
def rf_square_matrices(draw):
    """A square RFMatrix over _CP of size 0-4: affine entries, some over a denominator, with zero rows and columns.

    At most two distinct denominators per matrix: the oracle's rational-function
    sums swell with more (one 4x4 with four took 52 s, its Berkowitz 0.1 s).
    """
    dens = [_CP.one()] + draw(st.lists(st.sampled_from(_CP_DENOMINATORS), max_size=2))
    n = draw(st.integers(0, 4))
    zero_rows = draw(st.sets(st.integers(0, 3), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 3), max_size=2))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            num = _CP.const(draw(st.integers(-3, 3)))
            for name in draw(st.lists(st.sampled_from(["s", "c_star", "k1", "km1"]), max_size=2)):
                num = num + _CP.sym(name) * draw(st.integers(-2, 2))
            if i in zero_rows or j in zero_cols:
                num = _CP.zero()
            row.append(RationalFunction(num, draw(st.sampled_from(dens))))
        rows.append(row)
    return RFMatrix(_CP, rows)


@settings(max_examples=100, deadline=None)
@given(rf_square_matrices())
def test_char_poly_matches_faddeev_leverrier_on_random_matrices(M):
    got, want = char_poly(M), _oracle_char_poly(M)
    assert len(got) == len(want) == M.rows + 1
    # cross-multiplied equality: the two need not share a representation
    assert all(g.num * w.den == w.num * g.den for g, w in zip(got, want))
    assert got[0].num.is_one() and got[0].den.is_one()


def test_char_poly_edge_cases_and_a_shared_denominator():
    assert char_poly(RFMatrix(_CP, [])) == [1]
    zero = RFMatrix(_CP, [[_CP.zero()] * 3] * 3)
    assert [c.render() for c in char_poly(zero)] == ["1", "0", "0", "0"]
    with pytest.raises(ValueError):
        char_poly(RFMatrix(_CP, [[_CP.one(), _CP.zero()]]))
    # d = k1 + k2 and b_2 = s (k1 + k2): the shared entry denominator cancels
    diagonal = RFMatrix(_CP, [[_CP.parse("1/(k1 + k2)"), _CP.zero()], [_CP.zero(), _CP.sym("s")]])
    assert char_poly(diagonal)[2].render() == "s / (k1 + k2)"


def test_a_row_is_cleared_by_each_denominator_that_does_not_divide_the_multiplier_so_far():
    def multiplier(*entries):
        row = [_CP.parse(v) for v in entries]
        cleared, mult = _clear_row_denominators(_CP, row)
        assert all(c == v * mult for c, v in zip(cleared, row))
        return mult.render()

    assert multiplier("1/k1", "s/k1", "1/k1") == "k1"
    assert multiplier("1/(k1*k2)", "1/k1", "s") == "k1*k2"
    assert multiplier("1/k1", "1/(k1 + k2)", "1") == "k1^2 + k1*k2"
    # a denominator that the multiplier holds only in part is multiplied in whole
    assert multiplier("1/k1", "1/(k1*k2)") == "k1^2*k2"


# every builtin but transport_binding, whose Dmu*P is 7x7
SMALL_DMUP_MODELS = [name for name in sorted(BUILTINS) if name != "transport_binding"]


@pytest.mark.parametrize("name", SMALL_DMUP_MODELS)
def test_char_poly_of_builtin_dmup_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    from test_kernel_oracle import same, to_sympy

    spec = BUILTINS[name]()
    M = reduce_model(spec.system, spec.fast).decomposition.dmup()
    assert 1 <= M.rows <= 4
    lam = sympy.Symbol("lam")
    want = sympy.Matrix([[to_sympy(v) for v in row] for row in M.entries]).charpoly(lam).all_coeffs()
    got = char_poly(M)
    assert len(got) == len(want)
    assert all(same(g, w) for g, w in zip(got, want))


def test_berkowitz_on_ints_and_constant_polynomials_equals_the_certificate_char_poly():
    rng = random.Random(41)
    for case in range(200):
        n = case % 9
        m = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        if case % 3 == 0:
            m = [[Fraction(v, rng.randint(1, 4)) for v in row] for row in m]
        got = reduction._fraction_char_poly(m)
        d = lcm(*[Fraction(v).denominator for row in m for v in row])
        ints = [[int(v * d) for v in row] for row in m]
        assert berkowitz(ints) == got
        assert all(type(c) is int for c in got)
        polys = berkowitz([[_CP.const(v) for v in row] for row in ints])
        assert len(polys) == n + 1 and all(p == c for p, c in zip(polys, got))


def test_determinant_matches_cofactor_on_random(mm):
    rng = random.Random(23)
    for _ in range(5):
        entries = [
            [
                mm.const(rng.randint(-3, 3)) + mm.sym("s") * rng.randint(0, 1)
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        M = RFMatrix(mm, entries)
        assert determinant(M) == _cofactor_det(M.entries, mm)


def test_jacobian(mm):
    v = [mm.parse_poly("k1*e_star*s - (km1 + k2)*c_star")]
    J = jacobian(v, ["s", "e_star", "c_star"])
    assert J.entries[0][0] == mm.parse("k1*e_star")
    assert J.entries[0][1] == mm.parse("k1*s")
    assert J.entries[0][2] == mm.parse("-(km1 + k2)")


# -- exact Fraction kernels ----------------------------------------------------------


def _fraction_det_oracle(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _fraction_det_oracle([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _random_fraction_matrix(rng, rows, cols):
    # low-rank products and sparse entries so that free columns occur often
    k = rng.randint(0, min(rows, cols))
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] for _ in range(rows)]
    b = [[Fraction(rng.choice([0, 0, 1, -2, 3])) for _ in range(cols)] for _ in range(k)]
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)] for i in range(rows)]


def test_fraction_kernels_on_random_matrices():
    rng = random.Random(3)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_fraction_matrix(rng, rows, cols)
        before = [row[:] for row in m]
        rank = fraction_rank(m)
        null = fraction_nullspace(m)
        assert rank + len(null) == cols
        # a column is free when it adds nothing to the rank of the columns before it
        free = [
            c for c in range(cols)
            if fraction_rank([row[: c + 1] for row in m]) == fraction_rank([row[:c] for row in m])
        ]
        for k, v in enumerate(null):
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
            # the unique basis: 1 on its own free column, 0 on the others
            assert [v[c] for c in free] == [Fraction(int(j == k)) for j in range(len(free))]
        x0 = [Fraction(rng.randint(-2, 2)) for _ in range(cols)]
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in m]
        x = fraction_solve(m, b)
        assert [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in m] == b
        assert all(x[c] == 0 for c in free)
        assert fraction_solve(m + [[Fraction(0)] * cols], b + [Fraction(1)]) is None
        assert m == before


# -- the integer kernel against the Fraction elimination it replaced -----------------


def _oracle_echelon(a, ncols):
    """Forward Gaussian elimination of a Fraction matrix, in place: the pivot column of each echelon row."""
    rows, width = len(a), len(a[0]) if a else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                for j in range(c, width):
                    a[i][j] -= f * a[r][j]
        pivots.append(c)
    return pivots


def _oracle_back_substitute(a, pivots, x):
    """Fill the pivot entries of x so that every echelon row has a . x = 0."""
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        x[pc] = -sum((a[r][j] * x[j] for j in range(pc + 1, len(x))), Fraction(0)) / a[r][pc]
    return x


def _oracle(m, b=None):
    """(pivot columns, nullspace basis, one solution of m x = b or None) by Fraction elimination."""
    cols = len(m[0]) if m else 0
    a = [[Fraction(v) for v in row] for row in m]
    pivots = _oracle_echelon(a, cols)
    null = [
        _oracle_back_substitute(a, pivots, [Fraction(int(j == fc)) for j in range(cols)])
        for fc in range(cols)
        if fc not in pivots
    ]
    if b is None:
        return pivots, null, None
    a = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(m, b)]
    _oracle_echelon(a, cols)
    if any(row[cols] != 0 for row in a[len(pivots):]):
        return pivots, null, None
    return pivots, null, _oracle_back_substitute(a, pivots, [Fraction(0)] * cols + [Fraction(-1)])[:cols]


def assert_kernel_matches_oracle(m, b):
    """Rank, pivot columns, nullspace and the solve of m x = b equal the oracle's, exactly."""
    cols = len(m[0]) if m else 0
    pivots, null, x = _oracle(m, b)
    a = [cleared_row(row)[0] for row in m]
    assert integer_gauss_jordan(a, cols) == pivots
    # Gauss-Jordan form: row k is nonzero in pivot column k only, the rows below vanish
    r = len(pivots)
    assert all([row[p] != 0 for p in pivots] == [j == k for j in range(r)] for k, row in enumerate(a[:r]))
    assert not any(v for row in a[r:] for v in row[:cols])
    assert fraction_rank(m) == r
    got, sol = fraction_nullspace(m), fraction_solve(m, b)
    assert got == null and sol == x
    # exact results: an int where integral, never an integral Fraction
    assert all(type(v) is int or v.denominator != 1 for v in [*(v for vec in got for v in vec), *(sol or [])])


def test_cleared_row_is_integral_over_the_lcm():
    row = [Fraction(1, 6), 3, Fraction(-5, 4), 0, Fraction(4)]
    ints, d = cleared_row(row)
    assert d == 12 and ints == [2, 36, -15, 0, 48]
    assert all(type(v) is int for v in ints)
    assert cleared_row([2, -7, 0]) == ([2, -7, 0], 1)
    assert cleared_row([]) == ([], 1)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def rational_systems(draw):
    """(m, b): a low-rank rational matrix with zeroed rows and columns, and a right-hand side.

    Integral entries are ints or integral Fractions, as the callers pass them.
    b is m times an integer vector (consistent) or drawn at random (mostly
    inconsistent when m is rank-deficient).
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(rows, cols)))
    left = [[draw(_RATIONALS) for _ in range(k)] for _ in range(rows)]
    right = [[draw(st.sampled_from([0, 0, 1, -2, Fraction(3, 2)])) for _ in range(cols)] for _ in range(k)]
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    as_int = draw(st.booleans())
    m = []
    for i in range(rows):
        row = []
        for j in range(cols):
            v = Fraction(0) if i in zero_rows or j in zero_cols else sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
            row.append(v.numerator if as_int and v.denominator == 1 else v)
        m.append(row)
    if draw(st.booleans()):
        x0 = [draw(st.integers(-2, 2)) for _ in range(cols)]
        b = [sum((v * xj for v, xj in zip(row, x0)), Fraction(0)) for row in m]
    else:
        b = [draw(_RATIONALS) for _ in range(rows)]
    return m, b


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_integer_kernel_matches_fraction_elimination(system):
    m, b = system
    before = [row[:] for row in m]
    assert_kernel_matches_oracle(m, b)
    assert m == before
    # a zero row with a nonzero right-hand side is inconsistent whatever m is
    assert fraction_solve(m + [[0] * len(m[0])], b + [Fraction(1, 3)]) is None


def test_integer_kernel_on_rank_zero():
    for m in ([[0]], [[0, 0, 0]], [[Fraction(0)] * 3] * 4):
        assert_kernel_matches_oracle(m, [0] * len(m))
        assert_kernel_matches_oracle(m, [1] + [0] * (len(m) - 1))


def _constraint_matrix(grades):
    """``linear_first_integrals``' constraint matrix: a row per monomial of a grade, a column per state."""
    rows = []
    for g in grades:
        views = [p.monomials() for p in g]
        rows += [[v.get(e, 0) for v in views] for e in sorted(set().union(*views))]
    return rows


FIRST_INTEGRAL_MODELS = sorted(BUILTINS) + [f"transport_binding({N})" for N in range(2, 9)]


@pytest.mark.parametrize("name", FIRST_INTEGRAL_MODELS)
def test_integer_kernel_matches_fraction_elimination_on_model_constraints(name):
    spec = transport_binding(int(name[18:-1])) if name.endswith(")") else BUILTINS[name]()
    scaled = apply_scaling(spec.system, Partition.from_fast(spec.system, spec.fast)).system
    for grades in (spec.system.grades, [scaled.grade(0)]):
        m = _constraint_matrix(grades)
        assert_kernel_matches_oracle(m, [sum(row) for row in m])
    # each first integral is the oracle's basis vector scaled to a primitive integer one
    _, null, _ = _oracle(_constraint_matrix(spec.system.grades))
    got = linear_first_integrals(spec.system)
    assert len(got) == len(null)
    for w, v in zip(got, null):
        c = next(wi / vi for wi, vi in zip(w, v) if vi)
        assert w == [c * vi for vi in v]
        assert all(type(wi) is Fraction and wi.denominator == 1 for wi in w)


def _hurwitz_minors_oracle(coeffs):
    """Leading principal minors of the Hurwitz matrix, each by Laplace expansion."""
    n = len(coeffs) - 1
    H = [
        [coeffs[k] if 0 <= (k := 2 * j - i + 1) <= n else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return [_fraction_det_oracle([row[:m] for row in H[:m]]) for m in range(1, n + 1)]


def test_routh_test_agrees_with_hurwitz_minors():
    rng = random.Random(11)
    stable = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        coeffs = [1] + [rng.choice([-1, 0, 1, 2, 3, 4, 5, 6, 8, 12]) for _ in range(n)]
        want = all(m > 0 for m in _hurwitz_minors_oracle(coeffs))
        assert is_hurwitz_stable(coeffs) == want, coeffs
        stable += want
    # both outcomes occur often enough for the comparison to mean something
    assert 50 < stable < 450


def _poly_product(*factors):
    out = [Fraction(1)]
    for f in factors:
        out = [
            sum((out[i - j] * f[j] for j in range(len(f)) if 0 <= i - j < len(out)), Fraction(0))
            for i in range(len(out) + len(f) - 1)
        ]
    return out


def _cleared(coeffs):
    """[1, d*c1, ..., d^n*cn] for the lcm d of the denominators: integers, roots times d."""
    d = lcm(*[Fraction(c).denominator for c in coeffs])
    out = [Fraction(c) * d**k for k, c in enumerate(coeffs)]
    assert all(c.denominator == 1 for c in out)
    return [c.numerator for c in out]


def test_integer_routh_test_on_rational_coefficients():
    # a rational polynomial cleared to integers as _fraction_char_poly clears
    # its matrix keeps the verdict of its Hurwitz minors
    rng = random.Random(23)

    def positive():
        return Fraction(rng.randint(1, 30), rng.randint(2, 12))

    stable = cases = 0
    for case in range(400):
        if case % 2:
            n = rng.randint(1, 7)
            coeffs = [Fraction(1)] + [Fraction(rng.randint(-4, 30), rng.randint(2, 12)) for _ in range(n)]
        else:
            # left-half-plane factors, then one coefficient nudged: near the boundary
            factors = [[1, positive()] if rng.random() < 0.4 else [1, positive(), positive()]
                       for _ in range(rng.randint(1, 3))]
            coeffs = _poly_product(*factors)
            k = rng.randint(1, len(coeffs) - 1)
            coeffs[k] += Fraction(rng.randint(-3, 3), rng.randint(2, 12))
        if all(c.denominator == 1 for c in coeffs):
            continue
        want = all(m > 0 for m in _hurwitz_minors_oracle(coeffs))
        assert is_hurwitz_stable(_cleared(coeffs)) == want, coeffs
        stable += want
        cases += 1
    assert cases > 350
    assert 50 < stable < cases - 50
    half, third = Fraction(1, 2), Fraction(1, 3)
    boundary = [
        [1, 0, 1],  # x^2 + 1
        [1, 1, 1, 1],  # x^3 + x^2 + x + 1: a zero first-column entry
        [1, third, third ** 2, third ** 3],  # its roots times 1/3
        [1, half, 2 * half ** 2, half ** 3, half ** 4],  # (x^2 + 1/4)(x^2 + x/2 + 1/4)
        _poly_product([1, 0, Fraction(1, 5)], [1, Fraction(3, 2), Fraction(7, 4), Fraction(1, 3)]),
    ]
    for coeffs in boundary:
        coeffs = [Fraction(c) for c in coeffs]
        assert not all(m > 0 for m in _hurwitz_minors_oracle(coeffs)), coeffs
        assert is_hurwitz_stable(_cleared(coeffs)) is False, coeffs


def test_routh_test_refuses_non_integer_coefficients():
    # stable by its Hurwitz minors; floor division in the Routh array would
    # read it unstable, so a Fraction is refused rather than truncated
    coeffs = [Fraction(1), Fraction(1, 4), Fraction(47, 24)]
    assert all(m > 0 for m in _hurwitz_minors_oracle(coeffs))
    assert is_hurwitz_stable(_cleared(coeffs)) is True
    for bad in (coeffs, [1, Fraction(2), 3], [1, 2.0, 3]):
        with pytest.raises(TypeError):
            is_hurwitz_stable(bad)
