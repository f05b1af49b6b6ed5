"""Matrix layer: fraction-free solves, factorizations, characteristic polynomials."""

import random
from fractions import Fraction

import pytest

from tfred.rational import Context, RationalFunction, SymbolicError
from tfred.stability import is_hurwitz_stable
from tfred.matrices import (
    BackSubstitutionError,
    ConsistencyError,
    NoSolution,
    RFMatrix,
    RankError,
    char_poly,
    determinant,
    fraction_nullspace,
    fraction_rank,
    fraction_solve,
    hadamard_factor,
    invert,
    jacobian,
    linear_solve,
    rank_and_factor,
    solve_matrix,
    _fraction_free_back_substitute,
)
from tfred.reduction import ReductionError, default_sample, find_decomposition


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


def test_rank_error_names_the_column_outside_the_span(mm):
    # at k1 = 1 every entry is 1, so column 2 alone is selected; column 0
    # equals it symbolically, column 1 does not
    M = RFMatrix(mm, [[mm.one(), mm.one(), mm.one()], [mm.parse("k1"), mm.one(), mm.parse("k1")]])
    with pytest.raises(RankError, match="column 1 is not in the span"):
        rank_and_factor(M, {**_positive_sample(), "k1": Fraction(1)})


def test_inexact_pivot_division_raises():
    # [[k1, 1 | 0], [0, km1 | 1]] is no Bareiss echelon form: the last pivot
    # km1 times x0 = -1/(k1*km1) is not a polynomial
    ctx = Context(["s"], ["k1", "km1"])
    ech = [[ctx.sym("k1"), ctx.one(), ctx.zero()], [ctx.zero(), ctx.sym("km1"), ctx.one()]]
    assert issubclass(BackSubstitutionError, SymbolicError)
    with pytest.raises(BackSubstitutionError, match="echelon row 0"):
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
    s1, Gt, R = rank_and_factor(G0, _positive_sample())
    assert s1 == 1
    assert Gt.entries[0][0] == mm.parse("km1 + k2")
    assert Gt.entries[1][0] == mm.parse("-(km1 + k2)")
    assert R.entries[0][0] == mm.parse("-k1*s / (km1 + k2)")
    assert R.entries[0][1] == mm.parse("1")
    assert (Gt @ R - G0).is_zero()


def test_rank_and_factor_invertible_identity_R(mm):
    M = RFMatrix(mm, [[mm.parse_poly("k1"), mm.zero()], [mm.one(), mm.parse_poly("k2*s")]])
    s1, Gt, R = rank_and_factor(M, _positive_sample())
    assert s1 == 2
    assert Gt == M
    assert (R - RFMatrix.identity(mm, 2)).is_zero()


def test_rank_and_factor_recovers_rank_one_product(mm):
    rng = random.Random(5)
    col = [mm.parse_poly("k1*s + 1"), mm.parse_poly("e_star"), mm.parse_poly("km1")]
    row = [mm.parse_poly("c_star"), mm.parse_poly("k2"), mm.parse_poly("s + e_star")]
    M = RFMatrix.column(mm, col) @ RFMatrix(mm, [row])
    s1, Gt, R = rank_and_factor(M, _positive_sample())
    assert s1 == 1
    assert (Gt @ R - M).is_zero()
    assert fraction_rank(Gt.eval(_positive_sample())) == 1
    assert fraction_rank(R.eval(_positive_sample())) == 1


def test_rank_and_factor_rejects_zero_matrix(mm):
    with pytest.raises(RankError):
        rank_and_factor(RFMatrix(mm, [[0, 0], [0, 0]]), _positive_sample())


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
    sample = {"x": Fraction(1), "a": Fraction(3, 2), "b": Fraction(2)}
    for _ in range(12):
        m, n = rng.randint(2, 5), rng.randint(3, 6)
        cols, r = random_columns(rng, m, n, case)
        # scaling row i by a + (i+1)*b keeps the column dependencies exact
        scale = [ctx.sym("a") + ctx.sym("b") * (i + 1) for i in range(m)]
        M = RFMatrix(ctx, [[scale[i] * cols[j][i] for j in range(n)] for i in range(m)])
        s1, G, R = rank_and_factor(M, sample)
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
        coeffs = [Fraction(1)] + [Fraction(rng.choice([-1, 0, 1, 2, 3, 4, 5, 6, 8, 12])) for _ in range(n)]
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


def test_integer_routh_test_on_rational_coefficients():
    # non-integral coefficients are cleared to integers before the Routh array
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
        assert is_hurwitz_stable(coeffs) == want, coeffs
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
        assert is_hurwitz_stable(coeffs) is False, coeffs
