"""Matrix layer: fraction-free solves, factorizations, characteristic polynomials."""

import random
from fractions import Fraction

import pytest

from tfred.rational import Context, RationalFunction
from tfred.stability import is_hurwitz_stable
from tfred.matrices import (
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
)


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
    assert Gt.rank_at(_positive_sample()) == 1
    assert R.rank_at(_positive_sample()) == 1


def test_rank_and_factor_rejects_zero_matrix(mm):
    with pytest.raises(RankError):
        rank_and_factor(RFMatrix.zero(mm, 2, 2), _positive_sample())


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
