"""Stability checks for the fast-block matrix: exact sign tests plus numerics.

The exact path evaluates the leading principal minors of the Hurwitz matrix of
a monic characteristic polynomial with rational coefficients; all minors
positive is equivalent to every root having negative real part.  The numeric
path computes eigenvalues of the evaluated matrix directly and reports the
worst real part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .matrices import fraction_echelon


def hurwitz_minors(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Leading principal minors of the Hurwitz matrix of a monic polynomial.

    ``coeffs`` is [a0, a1, ..., an] with a0 = 1 for
    a0*x^n + a1*x^(n-1) + ... + an.
    """
    a = list(coeffs)
    n = len(a) - 1
    if n == 0:
        return []
    H = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k = 2 * (j + 1) - (i + 1)
            if 0 <= k <= n:
                H[i][j] = Fraction(a[k])
    minors = []
    for m in range(1, n + 1):
        sub = [row[:m] for row in H[:m]]
        minors.append(_det_fraction(sub))
    return minors


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    a = [row[:] for row in m]
    n = len(a)
    pivots, sign = fraction_echelon(a, n)
    if len(pivots) < n:
        return Fraction(0)
    det = Fraction(sign)
    for k in range(n):
        det *= a[k][k]
    return det


def is_hurwitz_stable(coeffs: Sequence[Fraction]) -> bool:
    """Every root strictly in the left half plane (monic coefficient list)."""
    if len(coeffs) <= 1:
        return True
    if any(Fraction(c) <= 0 for c in coeffs[1:]):
        # positivity of all coefficients is necessary for a monic Hurwitz polynomial
        return False
    return all(m > 0 for m in hurwitz_minors(coeffs))


def eigenvalue_real_parts(matrix: Sequence[Sequence[float]]) -> list[float]:
    eig = np.linalg.eigvals(np.array(matrix, dtype=float))
    return sorted(float(v.real) for v in eig)


def max_real_part(matrix: Sequence[Sequence[float]]) -> float:
    return eigenvalue_real_parts(matrix)[-1]
