"""Stability checks for the fast-block matrix: exact sign tests plus numerics.

The exact path runs the Routh array of a monic characteristic polynomial with
rational coefficients: its first column holds the ratios of consecutive
leading Hurwitz minors, so all entries positive is equivalent to every root
having negative real part.  The numeric path computes eigenvalues of the
evaluated matrix directly and reports the worst real part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np


def is_hurwitz_stable(coeffs: Sequence[Fraction]) -> bool:
    """Every root strictly in the left half plane (monic coefficient list).

    ``coeffs`` is [1, a1, ..., an] for x^n + a1*x^(n-1) + ... + an.  One
    pass over the Routh array, O(n^2), stopping at the first first-column
    entry that is not positive.
    """
    a = [Fraction(c) for c in coeffs]
    if any(c <= 0 for c in a[1:]):
        # positivity of all coefficients is necessary for a monic Hurwitz polynomial
        return False
    prev, row = a[0::2], a[1::2]
    while row:
        if row[0] <= 0:
            return False
        nxt = [prev[j + 1] - prev[0] * (row[j + 1] if j + 1 < len(row) else 0) / row[0]
               for j in range(len(prev) - 1)]
        prev, row = row, nxt
    return True


def eigenvalue_real_parts(matrix: Sequence[Sequence[float]]) -> list[float]:
    eig = np.linalg.eigvals(np.array(matrix, dtype=float))
    return sorted(float(v.real) for v in eig)


def max_real_part(matrix: Sequence[Sequence[float]]) -> float:
    return eigenvalue_real_parts(matrix)[-1]
