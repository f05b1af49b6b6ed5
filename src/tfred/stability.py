"""Stability checks for the fast-block matrix: exact sign tests plus numerics.

The exact path runs the Routh array of a monic characteristic polynomial,
fraction-free on integers.  Its first column holds the ratios of consecutive
leading Hurwitz minors, so all entries positive is equivalent to every root
having negative real part.  The numeric path computes eigenvalues of the
evaluated matrix directly and reports the worst real part.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np


def is_hurwitz_stable(coeffs: Sequence[Fraction]) -> bool:
    """Every root strictly in the left half plane (monic coefficient list).

    ``coeffs`` is [1, a1, ..., an] for x^n + a1*x^(n-1) + ... + an.  With D
    the lcm of the denominators, x^n + D*a1*x^(n-1) + ... + D^n*an has integer
    coefficients and the roots times D, so the same verdict.  One pass over
    its Routh array, O(n^2), stopping at the first first-column entry that is
    not positive.  Row k is kept as Routh row k times the leading Hurwitz
    minor of order k - 1, so its first entry is the minor of order k: integers,
    each the cross product of the two rows above divided exactly by the first
    entry of the row three above.
    """
    ratios = [c.as_integer_ratio() for c in coeffs]
    d = lcm(*[q for _, q in ratios])
    a, dk = [], 1
    for c, q in ratios:
        a.append(c * (dk // q))
        dk *= d
    if any(c <= 0 for c in a[1:]):
        # positivity of all coefficients is necessary for a monic Hurwitz polynomial
        return False
    prev, row, div = a[0::2], a[1::2], 1
    while row:
        if row[0] <= 0:
            return False
        r0, p0 = row[0], prev[0]
        nxt = [(r0 * prev[j + 1] - p0 * (row[j + 1] if j + 1 < len(row) else 0)) // div
               for j in range(len(prev) - 1)]
        prev, row, div = row, nxt, p0
    return True


def eigenvalue_real_parts(matrix: Sequence[Sequence[float]]) -> list[float]:
    eig = np.linalg.eigvals(np.array(matrix, dtype=float))
    return sorted(float(v.real) for v in eig)


def max_real_part(matrix: Sequence[Sequence[float]]) -> float:
    return eigenvalue_real_parts(matrix)[-1]
