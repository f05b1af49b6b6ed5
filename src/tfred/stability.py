"""Stability checks for the fast-block matrix: exact sign tests plus numerics.

The exact path runs the Routh array of a monic characteristic polynomial with
integer coefficients, fraction-free.  Its first column holds the ratios of
consecutive leading Hurwitz minors, so all entries positive is equivalent to
every root having negative real part.  The numeric path computes the
eigenvalues of all of a certificate's evaluated matrices in one stacked call
and reports the worst real part of each.
"""

from __future__ import annotations

from typing import Sequence


def is_hurwitz_stable(coeffs: Sequence[int]) -> bool:
    """Every root strictly in the left half plane (monic integer coefficient list).

    ``coeffs`` is [1, a1, ..., an] for x^n + a1*x^(n-1) + ... + an; a
    coefficient that is not an int raises TypeError, since the array's exact
    divisions hold only on integers.  One pass over its Routh array, O(n^2),
    stopping at the first first-column entry that is not positive.  Row k is
    kept as Routh row k times the leading Hurwitz minor of order k - 1, so its
    first entry is the minor of order k: integers, each the cross product of
    the two rows above divided exactly by the first entry of the row three
    above.
    """
    if not all(isinstance(c, int) for c in coeffs):
        raise TypeError("the Routh test takes int coefficients")
    if any(c <= 0 for c in coeffs[1:]):
        # positivity of all coefficients is necessary for a monic Hurwitz polynomial
        return False
    prev, row, div = coeffs[0::2], coeffs[1::2], 1
    while row:
        if row[0] <= 0:
            return False
        r0, p0 = row[0], prev[0]
        nxt = [(r0 * prev[j + 1] - p0 * (row[j + 1] if j + 1 < len(row) else 0)) // div
               for j in range(len(prev) - 1)]
        prev, row, div = row, nxt, p0
    return True


def max_real_part(matrices: Sequence[Sequence[Sequence[float]]]) -> list[float]:
    """The largest eigenvalue real part of each matrix of a stack of n x n matrices.

    One ``np.linalg.eigvals`` call on the (k, n, n) array.  It runs the same
    LAPACK routine on each matrix as a call on that matrix alone, so every
    value is bit-identical to the per-matrix result.
    """
    import numpy as np
    return np.linalg.eigvals(np.array(matrices, dtype=float)).real.max(axis=1).tolist()
