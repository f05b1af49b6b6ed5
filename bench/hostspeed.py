"""Host-speed meter: a fixed reference kernel timed in between the jobs.

On a shared host the speed of a core drifts by up to 1.5x over tens of
seconds to minutes, as other tenants come and go; a program's wall time
drifts with it.  The meter runs a fixed piece of pure-Python work (a sparse
polynomial product with Fraction coefficients, the same kind of work as
tfred's exact kernel, but written here and never changed with the program)
right after every job, for a fixed share of that job's time.  The reference
work is thus sampled in proportion to the time the jobs take, and its mean
unit time over a run is the host's speed as the jobs saw it.

``normalised(seconds)`` rescales a measured time to the reference speed:
seconds * REFERENCE_UNIT_S / (the run's mean unit time).  A faster program
lowers the measured seconds and leaves the unit time alone, so the
normalised time falls with it; a slower host raises both and the ratio stays.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Mean unit time of the reference kernel at the reference speed: a round
# 1 ms, near its mean on the shared 2-vCPU Xeon VM the benchmark was written
# on (0.7 to 1.2 ms as the load of that host varied).  It only sets the scale
# of normalised times.
REFERENCE_UNIT_S = 1.0e-3
# Reference work after each job, as a share of the job's measured time.
SHARE = 0.15


def _operand(seed: int, n: int) -> dict[tuple[int, int, int], Fraction]:
    """A fixed sparse polynomial in three variables with n terms at most."""
    out = {}
    x = seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2**31
        out[(x % 4, (x >> 3) % 4, (x >> 6) % 3)] = Fraction(x % 97 - 48, 1 + (x >> 9) % 7)
    return out


_A, _B = _operand(1, 14), _operand(2, 14)


def unit() -> int:
    """One unit of reference work: the product of two fixed polynomials."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return len(out)


class Meter:
    """Accumulates reference units and their time over a run."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def sample(self, job_seconds: float):
        """Run reference units for SHARE of a job's time (at least one)."""
        target = SHARE * job_seconds
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            unit()
            spent += time.perf_counter() - t0
            self.units += 1
            if spent >= target:
                break
        self.seconds += spent

    def unit_s(self) -> float:
        """Mean time of one reference unit so far."""
        return self.seconds / self.units

    def normalised(self, seconds: float) -> float:
        """A measured time rescaled to the reference host speed."""
        return seconds * REFERENCE_UNIT_S / self.unit_s()
