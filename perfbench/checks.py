"""Independent recomputation of block-series bounds by a dense scan over L.

The program converts each block term with a grid scan plus golden-section
refinement.  Here every term is recomputed from the envelope's own log g by
scanning L densely: the envelope's knots together with 4096 log-spaced
points over the same span, then two nested local scans of 65 points around
the best point for the leading terms (the ones the program refines).  A
value the program reports below this recomputation times (1 - 1e-6) is not
backed by any L the scan can find, so it counts as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np

from lilbound import NormingSequence, geometric_partition

REL_TOL = 1e-6
_COARSE_POINTS = 4096
_FINE_POINTS = 65
_REFINED_TERMS = 32


class DenseScan:
    """Dense log g table of one envelope, evaluated once and reused for every term."""

    def __init__(self, env):
        self.env = env
        lo, hi = float(env.L_grid[0]), float(env.L_grid[-1])
        self.L = np.union1d(env.L_grid, np.geomspace(lo, hi, _COARSE_POINTS))
        self.log_g = np.array([env.log_g(float(L)) for L in self.L])

    def _local(self, lam_lo, lam_hi, log_z):
        lo, hi = float(self.env.L_grid[0]), float(self.env.L_grid[-1])
        lams = np.linspace(lam_lo, lam_hi, _FINE_POINTS)
        Ls = np.clip(np.exp(lams), lo, hi)
        obj = np.array([L * (self.env.log_g(float(L)) - log_z) for L in Ls])
        i = int(np.argmin(obj))
        return float(obj[i]), lams, i

    def log_h(self, z: float, refine: bool) -> float:
        log_z = math.log(z)
        with np.errstate(invalid="ignore"):
            obj = self.L * (self.log_g - log_z)
        i = int(np.argmin(obj))
        best = float(obj[i])
        if refine and best > -math.inf:
            lam = np.log(self.L)
            lam_lo, lam_hi = lam[max(i - 1, 0)], lam[min(i + 1, lam.size - 1)]
            for _ in range(2):
                val, lams, j = self._local(lam_lo, lam_hi, log_z)
                best = min(best, val)
                lam_lo, lam_hi = lams[max(j - 1, 0)], lams[min(j + 1, lams.size - 1)]
        return min(best, 0.0)


def dense_series(scan: DenseScan, r: float, d: int, w: float, u: float, terms: int) -> float:
    """min(1, sum_{k <= terms} h(u v(A(k)) / w)) with h from the dense scan."""
    norming = NormingSequence.iterated_log(r)
    partition = geometric_partition(d)
    total = 0.0
    for k in range(1, terms + 1):
        z = u * norming(partition.A(k)) / w
        total += math.exp(scan.log_h(z, refine=k <= _REFINED_TERMS))
        if total >= 1.0:
            return 1.0
    return total


def probability_problem(value: float) -> str:
    """Reason a reported probability is invalid, or '' when it is fine."""
    if not math.isfinite(value):
        return f"{value!r} is not finite"
    if value < 0.0 or value > 1.0:
        return f"{value!r} lies outside [0, 1]"
    return ""


def bound_problem(value: float) -> str:
    """As probability_problem, and a bound of exactly 0 fails too: every
    benchmark field has nonzero moments, so no true tail probability is 0."""
    if value == 0.0:
        return "bound is exactly 0 from a field with nonzero moments"
    return probability_problem(value)


def below_dense(value: float, scan: DenseScan, r, d, w, u, terms) -> str:
    """'' when value >= dense recomputation * (1 - REL_TOL), else the reason."""
    if value >= 1.0:
        return ""  # vacuous or diverged: 1.0 bounds any probability
    dense = dense_series(scan, r, d, w, u, terms)
    if value < dense * (1.0 - REL_TOL):
        return f"value {value!r} below dense-scan recomputation {dense!r}"
    return ""
