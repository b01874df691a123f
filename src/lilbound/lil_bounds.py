"""Assembly of the block-sum tail bounds and their optimization over partitions.

The upper bound for Q(u) = P(sup_n ||S(n)||/(sqrt(n) v(n)) > u) is a sum of
per-block tail conversions

    G(u) = sum_k h(u * v(A(k)) / w),

where A(k) are the partition block starts, v the norming sequence and w the
class-Y(w) parameter.  One assembly, upper_bound, serves the plain (G),
mixed-norm (F) and entropy-functional (Theta) bounds of the paper; they
differ only in how the envelope fed to the tail conversion was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .envelopes import MomentEnvelope, grid_scan_tails, tail_from_envelope
from .partitions import E_E, NormingSequence, Partition, class_Y_check, geometric_partition

__all__ = [
    "BoundEvaluation",
    "upper_bound",
    "OptimizedBound",
    "optimize_bound",
    "lower_bound_Q",
    "TailBoundCurve",
    "evaluate_bound_curve",
    "ShapeFit",
    "fit_bound_shape",
    "MAX_ADMISSIBLE_W_EPS",
]

_TRUNCATION_REL = 1e-16
_DEFAULT_MAX_TERMS = 10_000
MAX_ADMISSIBLE_W_EPS = 1e-9

# Leading terms get the refined tail conversion; deeper terms (whose relative
# mass is far below the truncation threshold's resolution) use the grid-only
# scan, which never undershoots and keeps the bound valid.
_REFINED_TERMS = 32
_BATCH_TERMS = 256
# log A(k) beyond which the -d+1 and +e^e-1 shifts vanish at float precision.
_LOG_HUGE = 512.0


@dataclass(frozen=True)
class BoundEvaluation:
    """One bound value with its bookkeeping.

    value is always a valid probability bound: 1.0 when the series is vacuous
    or fails to truncate (diverged), in which case the corresponding flag is
    set.  terms is the truncation index (number of block terms summed).
    """

    value: float
    vacuous: bool = False
    diverged: bool = False
    terms: int = 0

    def __float__(self) -> float:
        return self.value


def _block_norming_value(partition: Partition, norming: NormingSequence, k: int) -> float:
    if partition.kind == "geometric" and norming.kind == "iterated_log":
        log_a = k * math.log(partition.d)
        if log_a > _LOG_HUGE:
            # A(k) = d^k - d + 1: this deep the -d+1 and +e^e-1 shifts are far
            # below float resolution, so v(A(k)) = (log(k log d))^r exactly
            return math.log(log_a) ** norming.r
    return norming(partition.A(k))


def _sum_block_tails(
    env: MomentEnvelope,
    partition: Partition,
    norming: NormingSequence,
    w: float,
    u: float,
    max_terms: int,
) -> BoundEvaluation:
    total = 0.0
    prev = math.inf
    log_scale = math.log(u / w)
    k = 0
    while k < max_terms:
        # one refined block at a time, then batched grid-only scans, which
        # keep full-horizon walks cheap
        refined = k < _REFINED_TERMS
        batch = 1 if refined else min(_BATCH_TERMS, max_terms - k)
        vs = []
        exhausted = None
        try:
            for j in range(k + 1, k + batch + 1):
                vs.append(_block_norming_value(partition, norming, j))
        except ValueError as exc:
            # only fatal if the walk actually needs this block (below)
            exhausted = exc
        if refined:
            terms = np.array([tail_from_envelope(env, u * v / w) for v in vs])
        else:
            terms = grid_scan_tails(env, log_scale + np.log(vs))
        running = total + np.cumsum(terms)
        for j, term in enumerate(terms):
            if running[j] >= 1.0:
                return BoundEvaluation(1.0, vacuous=True, terms=k + j + 1)
            if term == 0.0:
                # the h argument grows with k and h is non-increasing, so the tail is zero
                return BoundEvaluation(float(running[j]), terms=k + j + 1)
            if term <= prev and term < _TRUNCATION_REL * running[j]:
                return BoundEvaluation(float(running[j]), terms=k + j + 1)
            prev = term
        k += len(vs)
        if exhausted is not None:
            raise ValueError(
                f"partition exhausted at block {k + 1} before the series truncated"
            ) from exhausted
        total = running[-1]
    return BoundEvaluation(1.0, vacuous=True, diverged=True, terms=max_terms)


def upper_bound(
    env: MomentEnvelope,
    partition: Partition,
    norming: NormingSequence,
    w: float,
    u: float,
    *,
    max_terms: int = _DEFAULT_MAX_TERMS,
    y_check_k: int = 64,
) -> BoundEvaluation:
    """Block-sum upper bound from any moment envelope (plain, mixed or entropy).

    Requires u >= e and the partition in class Y(w) (a proven violation
    raises; a finitely-checked inconclusive verdict for explicit or custom
    partitions is accepted and left to the caller's judgement).  The series
    truncates when a term falls below 1e-16 of the running sum while terms
    are decreasing; if that never happens within max_terms the bound is
    reported as diverged with value 1.0 (still a valid probability bound).
    """
    u = _require_u(u)
    verdict = class_Y_check(partition, w, K_check=y_check_k)
    if verdict.status == "violated":
        raise ValueError(
            f"partition is not in class Y(w={w}); ratio drops below w^2 at k={verdict.violated_at}"
        )
    return _sum_block_tails(env, partition, norming, w, u, max_terms)


@dataclass(frozen=True)
class OptimizedBound:
    value: float
    d: int
    w: float
    vacuous: bool = False
    diverged: bool = False
    terms: int = 0


def max_admissible_w(d: int) -> float:
    """Largest usable w for the geometric partition with ratio infimum d."""
    return math.sqrt(d) - MAX_ADMISSIBLE_W_EPS


def optimize_bound(
    env: MomentEnvelope,
    norming: NormingSequence,
    u: float,
    d_range=range(2, 17),
    *,
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> OptimizedBound:
    """Minimize the bound over the geometric partition family.

    Each candidate d uses its maximal admissible w = sqrt(d) - 1e-9 (the bound
    improves with w for fixed partition).  Ties break toward smaller d; if
    every candidate is vacuous the result is 1.0 with the vacuous flag set.
    """
    best: Optional[OptimizedBound] = None
    for d in d_range:
        w = max_admissible_w(d)
        ev = _sum_block_tails(env, geometric_partition(d), norming, w, _require_u(u), max_terms)
        cand = OptimizedBound(ev.value, d, w, ev.vacuous, ev.diverged, ev.terms)
        if best is None or cand.value < best.value:
            best = cand
    if best is None:
        raise ValueError("empty partition family")
    return best


def _require_u(u: float) -> float:
    if u < math.e:
        raise ValueError("the bound is stated for u >= e")
    return u


def lower_bound_Q(
    xi_norm_tail: Callable[[float], float],
    u: float,
    *,
    C: Optional[float] = None,
    norming_r: Optional[float] = None,
) -> float:
    """Lower bound for Q(u): always P(||xi|| > u); for the r = 1/2 norming also
    exp(-C u^2 log log u) for u > e^e, with user-supplied C > 0.

    Requesting the r = 1/2 branch (norming_r == 0.5) without C is an error;
    the constant is not pinned down by the theory and must be supplied.
    """
    branch = float(xi_norm_tail(u))
    branch = min(1.0, max(0.0, branch))
    if norming_r is not None and norming_r == 0.5:
        if C is None:
            raise ValueError("the r = 1/2 lower-bound branch requires the constant C")
        if C <= 0.0:
            raise ValueError("C must be positive")
        if u > E_E:
            branch = max(branch, math.exp(-C * u * u * math.log(math.log(u))))
    return branch


@dataclass
class TailBoundCurve:
    """Evaluated bound curve u -> value with per-point provenance.

    d_values/w_values/truncation_k/vacuous_flags are per-point when the curve
    was optimized per u (they may still be constant); provenance carries the
    scalar metadata (optimized or not, norming power, envelope label).
    """

    u_grid: np.ndarray
    values: np.ndarray
    provenance: dict = field(default_factory=dict)
    d_values: Optional[np.ndarray] = None
    w_values: Optional[np.ndarray] = None
    truncation_k: Optional[np.ndarray] = None
    vacuous_flags: Optional[np.ndarray] = None

    def __post_init__(self):
        u = np.asarray(self.u_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if u.ndim != 1 or vals.shape != u.shape:
            raise ValueError("u_grid and values must be matching 1-d arrays")
        if not np.all(np.isfinite(u)):
            raise ValueError("u grid must be finite")
        if np.any(np.diff(u) <= 0.0):
            raise ValueError("u grid must be strictly increasing")
        if u[0] < math.e - 1e-12:
            raise ValueError("u grid must start at or above e")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):  # NaN fails both
            raise ValueError("bound values must lie in [0, 1]")
        self.u_grid = u
        self.values = vals


def evaluate_bound_curve(
    env: MomentEnvelope,
    norming: NormingSequence,
    u_grid,
    *,
    optimize: bool = False,
    d: int = 2,
    w: Optional[float] = None,
    d_range=range(2, 17),
    max_terms: int = _DEFAULT_MAX_TERMS,
) -> TailBoundCurve:
    """Evaluate the bound on a u grid, optionally optimizing the partition per u."""
    u_grid = np.asarray(u_grid, dtype=float)
    n = u_grid.size
    values = np.empty(n)
    ds = np.empty(n, dtype=int)
    ws = np.empty(n)
    ks = np.empty(n, dtype=int)
    flags = np.zeros(n, dtype=bool)
    if not optimize:
        if w is None:
            w = max_admissible_w(d)
        partition = geometric_partition(d)
    for i, u in enumerate(u_grid):
        if optimize:
            res = optimize_bound(env, norming, float(u), d_range, max_terms=max_terms)
        else:
            ev = upper_bound(env, partition, norming, w, float(u), max_terms=max_terms)
            res = OptimizedBound(ev.value, d, w, ev.vacuous, ev.diverged, ev.terms)
        values[i], ds[i], ws[i], ks[i] = res.value, res.d, res.w, res.terms
        flags[i] = res.vacuous or res.diverged
    prov = {
        "optimized": optimize,
        "norming_r": norming.r,
        "envelope": env.label or env.kind,
    }
    return TailBoundCurve(u_grid, values, prov, ds, ws, ks, flags)


@dataclass(frozen=True)
class ShapeFit:
    """Least-squares fit of a curve to exp(-C u^beta1 log^beta2 u)."""

    beta1: float
    beta2: float
    C: float
    residual: float
    n_points: int


def fit_bound_shape(curve: TailBoundCurve, *, log_power: Optional[float] = None) -> Optional[ShapeFit]:
    """Fit log(-log value) = log C + beta1 log u + beta2 log log u.

    With log_power given, beta2 is pinned at that value and only (C, beta1)
    are fitted; log u and log log u are nearly collinear on practical u
    ranges, so the free three-parameter fit can split the decay arbitrarily
    between them while a pinned fit recovers the u-power reliably.  Only
    points with value strictly inside (0, 1) are usable; returns None
    (unfittable) when fewer than 5 remain.  Reporting-only: fitted shapes are
    never used inside any bound.
    """
    mask = (curve.values > 0.0) & (curve.values < 1.0)
    u = curve.u_grid[mask]
    vals = curve.values[mask]
    if u.size < 5:
        return None
    y = np.log(-np.log(vals))
    logu = np.log(u)
    if log_power is None:
        design = np.column_stack([np.ones_like(logu), logu, np.log(logu)])
        beta2 = None
    else:
        design = np.column_stack([np.ones_like(logu), logu])
        y = y - log_power * np.log(logu)
        beta2 = float(log_power)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    if beta2 is None:
        beta2 = float(coef[2])
    resid = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return ShapeFit(beta1=float(coef[1]), beta2=beta2, C=float(math.exp(coef[0])), residual=resid, n_points=int(u.size))
