"""Assembly of the block-sum tail bounds and their optimization over partitions.

The upper bound for Q(u) = P(sup_n ||S(n)||/(sqrt(n) v(n)) > u) is a sum of
per-block tail conversions

    G(u) = sum_k h(u * v(A(k)) / w),

where A(k) are the partition block starts, v the norming sequence and w the
class-Y(w) parameter.  One assembly, upper_bound, serves the plain (G),
mixed-norm (F) and entropy-functional (Theta) bounds of the paper; they
differ only in how the envelope fed to the tail conversion was built.

Two skips save work without changing a value.  optimize_bound skips a
partition candidate whose first term alone already loses to the best value
so far (see its docstring).  And where the series provably diverges the
walk is skipped: an envelope with r0 > 0 claims that the series diverges
for every norming power r < r0.  A field envelope claims r0 = gamma when
its g grows like L^gamma / log L (gamma = 1 for bounded fields, 3/2 for
gaussian, 1 + 1/beta for weibull, as simulate's family table gives it to
FieldSpec.growth), by this argument:

* Lower growth of g.  A field envelope is g(L) = 2 K_R(L) root(L) with
  K_R(L) = C L / (e log L) and root(L) = ||x -> (E|xi(x)|^L)^(1/L)||, the
  norm of the pointwise moment roots in the space's fixed exponents.  That
  norm is monotone in its argument, and root(L) >= c L^(gamma - 1) > 0 for
  all L >= p unless the field is 0 (then g = 0, r0 = 0 and every bound is
  0): each pointwise root is nondecreasing in L (Lyapunov; Omega is a
  probability space), so a bounded field has root(L) >= root(p); a
  gaussian root is >= sigma(x) sqrt(L / e), so root(L) >= ||sigma||
  sqrt(L / e); and a weibull root is Gamma(L / beta + 1)^(1/L) >=
  (L / (e beta))^(1/beta) at every x, so root(L) >= ||1|| (L / (e beta))^(1/beta).
  So g(L) >= c1 L^gamma / log L with c1 = 2 C c / e.
* Bound on log h.  log h(z) is the infimum of L log(g(L) / z), and with
  L* the root of c1 L*^gamma / log L* = z this is > 0 for L > L* and, for
  L <= L*, >= L log(c1 L^gamma / (z log L*)) >= -gamma (z log L* / c1)^(1/gamma) / e.
  Since log L* ~ log(z) / gamma, log h(z) >= -c2 (z log z)^(1/gamma) for
  large z and some c2 > 0.  Restricting L to a grid span, as the tail
  conversion does, takes the infimum over fewer L: it only makes h larger,
  and the bound still holds.
* Terms.  With v(A(k)) ~ (ln k)^r the term a_k = h(u v(A(k)) / w) has
  log a_k >= -c3 ((ln k)^r ln ln k)^(1/gamma), which is o(ln k) for
  r < gamma.
* Divergence.  So k a_k -> infinity, a_k > 1/k for all large k, and the sum
  is infinite: the only bound is 1, flagged diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .envelopes import MomentEnvelope, grid_scan_tails, tail_from_envelope
from .partitions import NormingSequence, Partition, class_Y_check, geometric_partition

__all__ = [
    "BoundEvaluation",
    "upper_bound",
    "optimize_bound",
    "max_admissible_w",
    "TailBoundCurve",
    "evaluate_bound_curve",
    "ShapeFit",
    "fit_bound_shape",
    "MAX_ADMISSIBLE_W_EPS",
]

_TRUNCATION_REL = 1e-16
_MAX_TERMS = 10_000
_D_RANGE = range(2, 17)
MAX_ADMISSIBLE_W_EPS = 1e-9
# A partition candidate is skipped only if its first-term floor, shrunk by this margin, still loses
_SKIP_MARGIN = 1e-2

# Leading terms get the refined tail conversion (the closed-form minimum of
# the interpolated objective around the best knot, priced by one exact g on
# callables); deeper terms, whose relative mass is far below the truncation
# threshold's resolution, use the windowed grid-only scan, which never
# undershoots and keeps the bound valid.
_REFINED_TERMS = 32
_BATCH_TERMS = 256
# log A(k) beyond which the -d+1 and +e^e-1 shifts vanish at float precision.
_LOG_HUGE = 512.0


@dataclass(frozen=True)
class BoundEvaluation:
    """One bound value with its bookkeeping.

    value is always a valid probability bound: 1.0 when the series is vacuous
    or diverged, in which case the corresponding flag is set (a diverged
    value is vacuous too).  Diverged means that the norming power lies below
    the envelope's r0, where the walk is skipped and terms is 0, or that the
    series failed to truncate within 10,000 terms.  Otherwise terms is the
    truncation index (number of block terms summed); d and w are the
    geometric partition and class parameter the value was summed with.
    """

    value: float
    d: int
    w: float
    vacuous: bool = False
    diverged: bool = False
    terms: int = 0


def _block_norming_value(partition: Partition, norming: NormingSequence, k: int) -> float:
    log_a = k * math.log(partition.d)
    if log_a > _LOG_HUGE:
        # A(k) = d^k - d + 1: this deep the -d+1 and +e^e-1 shifts are far
        # below float resolution, so v(A(k)) = (log(k log d))^r exactly
        return math.log(log_a) ** norming.r
    return norming(partition.A(k))


# (d, r) -> v(A(k)) for k = 1..len, shared by every walk; at most _MAX_TERMS
# entries each, and at most _MAX_TABLES keys, so scans over r stay bounded.
# Threads racing on one key can only store a shorter correct prefix.
_NORMING_TABLES: dict[tuple[int, float], np.ndarray] = {}
_MAX_TABLES = 64
_NO_TERMS = np.empty(0)


def _block_normings(partition: Partition, norming: NormingSequence, stop: int) -> np.ndarray:
    """v(A(k)) at index k - 1 for k = 1..stop, grown on demand from _block_norming_value."""
    key = (partition.d, norming.r)
    table = _NORMING_TABLES.get(key, _NO_TERMS)
    if table.size < stop:
        if table.size == 0 and len(_NORMING_TABLES) >= _MAX_TABLES:
            _NORMING_TABLES.clear()
        fresh = [_block_norming_value(partition, norming, k) for k in range(table.size + 1, stop + 1)]
        table = _NORMING_TABLES[key] = np.concatenate([table, fresh])
    return table


def _sum_block_tails(
    env: MomentEnvelope,
    partition: Partition,
    norming: NormingSequence,
    w: float,
    u: float,
    cutoff: float = 1.0,
) -> tuple[Optional[BoundEvaluation], Optional[float]]:
    """The block series, or None once the running sum reaches a cutoff below 1, with its first term.

    Every term is >= 0, so the running sum never exceeds the final value: a
    walk cut off at its cutoff could at most tie it.  With the cutoff at 1
    the walk is never cut; reaching 1 makes the value vacuous.  Below the
    envelope's r0 the series diverges (see the module docstring), and the
    value is 1 without a term: the first term is then None.
    """
    d = partition.d
    if norming.r < env.r0:
        return (BoundEvaluation(1.0, d, w, vacuous=True, diverged=True) if cutoff >= 1.0 else None), None
    first = None
    total = 0.0
    log_scale = math.log(u / w)
    k = 0
    while k < _MAX_TERMS:
        # one refined block at a time, then batched grid-only scans, which
        # keep full-horizon walks cheap
        refined = k < _REFINED_TERMS
        batch = 1 if refined else min(_BATCH_TERMS, _MAX_TERMS - k)
        vs = _block_normings(partition, norming, k + batch)[k : k + batch]
        if refined:
            terms = np.array([tail_from_envelope(env, u * v / w) for v in vs.tolist()])
            if first is None:
                first = float(terms[0])
        else:
            terms = grid_scan_tails(env, log_scale + np.log(vs))
        running = total + np.cumsum(terms)
        # the h argument grows with k and h is non-increasing, so after a zero
        # term the tail is zero; no decreasing-term guard on the relative
        # stop: a rising run below its threshold began within ulps of it
        stops = np.flatnonzero((running >= cutoff) | (terms == 0.0) | (terms < _TRUNCATION_REL * running))
        if stops.size:
            j = int(stops[0])
            if running[j] < cutoff:
                return BoundEvaluation(float(running[j]), d, w, terms=k + j + 1), first
            if cutoff < 1.0:
                return None, first
            return BoundEvaluation(1.0, d, w, vacuous=True, terms=k + j + 1), first
        k += batch
        total = running[-1]
    return BoundEvaluation(1.0, d, w, vacuous=True, diverged=True, terms=_MAX_TERMS), first


def upper_bound(
    env: MomentEnvelope,
    partition: Partition,
    norming: NormingSequence,
    w: float,
    u: float,
) -> BoundEvaluation:
    """Block-sum upper bound from any moment envelope (plain, mixed or entropy).

    Requires u >= e and the partition in class Y(w), i.e. w^2 <= d (a
    violation raises, naming the first block whose ratio drops below w^2).
    The series truncates when a term falls below 1e-16 of the running sum;
    if that never happens within 10,000 terms the bound is reported as
    diverged with value 1.0 (still a valid probability bound).  When the
    norming power is below env.r0 the series provably diverges: the result
    is the same 1.0, flagged diverged, with terms 0 and no term evaluated.
    """
    u = _require_u(u)
    violated_at = class_Y_check(partition, w)
    if violated_at is not None:
        raise ValueError(
            f"partition is not in class Y(w={w}); ratio drops below w^2 at k={violated_at}"
        )
    return _sum_block_tails(env, partition, norming, w, u)[0]


def max_admissible_w(d: int) -> float:
    """Largest usable w for the geometric partition with ratio infimum d."""
    return math.sqrt(d) - MAX_ADMISSIBLE_W_EPS


def optimize_bound(env: MomentEnvelope, norming: NormingSequence, u: float) -> BoundEvaluation:
    """Minimize the bound over the geometric partitions d = 2..16.

    Each candidate d uses w_d = sqrt(d) - 1e-9, the largest w with w^2 <= d.
    The terms h(u v(A(k)) / w) grow with w, so this is the worst admissible
    w for the partition, not the best.  Ties break toward smaller d; if every
    candidate is vacuous the result is 1.0 with the vacuous flag set.  The
    result is the same as walking every candidate to its end, by two
    arguments:

    * Cut-off.  Candidates are walked in order of d, and a walk is cut once
      its running sum reaches the best value so far: it could then at most
      tie, and ties go to the smaller d.
    * First-term certificate.  A(1) = 1 for every d, so candidate d's first
      term is h(z / c) with z = u v(1) / w_2 and c = w_d / w_2 > 1.  Every
      order L the tail conversion evaluates is >= L0 > 0, the envelope's
      first knot, so each objective L (log g(L) - log z) rises by at least
      L0 log c from z to z / c, and h(z / c) >= min(1, c^L0 m), with m the
      exact minimum of (g(L) / z)^L.  The d = 2 walk's first term t1 is
      that minimum or a little above it, so d is skipped once
      L0 log c + log t1 + log(1 - 1e-2) >= log(best value): terms are >= 0,
      and it could at most tie.  The test is taken in log space, where a
      large L0 cannot overflow c^L0, and c grows with d while the best value
      only falls, so every later d is skipped too.  The 1e-2 margin covers
      t1's excess over m: on a callable envelope t1 is the exact objective
      at the interpolated argmin, measured 0 to 1.9e-3 relative above the
      minimum (found by Brent's method to 1e-8 in log L) over 3,000 z on
      the four families' lp and mixed envelopes; on a grid envelope it is
      the refinement's roundoff.  Were the
      certificate fooled, the value printed would still be a valid bound,
      from the best candidate walked.

    Below the envelope's r0 every candidate is the same diverged 1.0, and
    d = 2 is the one reported.
    """
    u = _require_u(u)
    w_2 = max_admissible_w(2)
    best, first = _sum_block_tails(env, geometric_partition(2), norming, w_2, u)
    if first is None:
        return best
    L0 = float(env.L_grid[0])
    log_floor = math.log(first) + math.log1p(-_SKIP_MARGIN) if first > 0.0 else -math.inf
    for d in _D_RANGE[1:]:
        w = max_admissible_w(d)
        if best.value == 0.0 or L0 * math.log(w / w_2) + log_floor >= math.log(best.value):
            break
        ev, _ = _sum_block_tails(env, geometric_partition(d), norming, w, u, best.value)
        if ev is not None and ev.value < best.value:
            best = ev
    return best


def _require_u(u: float) -> float:
    if u < math.e:
        raise ValueError("the bound is stated for u >= e")
    return u


def _check_u_grid(u: np.ndarray) -> None:
    """Reject a u grid that is not 1-d, nonempty, finite and strictly increasing."""
    if u.ndim != 1 or u.size == 0:
        raise ValueError("u grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(u)):
        raise ValueError("u grid must be finite")
    if np.any(np.diff(u) <= 0.0):
        raise ValueError("u grid must be strictly increasing")


@dataclass
class TailBoundCurve:
    """Evaluated bound curve u -> value with per-point provenance.

    d_values/w_values/truncation_k/vacuous_flags/diverged_flags are
    per-point when the curve was optimized per u (they may still be
    constant); a vacuous flag is set on diverged points too.  provenance
    carries the scalar metadata (optimized or not, norming power, envelope
    label).
    """

    u_grid: np.ndarray
    values: np.ndarray
    provenance: dict = field(default_factory=dict)
    d_values: Optional[np.ndarray] = None
    w_values: Optional[np.ndarray] = None
    truncation_k: Optional[np.ndarray] = None
    vacuous_flags: Optional[np.ndarray] = None
    diverged_flags: Optional[np.ndarray] = None

    def __post_init__(self):
        u = np.asarray(self.u_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        _check_u_grid(u)
        if vals.shape != u.shape:
            raise ValueError("u_grid and values must have the same shape")
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
) -> TailBoundCurve:
    """Evaluate the bound on a u grid, optionally optimizing the partition per u."""
    u_grid = np.asarray(u_grid, dtype=float)
    if optimize:
        evals = [optimize_bound(env, norming, float(u)) for u in u_grid]
    else:
        w = max_admissible_w(d) if w is None else w
        partition = geometric_partition(d)
        evals = [upper_bound(env, partition, norming, w, float(u)) for u in u_grid]
    prov = {
        "optimized": optimize,
        "norming_r": norming.r,
        "envelope": env.label,
    }
    return TailBoundCurve(
        u_grid,
        np.array([ev.value for ev in evals], dtype=float),
        prov,
        np.array([ev.d for ev in evals], dtype=int),
        np.array([ev.w for ev in evals], dtype=float),
        np.array([ev.terms for ev in evals], dtype=int),
        np.array([ev.vacuous or ev.diverged for ev in evals], dtype=bool),
        np.array([ev.diverged for ev in evals], dtype=bool),
    )


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
