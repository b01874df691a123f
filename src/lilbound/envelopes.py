"""Moment envelopes g(L) for normed sums and the moment-to-tail conversion.

An envelope is a uniform-in-n bound (E |sum|^L)^(1/L) <= g(L) for every
L >= domain_low.  Every field envelope comes from one formula, g(L) = 2
K_R(L) ||x -> (E|xi(x)|^L)^(1/L)||, with 2 the ceiling of the Doob factor,
K_R the Rosenthal constant and the norm over X in the space's own
exponents: lp is the mixed norm with one factor.  For L >= max p,
Minkowski's integral inequality moves the L-th moment inside that norm, so
g holds for any positive weights on X.  Tails follow by the
Chebyshev-Markov step optimized over the moment order:

    h(z) = min(1, inf_L (g(L)/z)^L),

computed by a grid scan over the envelope's evaluation grid, then refined in
log L on the two segments around the best knot, in closed form on the
interpolated log g, which is piecewise linear there.  A callable envelope
then evaluates its exact g once at that order and keeps the smaller of the
two objectives: any L gives a valid bound (g(L)/z)^L, so the minimum need
not be found exactly.  The same conversion serves field, analytic and
entropy-functional envelopes; only the construction of g differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .constants import rosenthal_upper
from .grid_spaces import GridFunction, _check_centered, _exponents, _iterated_norm, _json_number, _moment_root

if TYPE_CHECKING:  # simulate imports this module, so the spec type is for annotations only
    from .simulate import FieldSpec

__all__ = [
    "MomentEnvelope",
    "envelope_from_field",
    "envelope_for_field_spec",
    "tail_from_envelope",
    "tail_argmin",
    "grid_scan_tails",
    "envelope_to_json",
    "envelope_from_json",
]

_DEFAULT_GRID_POINTS = 257
_DEFAULT_GRID_TOP = 1e8


@dataclass(eq=False)
class MomentEnvelope:
    """L -> g(L) for L >= domain_low, with a cached evaluation grid.

    Analytic envelopes carry a callable and use it everywhere; grid-backed
    envelopes interpolate log g linearly in log L between grid points and are
    only evaluated inside the grid span.  r0 states that the block series
    built on g diverges for every norming power r < r0 (see lil_bounds); 0
    claims nothing.  Envelopes built from field moments set r0 = gamma when
    their g grows at least like L^gamma / log L: 1 for bounded fields, more
    for heavier tails (the family table in simulate).
    """

    L_grid: np.ndarray
    g_values: np.ndarray
    domain_low: float
    label: str = ""
    r0: float = 0.0
    _g_fn: Optional[Callable[[float], float]] = field(default=None, repr=False)
    _log_g_grid: np.ndarray = field(init=False, repr=False)
    _log_L_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L = np.asarray(self.L_grid, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        if L.ndim != 1 or L.size < 1 or g.shape != L.shape:
            raise ValueError("L_grid and g_values must be matching 1-d arrays")
        if not np.all(np.isfinite(L)) or np.any(np.diff(L) <= 0.0):
            raise ValueError("evaluation grid must be finite and strictly increasing")
        if not L[0] > 0.0:
            raise ValueError(f"evaluation grid must start at a positive order, got L = {L[0]}")
        domain_low = float(self.domain_low)
        if not math.isfinite(domain_low):
            raise ValueError(f"domain_low must be finite, got {domain_low}")
        if L[0] < domain_low:
            raise ValueError("evaluation grid must start at or above domain_low")
        if np.any(~np.isfinite(g)) or np.any(g < 0.0):
            raise ValueError("g must be finite and nonnegative on the grid")
        r0 = float(self.r0)
        if not (math.isfinite(r0) and r0 >= 0.0):
            raise ValueError(f"r0 must be finite and >= 0, got {r0}")
        self.L_grid = L
        self.g_values = g
        self.domain_low = domain_low
        self.r0 = r0
        with np.errstate(divide="ignore"):
            self._log_g_grid = np.log(g)
        self._log_L_grid = np.log(L)

    @classmethod
    def from_callable(
        cls,
        g_fn: Callable[[float], float],
        domain_low: float,
        L_grid=None,
        label: str = "",
        r0: float = 0.0,
    ) -> "MomentEnvelope":
        if L_grid is None:
            lo = float(domain_low)
            if lo <= 0.0:
                raise ValueError("default grids need domain_low > 0")
            L_grid = np.geomspace(lo, _DEFAULT_GRID_TOP, _DEFAULT_GRID_POINTS)
        L_grid = np.asarray(L_grid, dtype=float)
        g_values = np.array([float(g_fn(L)) for L in L_grid])
        return cls(L_grid, g_values, domain_low, label, r0, _g_fn=g_fn)

    def g(self, L: float) -> float:
        lg = self.log_g(L)
        return math.exp(lg) if lg > -math.inf else 0.0

    def log_g(self, L: float) -> float:
        """log g(L); -inf where g vanishes."""
        if self._g_fn is not None:
            val = float(self._g_fn(L))
            if val < 0.0:
                raise ValueError("envelope callable returned a negative value")
            return math.log(val) if val > 0.0 else -math.inf
        # grid-backed: log-linear interpolation in log L inside the span
        lo, hi = self.L_grid[0], self.L_grid[-1]
        if not lo <= L <= hi:
            raise ValueError(f"grid envelope evaluated at L={L} outside its span [{lo}, {hi}]")
        return float(np.interp(math.log(L), self._log_L_grid, self._log_g_grid))


def _field_g(point_roots, axes, exps) -> Callable[[float], float]:
    """g(L) = 2 * K_R(L) * || x -> (E|xi(x)|^L)^(1/L) || from the pointwise roots.

    point_roots(L) is an array over the X axes, first (innermost) factor last,
    and the norm is the iterated one with exponent exps[k] on factor k (lp
    is one factor).  Where a root^p overflows, the largest root is factored
    out first; every finite norm keeps its bytes.  The 2 covers the maximal
    inequality inside g, so the tail-sum argument stays u*v(A(k))/w.

    Moment roots do not decrease in L (Lyapunov), and neither does each
    power and sum inside the norm, so a norm that came out finite at some L
    overflows nowhere below it.  Up to the largest such L the norm runs
    bare; above it, overflow is silenced for the try that may fall back.
    """
    weights = [ax.weights for ax in axes]
    finite_to = -math.inf

    def g(L: float) -> float:
        nonlocal finite_to
        roots = point_roots(L)
        if L <= finite_to:
            norm = _iterated_norm(roots, weights, exps)
        else:
            with np.errstate(over="ignore"):
                norm = _iterated_norm(roots, weights, exps)
            if math.isfinite(norm):
                finite_to = L
            else:
                # a root^p overflowed (heavy tails at large L): factor out the largest root
                top = roots.max()
                norm = top * _iterated_norm(roots / top, weights, exps)
        return 2.0 * rosenthal_upper(L) * norm

    return g


def envelope_for_field_spec(spec: FieldSpec) -> MomentEnvelope:
    """Moment envelope g(L) = 2 K_R(L) ||x -> (E|xi(x)|^L)^(1/L)|| for a field spec.

    The norm is the spec's own, lp as the one-factor case of mixed, and the
    roots come from its family's closed-form log moments (spec.log_moments).
    Where that log moment m is one number for every point (rademacher,
    uniform, weibull, and gaussian on one point), the root is the constant
    e^(m/L), and its iterated norm is that constant times prod_k
    mu_k(X_k)^(1/q_k): g is one scalar in log space, exp(m / L + log_w) with
    log_w = sum_k log mu_k(X_k) / q_k, with no array work per L and no power
    that can overflow.  On one point mu_k(X_k) is the point's weight.  A
    gaussian spec over several points stores sigma per point and goes
    through _field_g.  The martingale mode only inflates moments by its
    amplitude cap (1 + kappa); the Rosenthal constant used is the
    independent-summand one, so treat martingale envelopes as exploratory.
    cl norms need the chaining machinery instead and are rejected here.
    r0 is spec.growth, the power gamma in g(L) >= c L^gamma / log L that the
    family table in simulate gives, or 0 for a field that vanishes: every
    moment is 0, and so are g and the bound.
    """
    if spec.norm_kind == "cl":
        raise ValueError("cl-norm envelopes come from the chaining machinery, not from moments")
    exps = _exponents(spec.p)
    p_low = max(exps)
    if p_low < 2.0:
        raise ValueError("envelopes need every norm exponent >= 2")
    log_moments = spec.log_moments
    if np.ndim(log_moments(p_low)) == 0:
        log_w = sum(math.log(sp.total_mass) / q for sp, q in zip(spec.spaces, exps))

        def g_fn(L: float) -> float:
            return 2.0 * rosenthal_upper(L) * math.exp(log_moments(L) / L + log_w)

    else:
        shape = tuple(sp.size for sp in reversed(spec.spaces))  # first factor last
        g_fn = _field_g(lambda L: np.exp(log_moments(L) / L).reshape(shape), spec.spaces, exps)
    return MomentEnvelope.from_callable(g_fn, p_low, label=f"{spec.family}-{spec.norm_kind}", r0=spec.growth)


def envelope_from_field(xi: GridFunction, p, L_grid) -> MomentEnvelope:
    """Grid envelope from the exact moments of xi on X_1 x ... x X_l x Omega.

    g(L) = 2 K_R(L) ||x -> (E|xi(x)|^L)^(1/L)||_p.  Omega is the last axis, a
    probability grid; p is a number (lp, l = 1) or one exponent per X
    factor, first factor innermost.  Every integral is an exact weighted
    sum, and a finite field has finite moments of every order.  r0 is 1
    unless g vanishes at the knots, which happens only for a field that is
    0 everywhere and then at every L.
    """
    exps = _exponents(p)
    if xi.n_factors != len(exps) + 1:
        raise ValueError("field must have one more factor (Omega, last axis) than the exponent vector")
    p_low = max(exps)
    if p_low < 2.0:
        raise ValueError("the bound machinery assumes a largest norm exponent >= 2")
    L_grid = np.asarray(L_grid, dtype=float)
    if np.any(L_grid < p_low):
        raise ValueError("all envelope grid points must satisfy L >= the largest norm exponent")
    omega = xi.axes[-1]
    if not omega.is_probability:
        raise ValueError("Omega factor must be a probability grid")
    _check_centered(xi.values, omega.weights)
    n_x = xi.n_factors - 1
    # Omega stays last, the X axes are reversed ahead of it: first factor last
    values = np.transpose(xi.values, tuple(range(n_x - 1, -1, -1)) + (n_x,))
    g = _field_g(_moment_root(values, omega.weights), xi.axes[:-1], exps)
    g_values = np.array([g(L) for L in L_grid])
    return MomentEnvelope(L_grid, g_values, p_low, r0=1.0 if g_values.any() else 0.0)


def _grid_refine(env: MomentEnvelope, i: int, log_z: float, best_val: float, best_L: float):
    """Exact minimum of the interpolated objective on the two segments around knot i.

    Between knots log g is linear in lam = log L with slope s, so the
    objective is e^lam (c + s (lam - lam_i)) with c = log g_i - log z.  It
    has an interior minimum only when s > 0, at lam* = lam_i - 1 - c/s, with
    value -s e^lam*; otherwise a segment's minimum is at a knot, and knot i
    already beats both neighbours.
    """
    lam, lg = env._log_L_grid, env._log_g_grid
    knot = lam[i]
    c = lg[i] - log_z
    for j in (i - 1, i + 1):
        if not 0 <= j < lam.size:
            continue
        s = (lg[j] - lg[i]) / (lam[j] - knot)
        if s > 0.0:
            lam_star = knot - 1.0 - c / s
            if min(knot, lam[j]) < lam_star < max(knot, lam[j]):
                val = -s * math.exp(lam_star)
                if val < best_val:
                    best_val, best_L = val, math.exp(lam_star)
    return best_val, best_L


def tail_argmin(env: MomentEnvelope, z: float) -> tuple[float, float]:
    """min(1, inf_L (g(L)/z)^L) together with the optimizing L.

    Grid scan first, then the closed-form minimum of the interpolated
    objective on the two segments around the best knot (see _grid_refine).
    Grid envelopes take that minimum as it is.  A callable one evaluates
    log_g once at its order L* and keeps the knot's value if the exact
    objective there is not lower: the result is an objective at an order it
    evaluated exactly, a valid bound never below the exact minimum over the
    bracket, and at most one g call per tail.  A knot with g = 0 wins
    the scan outright (its objective is -inf), so the refinement only ever
    sees finite log g.  The value is clamped to [0, 1] since it bounds a
    probability; a vacuous result is 1.0, never an error.  The interesting
    range is z > 1, but any positive z is accepted (block sums feed in
    arguments u v(A(k))/w that start below 1 when w > u).
    """
    if not z > 0.0:
        raise ValueError("tail conversion requires z > 0")
    log_z = math.log(z)
    with np.errstate(invalid="ignore"):
        objective = env.L_grid * (env._log_g_grid - log_z)
    i = int(np.argmin(objective))
    best_val = float(objective[i])
    best_L = float(env.L_grid[i])
    if best_val > -math.inf:
        val, L = _grid_refine(env, i, log_z, best_val, best_L)
        if val < best_val and env._g_fn is not None:
            val = L * (env.log_g(L) - log_z)  # a callable's knots interpolate its g: price L* exactly
        if val < best_val:
            best_val, best_L = val, L
    if best_val >= 0.0:
        return 1.0, best_L
    return math.exp(best_val), best_L


def tail_from_envelope(env: MomentEnvelope, z: float) -> float:
    return tail_argmin(env, z)[0]


def grid_scan_tails(env: MomentEnvelope, log_z: np.ndarray) -> np.ndarray:
    """min(1, min over grid knots of (g(L)/z)^L) for each entry of an array of log z.

    The grid scan alone, without refinement: never below tail_from_envelope's
    value at the same z, so it still bounds the tail.

    With A_i = L_i log g_i, row t's objective is A_i - t L_i, and its first
    argmin never moves down as t grows: for t' > t, a knot k below row t's
    argmin i has A_k - t'L_k >= A_i - tL_i - (t' - t)L_k > A_i - t'L_i since
    L_k < L_i.  So every row's argmin lies between those of the smallest and
    the largest t.  Those two rows are scanned in full, the rest only between
    their argmins, widened by one knot on each side: in floats, a near-tie
    between neighbouring knots can move an argmin one knot against t.  Each
    entry is the same product and difference that a scan over every knot
    forms, so the result matches that scan to the byte.
    """
    log_z = np.asarray(log_z, dtype=float)
    if log_z.size == 0:
        return np.empty(0)
    L = env.L_grid
    A = L * env._log_g_grid
    lo = int(np.argmin(A - log_z.min() * L))
    hi = int(np.argmin(A - log_z.max() * L))
    lo, hi = max(lo - 1, 0), min(hi + 2, L.size)
    objective = A[lo:hi] - np.outer(log_z, L[lo:hi])
    return np.exp(np.minimum(objective.min(axis=1), 0.0))


def envelope_to_json(env: MomentEnvelope) -> dict:
    """JSON form of an envelope; "kind" and "L0" are informational, "p" is domain_low.

    "r0" is written only when it is > 0, so an envelope that claims nothing
    keeps the document it had before r0 existed.
    """
    doc = {
        "kind": "grid" if env._g_fn is None else "analytic",
        "L0": None,
        "L_grid": env.L_grid.tolist(),
        "g_values": env.g_values.tolist(),
        "p": env.domain_low,
    }
    if env.r0 > 0.0:
        doc["r0"] = env.r0
    return doc


def envelope_from_json(doc: dict) -> MomentEnvelope:
    """Rebuild an envelope from its JSON form.

    Deserialized envelopes are grid-backed (log-linear in log L between grid
    points) regardless of origin; the optimizer then searches the grid span.
    A legacy "p_vec" stands for its largest exponent.  "L0", if given, must
    be null or at least the top knot: the bound reads g at every knot.  A
    missing "r0" is 0; a given one must be a finite number >= 0.
    """
    try:
        if "p_vec" in doc:
            domain_low = max(float(q) for q in _json_number(doc["p_vec"], "p_vec"))
        else:
            domain_low = float(_json_number(doc["p"], "p"))
        env = MomentEnvelope(
            _json_number(doc["L_grid"], "L_grid"),
            _json_number(doc["g_values"], "g_values"),
            domain_low,
            r0=float(_json_number(doc.get("r0", 0.0), "r0")),
        )
        L0 = doc.get("L0")
        if L0 is not None and not float(_json_number(L0, "L0")) >= env.L_grid[-1]:
            raise ValueError(f"envelope JSON L0 = {L0} lies below the top knot {env.L_grid[-1]}")
    except KeyError as exc:
        raise ValueError(f"envelope JSON is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"envelope JSON has a field of the wrong type: {exc}") from exc
    return env
