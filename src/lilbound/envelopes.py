"""Moment envelopes g(L) for normed sums and the moment-to-tail conversion.

An envelope is a uniform-in-n bound (E |sum|^L)^(1/L) <= g(L) for every
L >= domain_low.  Every field envelope comes from one core, g(L) = 2
K_R(L) ||(E|xi(x)|^L)^(1/L)|| with 2 the ceiling of the Doob factor and K_R
the Rosenthal constant, fed per-point moment roots and a norm over X: lp of
order L, or mixed with exponents p_vec.  Tails follow by the
Chebyshev-Markov step optimized over the moment order:

    h(z) = min(1, inf_L (g(L)/z)^L),

computed by a grid scan over the envelope's evaluation grid followed by
golden-section refinement in log L.  The same conversion serves field,
analytic and entropy-functional envelopes; only the construction of g
differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .constants import rosenthal_upper
from .grid_spaces import GridFunction, _check_centered, _iterated_norm, _json_number, _moment_root

if TYPE_CHECKING:  # simulate imports this module, so the spec type is for annotations only
    from .simulate import FieldSpec

__all__ = [
    "MomentEnvelope",
    "envelope_from_field",
    "envelope_from_moments",
    "mixed_envelope_from_field",
    "envelope_for_field_spec",
    "tail_from_envelope",
    "tail_argmin",
    "grid_scan_tails",
    "TailClass",
    "classify_tail",
    "envelope_to_json",
    "envelope_from_json",
]

_DEFAULT_GRID_POINTS = 257
_DEFAULT_GRID_TOP = 1e8
_GOLDEN_ITERS = 64
_GOLDEN_REL_WIDTH = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(eq=False)
class MomentEnvelope:
    """L -> g(L) for L >= domain_low, with a cached evaluation grid.

    Analytic envelopes carry a callable and use it everywhere; grid-backed
    envelopes interpolate log g linearly in log L between grid points and are
    only evaluated inside the grid span.
    """

    L_grid: np.ndarray
    g_values: np.ndarray
    domain_low: float
    label: str = ""
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
        if L[0] < self.domain_low:
            raise ValueError("evaluation grid must start at or above domain_low")
        if np.any(~np.isfinite(g)) or np.any(g < 0.0):
            raise ValueError("g must be finite and nonnegative on the grid")
        self.L_grid = L
        self.g_values = g
        self.domain_low = float(self.domain_low)
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
    ) -> "MomentEnvelope":
        if L_grid is None:
            lo = float(domain_low)
            if lo <= 0.0:
                raise ValueError("default grids need domain_low > 0")
            L_grid = np.geomspace(lo, _DEFAULT_GRID_TOP, _DEFAULT_GRID_POINTS)
        L_grid = np.asarray(L_grid, dtype=float)
        g_values = np.array([float(g_fn(L)) for L in L_grid])
        return cls(L_grid, g_values, domain_low, label, _g_fn=g_fn)

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


def _field_g(point_roots, axes, p_vec=None) -> Callable[[float], float]:
    """g(L) = 2 * K_R(L) * || x -> (E|xi(x)|^L)^(1/L) || from the pointwise roots.

    point_roots(L) is an array over the X axes, first (innermost) factor last.
    With p_vec None, X is one axis and the norm is its L-norm, max-scaled so
    that no root above 1 raised to a large L overflows; otherwise the p_vec
    mixed norm, whose entries are bounded by max|xi|.  The 2 covers the
    maximal inequality inside g, so the tail-sum argument stays u*v(A(k))/w.
    """
    weights = [ax.weights for ax in axes]

    def g(L: float) -> float:
        roots = point_roots(L)
        norm = _moment_root(roots, weights[0])(L) if p_vec is None else _iterated_norm(roots, weights, p_vec)
        return 2.0 * rosenthal_upper(L) * norm

    return g


def _log_abs_moment(spec: FieldSpec, L: float) -> np.ndarray:
    """log E|xi(x)|^L per grid point, in flat order (first factor fastest)."""
    nx = spec.x_size
    if spec.family == "rademacher":
        out = np.zeros(nx)
    elif spec.family == "uniform":
        if spec.a == 0.0:
            return np.full(nx, -math.inf)
        out = np.full(nx, L * math.log(spec.a) - math.log(L + 1.0))
    elif spec.family == "gaussian":
        sig = np.atleast_1d(np.asarray(spec.sigma, dtype=float))
        with np.errstate(divide="ignore"):
            out = L * np.log(sig)
        out += 0.5 * L * math.log(2.0) + math.lgamma((L + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    else:
        out = np.full(nx, math.lgamma(L / spec.beta + 1.0))
    if spec.dependence == "martingale":
        out = out + L * math.log1p(spec.kappa)
    return out


def envelope_for_field_spec(spec: FieldSpec) -> MomentEnvelope:
    """Moment envelope g(L) for a field spec, matching its norm.

    lp: g(L) = 2 * K_R(L) * (int_X E|xi(x)|^L mu(dx))^(1/L);
    mixed: the integral is replaced by the mixed norm of x -> (E|xi(x)|^L)^(1/L).
    Both start from closed-form moments; a one-point lp space takes its
    root as one scalar, every other space goes through _field_g.  The
    martingale mode only inflates moments by its amplitude cap (1 + kappa);
    the Rosenthal constant used is the independent-summand one, so treat
    martingale envelopes as exploratory.  cl norms need the chaining
    machinery instead and are rejected here.
    """
    if spec.norm_kind == "cl":
        raise ValueError("cl-norm envelopes come from the chaining machinery, not from moments")
    lp = spec.norm_kind == "lp"
    p_low = spec.p if lp else max(spec.p)
    if p_low < 2.0:
        raise ValueError("envelopes need every norm exponent >= 2")
    if lp and spec.x_size == 1:
        # one point: its L-norm is one scalar in log space, with no array work per L
        log_w = np.log(spec.spaces[0].weights)[0]

        def g_fn(L: float) -> float:
            return 2.0 * rosenthal_upper(L) * math.exp((_log_abs_moment(spec, L)[0] + log_w) / L)

    else:
        shape = tuple(sp.size for sp in reversed(spec.spaces))  # first factor last
        g_fn = _field_g(
            lambda L: np.exp(_log_abs_moment(spec, L).reshape(shape) / L),
            spec.spaces,
            None if lp else spec.p,
        )
    return MomentEnvelope.from_callable(g_fn, p_low, label=f"{spec.family}-{spec.norm_kind}")


def _grid_field_envelope(xi: GridFunction, p_low: float, L_grid, p_vec=None) -> MomentEnvelope:
    """Grid envelope from the exact moments of xi on X x Omega (Omega = last axis).

    p_vec None takes the L-norm over one X axis, else the p_vec mixed norm.
    """
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
    g = _field_g(_moment_root(values, omega.weights), xi.axes[:-1], p_vec)
    g_values = np.array([g(L) for L in L_grid])
    return MomentEnvelope(L_grid, g_values, p_low)


def envelope_from_field(xi: GridFunction, p: float, L_grid) -> MomentEnvelope:
    """Envelope for a field sampled on X x Omega (Omega = last axis, probability grid).

    g(L) = 2 * K_R(L) * ( integral_X E|xi(x)|^L mu(dx) )^(1/L),
    with every integral an exact weighted sum; a finite field has finite
    moments of every order.
    """
    if xi.n_factors != 2:
        raise ValueError("envelope_from_field expects a two-factor function on X x Omega")
    return _grid_field_envelope(xi, float(p), L_grid)


def envelope_from_moments(moment_fn: Callable[[float], float], p: float) -> MomentEnvelope:
    """Envelope from an analytic moment function: g(L) = 2 K_R(L) moment_fn(L).

    moment_fn(L) plays the role of ( integral_X E|xi(x)|^L mu(dx) )^(1/L) given
    in closed form, e.g. L^(1/beta) for sub-Weibull moment growth.
    """

    def g_fn(L: float) -> float:
        return 2.0 * rosenthal_upper(L) * float(moment_fn(L))

    return MomentEnvelope.from_callable(g_fn, float(p))


def mixed_envelope_from_field(xi: GridFunction, p_vec, L_grid) -> MomentEnvelope:
    """Mixed-norm envelope: g(L) = 2 K_R(L) * | (E|xi(x)|^L)^(1/L) |_{p_vec}.

    xi lives on X_1 x ... x X_l x Omega with Omega the last axis; the moment
    function x -> (E|xi(x)|^L)^(1/L) is formed pointwise and its mixed norm
    over the X axes taken with exponents p_vec.
    """
    p_vec = tuple(float(q) for q in p_vec)
    if xi.n_factors != len(p_vec) + 1:
        raise ValueError("field must have one more factor (Omega, last axis) than p_vec")
    return _grid_field_envelope(xi, max(p_vec), L_grid, p_vec)


def _golden_min(f, a: float, b: float):
    """Golden-section minimum of f on [a, b]; returns (f(x*), x*)."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERS):
        if (b - a) <= _GOLDEN_REL_WIDTH * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (fc, c) if fc <= fd else (fd, d)


def _bracket_objective(env: MomentEnvelope, i0: int, i1: int, i2: int, log_z: float):
    """Objective lam -> L (log g(L) - log z), L = e^lam, on the bracket [i0, i2].

    Grid envelopes are log-log piecewise linear, so inside the bracket the
    interpolation reduces to two straight segments around the knot at i1;
    analytic envelopes (and brackets touching a g = 0 grid point) call log_g.
    """
    if env._g_fn is None:
        lamg, lg = env._log_L_grid, env._log_g_grid
        if math.isfinite(lg[i0]) and math.isfinite(lg[i1]) and math.isfinite(lg[i2]):
            knot, lg1 = lamg[i1], lg[i1]
            sl_left = (lg1 - lg[i0]) / (knot - lamg[i0]) if i0 < i1 else 0.0
            sl_right = (lg[i2] - lg1) / (lamg[i2] - knot) if i2 > i1 else 0.0

            def f(lam: float) -> float:
                slope = sl_left if lam <= knot else sl_right
                return math.exp(lam) * (lg1 + slope * (lam - knot) - log_z)

            return f

    def f(lam: float) -> float:
        L = math.exp(lam)
        return L * (env.log_g(L) - log_z)

    return f


def tail_argmin(env: MomentEnvelope, z: float) -> tuple[float, float]:
    """min(1, inf_L (g(L)/z)^L) together with the optimizing L.

    Grid scan first, then golden-section refinement in log L inside the best
    bracketing triple.  The value is clamped to [0, 1] since it bounds a
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
        i0 = max(i - 1, 0)
        i2 = min(i + 1, env.L_grid.size - 1)
        lam_lo = math.log(env.L_grid[i0])
        lam_hi = math.log(env.L_grid[i2])
        if lam_hi > lam_lo:
            f = _bracket_objective(env, i0, i, i2, log_z)
            ref_val, ref_lam = _golden_min(f, lam_lo, lam_hi)
            if ref_val < best_val:
                best_val, best_L = ref_val, math.exp(ref_lam)
    if best_val >= 0.0:
        return 1.0, best_L
    return math.exp(best_val), best_L


def tail_from_envelope(env: MomentEnvelope, z: float) -> float:
    return tail_argmin(env, z)[0]


def grid_scan_tails(env: MomentEnvelope, log_z: np.ndarray) -> np.ndarray:
    """min(1, min over grid knots of (g(L)/z)^L) for each entry of an array of log z.

    The grid scan alone, without refinement: never below tail_from_envelope's
    value at the same z, so it still bounds the tail.
    """
    objective = (env.L_grid * env._log_g_grid)[None, :] - np.outer(log_z, env.L_grid)
    return np.exp(np.minimum(objective.min(axis=1), 0.0))


@dataclass(frozen=True)
class TailClass:
    """Tail-shape descriptors for moment growth of order L^(1/beta1) (log factor beta2).

    r0 is the norming power paired with the class; the resulting bound decays
    like exp(-C u^u_power log^log_power u).
    """

    beta1: float
    beta2: float
    r0: float
    u_power: float
    log_power: float


def classify_tail(beta1: float, beta2: float = 0.0) -> TailClass:
    """Norming power and bound exponents for a tail class.

    beta1 = inf is the bounded case: r0 = 1 and the bound shape is exp(-C u).
    """
    if math.isinf(beta1):
        return TailClass(beta1=math.inf, beta2=float(beta2), r0=1.0, u_power=1.0, log_power=0.0)
    if not beta1 > 0.0:
        raise ValueError("beta1 must be positive (or infinite)")
    r0 = (beta1 + 1.0) / beta1
    u_power = beta1 / (beta1 + 1.0)
    log_power = (-beta2 - beta1 * (beta1 - 1.0)) / (beta1 + 1.0)
    return TailClass(float(beta1), float(beta2), r0, u_power, log_power)


def envelope_to_json(env: MomentEnvelope) -> dict:
    """JSON form of an envelope; "kind" and "L0" are informational, "p" is domain_low."""
    return {
        "kind": "grid" if env._g_fn is None else "analytic",
        "L0": None,
        "L_grid": env.L_grid.tolist(),
        "g_values": env.g_values.tolist(),
        "p": env.domain_low,
    }


def envelope_from_json(doc: dict) -> MomentEnvelope:
    """Rebuild an envelope from its JSON form.

    Deserialized envelopes are grid-backed (log-linear in log L between grid
    points) regardless of origin; the optimizer then searches the grid span.
    A legacy "p_vec" stands for its largest exponent.  "L0", if given, must
    be null or at least the top knot: the bound reads g at every knot.
    """
    try:
        if "p_vec" in doc:
            domain_low = max(float(q) for q in _json_number(doc["p_vec"], "p_vec"))
        else:
            domain_low = float(_json_number(doc["p"], "p"))
        env = MomentEnvelope(
            _json_number(doc["L_grid"], "L_grid"), _json_number(doc["g_values"], "g_values"), domain_low
        )
        L0 = doc.get("L0")
        if L0 is not None and not float(_json_number(L0, "L0")) >= env.L_grid[-1]:
            raise ValueError(f"envelope JSON L0 = {L0} lies below the top knot {env.L_grid[-1]}")
    except KeyError as exc:
        raise ValueError(f"envelope JSON is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"envelope JSON has a field of the wrong type: {exc}") from exc
    return env
