"""Chaining machinery for suprema over a finite parameter grid.

For a centered random field xi(x, t, omega) indexed by a parameter t in a
finite grid T, the moment of sup_t of the L_p(X) norm of the normalized sum
is controlled by an entropy functional

    nu_p^p(Z) = sigma_hat * inf_theta sum_k theta^(k-1) N^(1/Z)(T, r_hat, (theta*sigma_hat)^k)

built from a moment distance r on T, its normalization r_hat = r / sigma_hat,
and covering numbers N of T in that distance.  The resulting Z -> nu_p(Z)
table converts into a moment envelope (g(L) = nu_p(L/p) at L = p Z) that
plugs into the same block-sum bound as the plain and mixed-norm envelopes.

Covering numbers come in two flavors: analytic, for a parameter set of known
diameter and dimension under a Hoelder-type modulus, and empirical, a greedy
(farthest point) cover of the actual grid.  The greedy cover overestimates
the minimal N, which only enlarges nu_p, so upper bounds stay valid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import rosenthal_upper
from .envelopes import MomentEnvelope
from .grid_spaces import GridMeasureSpace

__all__ = [
    "IndexedField",
    "moment_distance_rho",
    "field_W",
    "J_functional",
    "distance_r",
    "distance_r_matrix",
    "sigma_bar",
    "sigma_hat",
    "AnalyticCovering",
    "EmpiricalCovering",
    "covering_to_json",
    "covering_from_json",
    "NuPDetail",
    "nu_p_detail",
    "nu_p",
    "ChainedEnvelope",
    "nu_envelope",
    "holder_example_envelope",
    "DEFAULT_ALPHAS",
    "DEFAULT_THETA_GRID",
]

DEFAULT_ALPHAS = (1.25, 1.5, 2.0, 3.0, 5.0)
DEFAULT_THETA_GRID = tuple(np.round(np.arange(1, 20) * 0.05, 2))

_MAX_K_TERMS = 10_000


@dataclass(frozen=True)
class IndexedField:
    """Finite random field xi(x, t, omega) on X x T x Omega.

    values has shape (nx, nt, n_omega); omega_weights is a probability vector
    (the law of one summand); every slice xi(x, t, .) must be centered.
    t_points holds parameter coordinates for reference (shape (nt,) or
    (nt, dim)); the chaining distance is built from moments, not from these.
    """

    x_space: GridMeasureSpace
    omega_weights: np.ndarray
    values: np.ndarray
    t_points: Optional[np.ndarray] = None

    def __post_init__(self):
        w = np.asarray(self.omega_weights, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("omega_weights must be a nonempty 1-d vector")
        if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("omega_weights must be positive and sum to 1")
        if vals.ndim != 3:
            raise ValueError("values must have shape (nx, nt, n_omega)")
        if vals.shape[0] != self.x_space.size or vals.shape[2] != w.size:
            raise ValueError(
                f"values shape {vals.shape} does not match |X| = {self.x_space.size}, "
                f"|Omega| = {w.size}"
            )
        means = vals @ w
        tol = 1e-9 * max(1.0, float(np.abs(vals).max(initial=0.0)))
        if np.any(np.abs(means) > tol):
            raise ValueError("field is not centered: E xi(x, t, .) != 0 at some (x, t)")
        t = self.t_points
        if t is None:
            t = np.arange(vals.shape[1], dtype=float)
        t = np.asarray(t, dtype=float)
        if t.shape[0] != vals.shape[1]:
            raise ValueError("t_points length must match the t axis of values")
        object.__setattr__(self, "omega_weights", w)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "t_points", t)

    @property
    def n_t(self) -> int:
        return self.values.shape[1]


def moment_distance_rho(field: IndexedField, t: int, s: int, v: float) -> np.ndarray:
    """Per-point moment distance rho_{v,x}(t, s) = (E|xi(x,t) - xi(x,s)|^v)^(1/v).

    t and s are indices into the parameter grid; the result is the vector
    over x (exact finite-Omega moments).
    """
    if v < 1.0:
        raise ValueError("moment order v must be >= 1")
    nt = field.n_t
    if not (0 <= t < nt and 0 <= s < nt):
        raise ValueError(f"parameter indices must lie in [0, {nt})")
    diff = np.abs(field.values[:, t, :] - field.values[:, s, :])
    return (diff**v @ field.omega_weights) ** (1.0 / v)


def field_W(field: IndexedField, gamma: float) -> np.ndarray:
    """W_gamma(x) = sup_t (E|xi(x,t)|^gamma)^(1/gamma), as a vector over x."""
    if gamma < 1.0:
        raise ValueError("moment order gamma must be >= 1")
    moments = np.abs(field.values) ** gamma @ field.omega_weights
    return moments.max(axis=1) ** (1.0 / gamma)


def J_functional(
    field: IndexedField, t: int, s: int, p: float, Z: float, alpha: float, beta: float
) -> float:
    """J(t,s; p,Z; alpha,beta) = int_X W^(p-1)_{(p-1) beta Z}(x) rho_{alpha Z, x}(t,s) mu(dx)."""
    W = field_W(field, (p - 1.0) * beta * Z) ** (p - 1.0)
    rho = moment_distance_rho(field, t, s, alpha * Z)
    return float((W * rho) @ field.x_space.weights)


def _conjugate_pairs(alphas: Sequence[float]) -> list:
    pairs = []
    for a in alphas:
        a = float(a)
        if a <= 1.0:
            raise ValueError("every alpha must exceed 1")
        pairs.append((a, a / (a - 1.0)))
    if not pairs:
        raise ValueError("alpha grid must be nonempty")
    return pairs


def distance_r(
    field: IndexedField,
    t: int,
    s: int,
    p: float,
    Z: float,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> float:
    """Chaining distance r_{p,Z}(t,s) = 2p inf_{alpha,beta} K_R(alpha Z) K_R^{p-1}((p-1) beta Z) J.

    The infimum runs over conjugate pairs 1/alpha + 1/beta = 1 from the
    supplied alpha grid.
    """
    if p < 2.0:
        raise ValueError("p must be >= 2")
    if Z < 1.0:
        raise ValueError("Z must be >= 1")
    best = math.inf
    for a, b in _conjugate_pairs(alphas):
        val = (
            rosenthal_upper(a * Z)
            * rosenthal_upper((p - 1.0) * b * Z) ** (p - 1.0)
            * J_functional(field, t, s, p, Z, a, b)
        )
        best = min(best, val)
    return 2.0 * p * best


def distance_r_matrix(
    field: IndexedField, p: float, Z: float, alphas: Sequence[float] = DEFAULT_ALPHAS
) -> np.ndarray:
    """Full (nt, nt) matrix of r_{p,Z}; symmetric with zero diagonal."""
    if p < 2.0:
        raise ValueError("p must be >= 2")
    if Z < 1.0:
        raise ValueError("Z must be >= 1")
    pairs = _conjugate_pairs(alphas)
    nt = field.n_t
    mu_w = field.x_space.weights
    om_w = field.omega_weights
    best = np.full((nt, nt), math.inf)
    for a, b in pairs:
        W = field_W(field, (p - 1.0) * b * Z) ** (p - 1.0)
        v = a * Z
        diff = np.abs(field.values[:, :, None, :] - field.values[:, None, :, :])
        rho = (diff**v @ om_w) ** (1.0 / v)
        J = np.einsum("x,xts->ts", mu_w * W, rho)
        cand = rosenthal_upper(a * Z) * rosenthal_upper((p - 1.0) * b * Z) ** (p - 1.0) * J
        best = np.minimum(best, cand)
    out = 2.0 * p * best
    np.fill_diagonal(out, 0.0)
    return out


def sigma_bar(field: IndexedField, p: float, Z: float) -> float:
    """sigma_bar = sup_t int_X (E|xi(x,t)|^{pZ})^{1/Z} mu(dx)."""
    if p < 2.0 or Z < 1.0:
        raise ValueError("requires p >= 2 and Z >= 1")
    moments = np.abs(field.values) ** (p * Z) @ field.omega_weights
    per_t = (moments ** (1.0 / Z)).T @ field.x_space.weights
    return float(per_t.max())


def sigma_hat(field: IndexedField, p: float, Z: float) -> float:
    """sigma_hat = K_R^p(pZ) * sigma_bar."""
    return rosenthal_upper(p * Z) ** p * sigma_bar(field, p, Z)


@dataclass(frozen=True)
class AnalyticCovering:
    """N(eps) = max(1, C_cov * D / eps^(1/l))^dim for a set of diameter D.

    dim is the ambient dimension, l the Hoelder index of the map from the
    base (Euclidean) metric into the chaining distance.  D = 0 degenerates to
    N identically 1.
    """

    D: float
    dim: int
    l: float = 1.0
    C_cov: float = 1.0

    def __post_init__(self):
        if self.D < 0.0:
            raise ValueError("diameter must be nonnegative")
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        if not 0.0 < self.l <= 1.0:
            raise ValueError("Hoelder index l must lie in (0, 1]")
        if self.C_cov <= 0.0:
            raise ValueError("C_cov must be positive")

    @property
    def eps_one(self) -> float:
        """Radius above which a single ball suffices."""
        return (self.C_cov * self.D) ** self.l

    def n(self, eps: float) -> float:
        if self.D == 0.0:
            return 1.0
        if eps <= 0.0:
            return math.inf
        base = self.C_cov * self.D / eps ** (1.0 / self.l)
        return max(1.0, base) ** self.dim


@dataclass(frozen=True)
class EmpiricalCovering:
    """Greedy cover of a finite point set from a pairwise distance matrix.

    thresholds[j] is the covering radius achieved by the first j+1 greedy
    (farthest point) centers, a non-increasing positive sequence; with c
    centers every point is within thresholds[c-2] of one of them (one center
    covers everything at the set's radius thresholds[0]).  N(eps) = 1 +
    #(thresholds > eps), saturating at the number of distinct points for eps
    below the smallest threshold.
    """

    thresholds: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        if t.ndim != 1:
            raise ValueError("thresholds must be 1-d")
        if t.size and (np.any(t <= 0.0) or np.any(np.diff(t) > 0.0)):
            raise ValueError("thresholds must be positive and non-increasing")
        object.__setattr__(self, "thresholds", t)

    @classmethod
    def from_distance_matrix(cls, dist: np.ndarray) -> "EmpiricalCovering":
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance matrix must be square")
        if np.any(dist < 0.0) or np.any(np.abs(np.diagonal(dist)) > 0.0):
            raise ValueError("distance matrix needs zero diagonal and nonnegative entries")
        m = dist.shape[0]
        d_min = dist[0].copy()
        thresholds = []
        for _ in range(1, m):
            far = int(np.argmax(d_min))
            r = float(d_min[far])
            if r <= 0.0:
                break
            thresholds.append(r)
            d_min = np.minimum(d_min, dist[far])
        return cls(np.asarray(thresholds))

    @property
    def n_sat(self) -> float:
        return float(self.thresholds.size + 1)

    @property
    def eps_min(self) -> float:
        return float(self.thresholds[-1]) if self.thresholds.size else math.inf

    def n(self, eps: float) -> float:
        t = self.thresholds
        if t.size == 0:
            return 1.0
        asc = t[::-1]
        count_gt = t.size - int(np.searchsorted(asc, eps, side="right"))
        return 1.0 + count_gt


def covering_to_json(cov) -> dict:
    if isinstance(cov, AnalyticCovering):
        return {"kind": "analytic", "D": cov.D, "d": cov.dim, "l": cov.l, "C_cov": cov.C_cov}
    if isinstance(cov, EmpiricalCovering):
        return {"kind": "empirical", "thresholds": [float(x) for x in cov.thresholds]}
    raise TypeError(f"not a covering function: {type(cov).__name__}")


def covering_from_json(data: dict):
    try:
        kind = data["kind"]
        if kind == "analytic":
            return AnalyticCovering(
                D=float(data["D"]),
                dim=int(data["d"]),
                l=float(data.get("l", 1.0)),
                C_cov=float(data.get("C_cov", 1.0)),
            )
        if kind == "empirical":
            return EmpiricalCovering(np.asarray(data.get("thresholds", []), dtype=float))
    except KeyError as exc:
        raise ValueError(f"covering JSON is missing field {exc}") from exc
    raise ValueError(f"unknown covering kind {kind!r}")


def _inner_theta_sum(covering, s: float, theta: float, Z: float) -> float:
    """sum_k theta^(k-1) N^(1/Z)(radius s^k), exact where the covering's structure allows.

    Returns math.inf when the series diverges (possible only in the analytic
    pure-power regime with ratio >= 1) or fails to resolve within the horizon.
    """
    if s == 0.0:
        # radius identically 0 only happens for sigma_hat == 0, handled upstream
        raise ValueError("radius base must be positive")
    if s == 1.0:
        return covering.n(1.0) ** (1.0 / Z) / (1.0 - theta)
    analytic = isinstance(covering, AnalyticCovering)
    empirical = isinstance(covering, EmpiricalCovering)
    total = 0.0
    prev = math.inf
    for k in range(1, _MAX_K_TERMS + 1):
        try:
            radius = s**k
        except OverflowError:
            radius = math.inf
        if s < 1.0:
            if empirical and radius < covering.eps_min:
                # saturated: N is constant from here on, geometric tail is exact
                return total + covering.n_sat ** (1.0 / Z) * theta ** (k - 1) / (1.0 - theta)
            if analytic:
                if covering.D == 0.0:
                    return total + theta ** (k - 1) / (1.0 - theta)
                if radius <= covering.eps_one:
                    # pure power regime for every smaller radius; geometric in k
                    ratio = theta * s ** (-covering.dim / (covering.l * Z))
                    if ratio >= 1.0:
                        return math.inf
                    amp = (covering.C_cov * covering.D) ** (covering.dim / Z)
                    return total + amp * ratio**k / (theta * (1.0 - ratio))
        N = covering.n(radius)
        if s > 1.0 and N <= 1.0:
            # radii grow from here, so one ball keeps sufficing
            return total + theta ** (k - 1) / (1.0 - theta)
        term = theta ** (k - 1) * N ** (1.0 / Z)
        if not math.isfinite(term):
            return math.inf
        total += term
        if term == 0.0:
            return total
        if term <= prev and term < 1e-16 * total:
            return total
        prev = term
    return math.inf


@dataclass(frozen=True)
class NuPDetail:
    """Per-theta breakdown of one nu_p(Z) evaluation."""

    p: float
    Z: float
    sigma_hat: float
    thetas: np.ndarray
    inner_sums: np.ndarray
    value: float
    best_theta: float
    rescaled: bool


def nu_p_detail(
    source,
    p: float,
    Z: float,
    covering=None,
    theta_grid=None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> NuPDetail:
    """Evaluate nu_p(Z) = (sigma_hat * inf_theta sum_k ...)^(1/p) with its theta table.

    source is either an IndexedField (sigma_hat and, when no covering is
    given, an empirical cover of the normalized distance matrix are derived
    from it) or a precomputed sigma_hat scalar (covering then required).

    The default theta grid is 0.05 .. 0.95 in steps of 0.05; when
    sigma_hat >= 1 it is rescaled into (0, 1/sigma_hat) with a warning, since
    larger theta make the covering radii (theta*sigma_hat)^k non-shrinking.
    An explicitly supplied grid is used as given (any subset of (0,1) yields
    a valid, if weaker, value).  Divergent evaluations return math.inf.
    """
    if p < 2.0 or Z < 1.0:
        raise ValueError("requires p >= 2 and Z >= 1")
    if isinstance(source, IndexedField):
        sig_hat = sigma_hat(source, p, Z)
        if covering is None:
            r_mat = distance_r_matrix(source, p, Z, alphas)
            if sig_hat > 0.0:
                r_mat = r_mat / sig_hat
            covering = EmpiricalCovering.from_distance_matrix(r_mat)
    else:
        sig_hat = float(source)
        if sig_hat < 0.0:
            raise ValueError("sigma_hat must be nonnegative")
        if covering is None:
            raise ValueError("a covering function is required with a scalar sigma_hat")
    rescaled = False
    if theta_grid is None:
        thetas = np.asarray(DEFAULT_THETA_GRID, dtype=float)
        if sig_hat >= 1.0:
            thetas = thetas / sig_hat
            rescaled = True
            warnings.warn(
                f"sigma_hat = {sig_hat:.6g} >= 1; theta grid rescaled into (0, 1/sigma_hat)",
                stacklevel=2,
            )
    else:
        thetas = np.asarray(theta_grid, dtype=float)
        if thetas.size == 0 or np.any(thetas <= 0.0) or np.any(thetas >= 1.0):
            raise ValueError("theta grid must be a nonempty subset of (0, 1)")
    if sig_hat == 0.0:
        sums = np.full(thetas.shape, 1.0 / (1.0 - thetas[0]))
        return NuPDetail(p, Z, 0.0, thetas, sums, 0.0, float(thetas[0]), rescaled)
    sums = np.array([_inner_theta_sum(covering, theta * sig_hat, theta, Z) for theta in thetas])
    i = int(np.argmin(sums))
    best = sums[i]
    value = math.inf if math.isinf(best) else (sig_hat * best) ** (1.0 / p)
    return NuPDetail(p, Z, sig_hat, thetas, sums, value, float(thetas[i]), rescaled)


def nu_p(
    source,
    p: float,
    Z: float,
    covering=None,
    theta_grid=None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> float:
    """The entropy functional value nu_p(Z); math.inf marks divergence."""
    return nu_p_detail(source, p, Z, covering, theta_grid, alphas).value


@dataclass(frozen=True)
class ChainedEnvelope:
    """Bundle of the chained quantities for one field: Z -> sigma_bar, sigma_hat, r_hat, nu."""

    field: IndexedField
    p: float
    alphas: tuple = DEFAULT_ALPHAS
    theta_grid: Optional[tuple] = None

    def sigma_bar(self, Z: float) -> float:
        return sigma_bar(self.field, self.p, Z)

    def sigma_hat(self, Z: float) -> float:
        return sigma_hat(self.field, self.p, Z)

    def r_hat_matrix(self, Z: float) -> np.ndarray:
        r = distance_r_matrix(self.field, self.p, Z, self.alphas)
        sig = self.sigma_hat(Z)
        return r / sig if sig > 0.0 else r

    def covering(self, Z: float) -> EmpiricalCovering:
        return EmpiricalCovering.from_distance_matrix(self.r_hat_matrix(Z))

    def nu(self, Z: float) -> float:
        return nu_p(self.field, self.p, Z, theta_grid=self.theta_grid, alphas=self.alphas)


def _nu_grid_envelope(
    p: float, Z_grid: np.ndarray, g: np.ndarray, rescaled_any: bool, label: str
) -> MomentEnvelope:
    """Grid envelope g(L) = nu_p(L/p) at L = p * Z_grid; warns for the caller of its caller."""
    if rescaled_any:
        warnings.warn(
            "sigma_hat >= 1 on part of the Z grid; theta scans rescaled into (0, 1/sigma_hat)",
            stacklevel=3,
        )
    if np.any(np.isinf(g)):
        bad = Z_grid[np.isinf(g)]
        raise ValueError(f"nu_p diverges at Z = {bad.tolist()}; shrink or shift the Z grid")
    return MomentEnvelope(
        L_grid=p * Z_grid,
        g_values=g,
        domain_low=p * float(Z_grid[0]),
        kind="grid",
        p=p,
        label=label,
    )


def nu_envelope(
    field: IndexedField,
    p: float,
    Z_grid,
    *,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    theta_grid=None,
    label: str = "",
) -> MomentEnvelope:
    """Moment envelope g(L) = nu_p(L/p) over L = p * Z_grid, for the block-sum bound."""
    Z_grid = np.asarray(Z_grid, dtype=float)
    if Z_grid.ndim != 1 or Z_grid.size < 2:
        raise ValueError("Z grid must be 1-d with at least two points")
    if np.any(Z_grid < 1.0):
        raise ValueError("Z grid must satisfy Z >= 1")
    g = np.empty(Z_grid.size)
    rescaled_any = False
    for i, Z in enumerate(Z_grid):
        thetas = theta_grid
        if thetas is None:
            sig = sigma_hat(field, p, Z)
            if sig >= 1.0:
                thetas = np.asarray(DEFAULT_THETA_GRID) / sig
                rescaled_any = True
        g[i] = nu_p(field, p, Z, theta_grid=thetas, alphas=alphas)
    return _nu_grid_envelope(p, Z_grid, g, rescaled_any, label or "chained")


def holder_example_envelope(
    C_rho: float,
    l: float,
    b: float,
    p: float,
    dim: int,
    D: float,
    *,
    Z_grid,
    C_cov: float = 1.0,
    theta_grid=None,
    sigma_coeff: float = 1.0,
) -> MomentEnvelope:
    """Envelope for a Hoelder-continuous field on a bounded set in R^dim.

    Models rho_{v,x}(t,s) <= B_v(x) ||t-s||^l with the aggregate bound
    int W^(p-1) B dmu <= C_rho * Z^b and sigma_bar = sigma_coeff * Z^b, valid
    for Z > 2*dim/l.  The chaining distance is then r <= c_Z ||t-s||^l with
    c_Z = 2p K_R(2Z) K_R^(p-1)(2(p-1)Z) C_rho Z^b (conjugate pair alpha =
    beta = 2), so covering numbers in r_hat reduce to the analytic form with
    an effective diameter D * (c_Z / sigma_hat)^(1/l).
    """
    if not 0.0 < l <= 1.0:
        raise ValueError("Hoelder index l must lie in (0, 1]")
    if b > 1.0:
        raise ValueError("moment growth power b must be <= 1")
    if D < 0.0 or C_rho <= 0.0 or sigma_coeff <= 0.0:
        raise ValueError("C_rho and sigma_coeff must be positive, D nonnegative")
    if p < 2.0:
        raise ValueError("p must be >= 2")
    Z_grid = np.asarray(Z_grid, dtype=float)
    if Z_grid.ndim != 1 or Z_grid.size < 2:
        raise ValueError("Z grid must be 1-d with at least two points")
    z_floor = max(1.0, 2.0 * dim / l)
    if np.any(Z_grid <= 2.0 * dim / l) or np.any(Z_grid < 1.0):
        raise ValueError(f"every Z must exceed max(1, 2*dim/l) = {z_floor}")
    g = np.empty(Z_grid.size)
    rescaled_any = False
    for i, Z in enumerate(Z_grid):
        sig_bar = sigma_coeff * Z**b
        sig_hat = rosenthal_upper(p * Z) ** p * sig_bar
        c_Z = (
            2.0
            * p
            * rosenthal_upper(2.0 * Z)
            * rosenthal_upper(2.0 * (p - 1.0) * Z) ** (p - 1.0)
            * C_rho
            * Z**b
        )
        cov = AnalyticCovering(D=D * (c_Z / sig_hat) ** (1.0 / l), dim=dim, l=l, C_cov=C_cov)
        thetas = theta_grid
        if thetas is None and sig_hat >= 1.0:
            thetas = np.asarray(DEFAULT_THETA_GRID) / sig_hat
            rescaled_any = True
        g[i] = nu_p(sig_hat, p, Z, covering=cov, theta_grid=thetas)
    return _nu_grid_envelope(p, Z_grid, g, rescaled_any, "holder-example")
