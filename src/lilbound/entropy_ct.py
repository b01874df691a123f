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

The distance r is a minimum over five conjugate Hoelder pairs (alpha, beta),
each needing a moment root over every (x, t < s).  The pairs are visited in
increasing Rosenthal weight, and a pair is skipped when a root already
computed at a lower order proves it loses at every (t, s): by Lyapunov's
inequality the root does not decrease in its order, so the lower root gives
a lower bound on the pair's value, and skipping needs that bound, shrunk by
a 1e-6 margin, to reach the minimum.  The minimum is exact and order-free,
so every distance byte is the all-pairs one.  nu_envelope also uses roots of
earlier Z on its grid as such floors, keeping at most three.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constants import rosenthal_upper
from .envelopes import MomentEnvelope
from .grid_spaces import GridMeasureSpace, _check_centered, _json_number, _moment_root, _weighted_sum

__all__ = [
    "IndexedField",
    "field_W",
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
    "nu_envelope",
    "DEFAULT_ALPHAS",
    "DEFAULT_THETA_GRID",
]

DEFAULT_ALPHAS = (1.25, 1.5, 2.0, 3.0, 5.0)
# (alpha, beta) with 1/alpha + 1/beta = 1, the pairs the chaining distance minimizes over
_CONJUGATE_PAIRS = tuple((a, a / (a - 1.0)) for a in DEFAULT_ALPHAS)
DEFAULT_THETA_GRID = tuple(np.round(np.arange(1, 20) * 0.05, 2))
# A pair is skipped only if its lower bound, shrunk by this margin, still loses the minimum
_SKIP_MARGIN = 1e-6
# Roots of earlier Z that nu_envelope keeps as floors (258 KB each on a 16 x 64 field)
_KEPT_FLOORS = 3


@dataclass(frozen=True)
class IndexedField:
    """Finite random field xi(x, t, omega) on X x T x Omega.

    values has shape (nx, nt, n_omega); omega_weights is a probability vector
    (the law of one summand); every slice xi(x, t, .) must be centered.
    """

    x_space: GridMeasureSpace
    omega_weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omega = GridMeasureSpace(self.omega_weights)
        if not omega.is_probability:
            raise ValueError("omega_weights must sum to 1")
        w = omega.weights
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError("values must have shape (nx, nt, n_omega)")
        if vals.shape[0] != self.x_space.size or vals.shape[2] != w.size:
            raise ValueError(
                f"values shape {vals.shape} does not match |X| = {self.x_space.size}, "
                f"|Omega| = {w.size}"
            )
        _check_centered(vals, w)
        object.__setattr__(self, "omega_weights", w)
        object.__setattr__(self, "values", vals)

    @property
    def n_t(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _value_root(self) -> Callable[[float], np.ndarray]:
        """v -> (E|xi(x,t,.)|^v)^(1/v), shape (nx, nt); its scaling is built once per field."""
        return _moment_root(self.values, self.omega_weights)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (t, s) of the pairs t < s, in np.triu_indices order."""
        return np.triu_indices(self.n_t, 1)

    @cached_property
    def _diff_root(self) -> Callable[[float], np.ndarray]:
        """v -> (E|xi(x,t,.) - xi(x,s,.)|^v)^(1/v) over _pairs, shape (nx, #pairs).

        |a - b| = |b - a| bit for bit, so a pair t < s covers (s, t) too and
        distance_r_matrix mirrors it.  Built once per field: the root keeps
        the pairs' log(|a - b|/m) and one work array of the same size, and
        each order costs a multiply and an exp per entry (see _moment_root;
        like it, not re-entrant).
        """
        t, s = self._pairs
        return _moment_root(self.values[:, t, :] - self.values[:, s, :], self.omega_weights)


def field_W(field: IndexedField, gamma: float) -> np.ndarray:
    """W_gamma(x) = sup_t (E|xi(x,t)|^gamma)^(1/gamma), as a vector over x.

    Each root is max-scaled, m (E(|xi|/m)^gamma)^(1/gamma) with m = max |xi(x,t,.)|,
    so values below 1 raised to a large gamma cannot underflow W to 0.
    """
    if gamma < 1.0:
        raise ValueError("moment order gamma must be >= 1")
    return field._value_root(gamma).max(axis=1)


def _check_p_Z(p: float, Z: float) -> None:
    """Reject p < 2 and Z < 1; written so that NaN and infinity fail too."""
    if not 2.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 2, got {p}")
    if not 1.0 <= Z < math.inf:
        raise ValueError(f"Z must be finite and >= 1, got {Z}")


def _pair_weight(p: float, Z: float, alpha: float, beta: float) -> float:
    """Rosenthal weight K_R(alpha Z) K_R^(p-1)((p-1) beta Z) of one conjugate pair."""
    return rosenthal_upper(alpha * Z) * rosenthal_upper((p - 1.0) * beta * Z) ** (p - 1.0)


def distance_r_matrix(field: IndexedField, p: float, Z: float) -> np.ndarray:
    """Full (nt, nt) matrix of r_{p,Z}; symmetric with zero diagonal.

    r_{p,Z}(t,s) = 2p inf_{alpha,beta} K_R(alpha Z) K_R^{p-1}((p-1) beta Z) J,
    J = int_X W^(p-1)_{(p-1) beta Z}(x) rho_{alpha Z, x}(t,s) mu(dx), with the
    infimum over conjugate pairs 1/alpha + 1/beta = 1, alpha in DEFAULT_ALPHAS.
    It is computed once per pair t < s and mirrored into the square.  Pairs
    that provably lose the minimum at every (t, s) are skipped (see
    _distance_r_matrix); the floors are the roots computed in this call.
    """
    return _distance_r_matrix(field, p, Z, [])


def _distance_r_matrix(field: IndexedField, p: float, Z: float, floors: list) -> np.ndarray:
    """distance_r_matrix, given floors: (order, root) pairs of field._diff_root.

    The conjugate pairs are visited in increasing Rosenthal weight.  The
    first is computed.  Before each later pair (alpha, beta), the floor of
    highest order u <= alpha Z gives a lower bound on its J: by Lyapunov's
    inequality the moment root rho_v does not decrease in v, so
    LB = weight * int_X W^(p-1) rho_u mu(dx) <= weight * J.  If
    LB (1 - 1e-6) >= the running minimum at every pair t < s, the pair
    cannot lower it and is skipped (>= lets pairs t, s with equal slices,
    at distance 0 under every pair, skip too); otherwise it is computed as
    before and its root is appended to floors.  The margin covers the
    roots' roundoff and is_probability's 1e-9 slack on the Omega weights,
    which moves Lyapunov's inequality by a factor of at most
    (1 + 1e-9)^|1/u - 1/v|.

    np.minimum is exact and order-free, so a skipped pair whose value cannot
    fall below the minimum leaves every byte as the all-pairs minimum.  LB
    is a matrix product: it only decides what to skip.  Were the
    certificate ever fooled, the distance would come from another conjugate
    pair, each its own Hoelder split, so it would be larger and the bound
    weaker, but still valid.
    """
    _check_p_Z(p, Z)
    mu_w = field.x_space.weights
    t, s = field._pairs
    best = None
    for weight, a, b in sorted((_pair_weight(p, Z, a, b), a, b) for a, b in _CONJUGATE_PAIRS):
        c = mu_w * field_W(field, (p - 1.0) * b * Z) ** (p - 1.0)
        below = [f for f in floors if f[0] <= a * Z]
        if best is not None and below:
            floor = max(below, key=lambda f: f[0])[1]
            if np.all((floor.T @ c) * (weight * (1.0 - _SKIP_MARGIN)) >= best):
                continue
        root = field._diff_root(a * Z)
        floors.append((a * Z, root))
        # _weighted_sum's index-order sum, without weighting root in place: it stays a floor
        J = root[0] * c[0]
        for i in range(1, c.size):
            J += root[i] * c[i]
        best = weight * J if best is None else np.minimum(best, weight * J)
    out = np.zeros((field.n_t, field.n_t))
    out[t, s] = out[s, t] = 2.0 * p * best
    return out


def _kept_floors(floors: list, Z: float) -> list:
    """The floors nu_envelope keeps for the next, larger Z: at most _KEPT_FLOORS, lowest order first.

    Every order a later Z asks for exceeds min(DEFAULT_ALPHAS) Z, so the
    highest floor at or below it serves every later pair, and no floor
    below it is ever the highest one that does.  Those are dropped.
    """
    floors = sorted(floors, key=lambda f: f[0])
    low = [i for i, f in enumerate(floors) if f[0] <= DEFAULT_ALPHAS[0] * Z]
    start = low[-1] if low else 0
    return floors[start : start + _KEPT_FLOORS]


def sigma_bar(field: IndexedField, p: float, Z: float) -> float:
    """sigma_bar = sup_t int_X (E|xi(x,t)|^{pZ})^{1/Z} mu(dx).

    The integrand is the p-th power of the max-scaled pZ-th moment root (see
    field_W), so values below 1 raised to pZ cannot underflow it to 0.
    """
    _check_p_Z(p, Z)
    roots = field._value_root(p * Z)
    per_t = _weighted_sum((roots**p).T, field.x_space.weights)
    return float(per_t.max())


def sigma_hat(field: IndexedField, p: float, Z: float) -> float:
    """sigma_hat = K_R^p(pZ) * sigma_bar."""
    sig_bar = sigma_bar(field, p, Z)  # checks p and Z before K_R sees them
    return rosenthal_upper(p * Z) ** p * sig_bar


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
        if not 0.0 <= self.D < math.inf:  # NaN fails it too
            raise ValueError(f"diameter D must be finite and nonnegative, got {self.D}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        if not 0.0 < self.l <= 1.0:
            raise ValueError("Hoelder index l must lie in (0, 1]")
        if not 0.0 < self.C_cov < math.inf:
            raise ValueError(f"C_cov must be finite and positive, got {self.C_cov}")

    @property
    def eps_one(self) -> float:
        """Radius above which a single ball suffices."""
        return (self.C_cov * self.D) ** self.l

    def n(self, eps: float) -> float:
        if self.D == 0.0 or eps >= self.eps_one:  # no power of a huge eps is taken
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
        # written so that NaN fails: every comparison with it is False
        if not (np.all((t > 0.0) & (t < math.inf)) and np.all(np.diff(t) <= 0.0)):
            raise ValueError(f"thresholds must be finite, positive and non-increasing, got {t.tolist()}")
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
            far = int(d_min.argmax())
            r = float(d_min[far])
            if r <= 0.0:
                break
            thresholds.append(r)
            np.minimum(d_min, dist[far], out=d_min)
        return cls(np.asarray(thresholds))

    @property
    def n_sat(self) -> float:
        return float(self.thresholds.size + 1)

    def n(self, eps: float) -> float:
        return 1.0 + int(np.count_nonzero(self.thresholds > eps))


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
                D=float(_json_number(data["D"], "D")),
                dim=data["d"],
                l=float(_json_number(data.get("l", 1.0), "l")),
                C_cov=float(_json_number(data.get("C_cov", 1.0), "C_cov")),
            )
        if kind == "empirical":
            return EmpiricalCovering(_json_number(data.get("thresholds", []), "thresholds"))
    except KeyError as exc:
        raise ValueError(f"covering JSON is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"covering JSON has a field of the wrong type: {exc}") from exc
    raise ValueError(f"unknown covering kind {kind!r}")


def _inner_theta_sum(covering, s: float, theta: float, Z: float) -> float:
    """sum_k theta^(k-1) N^(1/Z)(radius s^k), in closed form.

    N(s^k) is constant on the runs of k between the cuts where s^k crosses a
    covering threshold, so the sum is a few finite geometric blocks and a
    closed-form tail.  Returns math.inf when the series diverges (possible
    only in the analytic pure-power regime with ratio >= 1).
    """
    if s == 0.0:
        # radius identically 0 only happens for sigma_hat == 0, handled upstream
        raise ValueError("radius base must be positive")
    if s == 1.0:
        return covering.n(1.0) ** (1.0 / Z) / (1.0 - theta)
    if isinstance(covering, AnalyticCovering):
        return _analytic_sum(covering, s, theta, Z)
    t = covering.thresholds
    if s < 1.0 and (t.size == 0 or s < t[-1]):  # below every threshold from k = 1 on
        return covering.n_sat ** (1.0 / Z) / (1.0 - theta)
    far = t[t <= s] if s < 1.0 else t[t > s]  # the thresholds s^k crosses past k = 1
    x = np.log(far) / math.log(s)
    # Threshold t counts at k while s^k < t: from k = floor(x) + 1 on when
    # s < 1, up to k = ceil(x) - 1 when s > 1.  x is good to a few ulp; the
    # relative margin widens each such run of k, so rounding can only raise N.
    if s < 1.0:
        cuts, step = np.floor(x * (1.0 - 1e-12)) + 1.0, 1.0
    else:
        cuts, step = np.ceil(x * (1.0 + 1e-12))[::-1], -1.0
    n = covering.n(s) + step * np.arange(cuts.size + 1)
    first = theta ** np.concatenate(([0.0], cuts - 1.0))  # theta^(k-1) at each block's first k
    return float(n ** (1.0 / Z) @ (first - np.append(first[1:], 0.0))) / (1.0 - theta)


def _analytic_sum(cov: AnalyticCovering, s: float, theta: float, Z: float) -> float:
    """The inner sum for N(eps) = max(1, C_cov D / eps^(1/l))^dim, cut once at eps_one.

    Before c, the first k with s^k past eps_one, the terms are geometric with
    one ratio, from c on with the other: theta where N = 1, and theta
    s^(-dim/(l Z)) where N is a pure power.
    """
    if cov.D == 0.0:
        return 1.0 / (1.0 - theta)
    log_cd, ln_s, a = math.log(cov.C_cov) + math.log(cov.D), math.log(s), cov.dim / Z
    ratio = theta * math.exp(-a * ln_s / cov.l)
    head, tail = (ratio, theta) if s > 1.0 else (theta, ratio)
    if tail >= 1.0:
        return math.inf
    c = max(1, math.ceil(cov.l * log_cd / ln_s))  # ln eps_one / ln s

    def term(k):  # theta^(k-1) N^(1/Z)(s^k), in log space
        return math.exp((k - 1) * math.log(theta) + a * max(0.0, log_cd - k * ln_s / cov.l))

    return term(1) * (1.0 - head ** (c - 1)) / (1.0 - head) + term(c) / (1.0 - tail)


def _greedy_cover(field: IndexedField, p: float, Z: float, sig_hat: float, floors: list) -> EmpiricalCovering:
    """Greedy cover of T in the normalized distance r_hat = r_{p,Z} / sigma_hat."""
    r_mat = _distance_r_matrix(field, p, Z, floors)
    return EmpiricalCovering.from_distance_matrix(r_mat / sig_hat if sig_hat > 0.0 else r_mat)


def _default_thetas(sig_hat: float) -> tuple[np.ndarray, bool]:
    """DEFAULT_THETA_GRID, rescaled into (0, 1/sigma_hat) when sigma_hat >= 1 (flagged True)."""
    thetas = np.asarray(DEFAULT_THETA_GRID, dtype=float)
    if sig_hat >= 1.0:
        return thetas / sig_hat, True
    return thetas, False


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
    _check_p_Z(p, Z)
    if isinstance(source, IndexedField):
        sig_hat = sigma_hat(source, p, Z)
        if covering is None:
            covering = _greedy_cover(source, p, Z, sig_hat, [])
    else:
        sig_hat = float(source)
        if not 0.0 <= sig_hat < math.inf:  # NaN fails it too
            raise ValueError(f"sigma_hat must be finite and nonnegative, got {sig_hat}")
        if covering is None:
            raise ValueError("a covering function is required with a scalar sigma_hat")
    if theta_grid is None:
        thetas, rescaled = _default_thetas(sig_hat)
        if rescaled:
            warnings.warn(
                f"sigma_hat = {sig_hat:.6g} >= 1; theta grid rescaled into (0, 1/sigma_hat)",
                stacklevel=2,
            )
    else:
        rescaled = False
        thetas = np.asarray(theta_grid, dtype=float)
        if thetas.size == 0 or not np.all((thetas > 0.0) & (thetas < 1.0)):  # NaN fails it too
            raise ValueError(f"theta grid must be a nonempty subset of (0, 1), got {thetas.tolist()}")
    if sig_hat == 0.0:
        sums = np.full(thetas.shape, 1.0 / (1.0 - thetas[0]))
        return NuPDetail(p, Z, 0.0, thetas, sums, 0.0, float(thetas[0]), rescaled)
    sums = np.array([_inner_theta_sum(covering, theta * sig_hat, theta, Z) for theta in thetas])
    i = int(np.argmin(sums))
    best = sums[i]
    value = math.inf if math.isinf(best) else (sig_hat * best) ** (1.0 / p)
    return NuPDetail(p, Z, sig_hat, thetas, sums, value, float(thetas[i]), rescaled)


def nu_p(source, p: float, Z: float, covering=None, theta_grid=None) -> float:
    """The entropy functional value nu_p(Z); math.inf marks divergence."""
    return nu_p_detail(source, p, Z, covering, theta_grid).value


def nu_envelope(field: IndexedField, p: float, Z_grid) -> MomentEnvelope:
    """Moment envelope g(L) = nu_p(L/p) over L = p * Z_grid, for the block-sum bound.

    The Z grid (p with it) is checked whole before any Z is evaluated; each
    Z's sigma_hat and greedy cover are computed once and handed to nu_p.
    The grid increases, so the pair roots of one Z are floors for the next
    (see _distance_r_matrix): after each Z at most three are kept, the
    lowest useful orders first (_kept_floors).  On the bound_sweep theta
    field (16 x 64, 32 Z) that computes 34 pair roots instead of 160, with
    every g byte unchanged.
    """
    Z_grid = np.asarray(Z_grid, dtype=float)
    if Z_grid.ndim != 1 or Z_grid.size < 2:
        raise ValueError("Z grid must be 1-d with at least two points")
    if not np.all(np.isfinite(Z_grid)) or np.any(np.diff(Z_grid) <= 0.0):
        raise ValueError(f"Z grid must be finite and strictly increasing, got {Z_grid.tolist()}")
    _check_p_Z(p, float(Z_grid[0]))
    g = np.empty(Z_grid.size)
    rescaled_any = False
    floors = []
    for i, Z in enumerate(Z_grid):
        sig_hat = sigma_hat(field, p, Z)
        thetas, rescaled = _default_thetas(sig_hat)
        rescaled_any |= rescaled
        g[i] = nu_p(sig_hat, p, Z, _greedy_cover(field, p, Z, sig_hat, floors), thetas)
        floors = _kept_floors(floors, Z)
    if rescaled_any:
        warnings.warn(
            "sigma_hat >= 1 on part of the Z grid; theta scans rescaled into (0, 1/sigma_hat)",
            stacklevel=2,
        )
    return MomentEnvelope(p * Z_grid, g, p * float(Z_grid[0]), "chained")
