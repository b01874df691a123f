"""Monte Carlo harness for normed partial-sum trajectories.

Generates trajectories n -> ||S(n)|| / (sqrt(n) v_r(n)) for i.i.d. or
martingale-difference fields on finite grid spaces, estimates the tail
Q(u) = P(sup_n ... > u) empirically with exact binomial confidence limits,
and checks dominance against computed bound curves.

Reproducibility contract: each trial owns a counter-based substream keyed by
(seed, trial index) with a fixed in-trial draw order, so results are
bit-identical for any worker count and any chunking of the trial range.

Trials of either dependence run in chunks of _CHUNK, drawn _GROUP trials at
a time into one trial-major stage.  An iid group is summed and normed in the
stage.  A martingale group is copied step-major into one (n, trials, dim)
buffer, and once the chunk is drawn one Python loop over n turns that buffer
into the partial sums of all of its trials.  Every value is computed as in
the one-trial recurrence, so the draws and the output bytes are those of
stepping each trial on its own.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

# perfbench's traced pass wraps rosenthal_upper and mixed_norm by their names in this
# module; nothing calls these two names, so their perfbench counters read 0 until the
# package records its own run stats (ROADMAP direction 4)
from .constants import rosenthal_upper  # noqa: F401
from .grid_spaces import GridMeasureSpace, mixed_norm  # noqa: F401
from .grid_spaces import _exponents, _iterated_norm, _json_number
from .lil_bounds import TailBoundCurve, _check_u_grid
from .partitions import E_E, NormingSequence

__all__ = [
    "FieldSpec",
    "TrajectoryEnsemble",
    "EmpiricalCurve",
    "DominanceReport",
    "simulate_many",
    "empirical_Q",
    "clopper_pearson_upper",
    "dominance_report",
    "resolve_threads",
]

_FAMILIES = ("rademacher", "uniform", "gaussian", "weibull")
_CHUNK = 128
_GROUP = 32


@dataclass(frozen=True)
class FieldSpec:
    """Distribution, dependence, space, and norm of one simulated field.

    family: rademacher | uniform (on (-a, a)) | gaussian (std sigma, scalar
    or per grid point) | weibull (symmetrized, P(|xi| > z) = exp(-z^beta)).
    norm_kind: lp (single-factor space), mixed (one exponent per factor,
    first factor innermost), or cl (sup over t_size parameter slots of the
    lp norm, entries drawn independently per slot).
    dependence: iid, or martingale for the sign-flip coupling
    xi_j = s_j |y_j| (1 + kappa tanh(mean S_{j-1})) with a shared symmetric
    sign s_j, which is conditionally centered by construction.
    """

    family: str
    spaces: tuple
    norm_kind: str = "lp"
    p: Union[float, tuple] = 2.0
    a: float = 1.0
    sigma: Union[float, np.ndarray] = 1.0
    beta: float = 1.0
    dependence: str = "iid"
    kappa: float = 0.5
    t_size: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {_FAMILIES}")
        if self.dependence not in ("iid", "martingale"):
            raise ValueError("dependence must be 'iid' or 'martingale'")
        if not 0.0 <= self.kappa < 1.0:
            raise ValueError("kappa must lie in [0, 1)")
        spaces = tuple(self.spaces)
        if not spaces or not all(isinstance(s, GridMeasureSpace) for s in spaces):
            raise ValueError("spaces must be a nonempty tuple of GridMeasureSpace")
        if self.norm_kind == "lp" or self.norm_kind == "cl":
            if len(spaces) != 1:
                raise ValueError(f"{self.norm_kind} norm takes exactly one space factor")
            (p,) = _exponents(float(self.p))
            object.__setattr__(self, "p", p)
        elif self.norm_kind == "mixed":
            p = _exponents(np.atleast_1d(self.p))
            if len(p) != len(spaces):
                raise ValueError("mixed norm needs one exponent per space factor")
            object.__setattr__(self, "p", p)
        else:
            raise ValueError("norm_kind must be 'lp', 'mixed' or 'cl'")
        t = self.t_size
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or t < 1:
            raise ValueError(f"t_size must be a positive integer, got {t!r}")
        if self.norm_kind != "cl" and t != 1:
            raise ValueError("t_size is only meaningful for the cl norm")
        if self.family == "uniform" and not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"uniform half-width a must be finite and nonnegative, got {self.a!r}")
        if self.family == "weibull" and not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"weibull shape beta must be finite and positive, got {self.beta!r}")
        if self.family == "gaussian":
            sig = np.asarray(self.sigma, dtype=float)
            if not np.all(np.isfinite(sig) & (sig >= 0.0)):
                raise ValueError("gaussian sigma must be finite and nonnegative")
            if sig.ndim == 0:
                sig = np.full(self.x_size_of(spaces), float(sig))
            elif sig.shape != (self.x_size_of(spaces),):
                raise ValueError("per-point sigma must have one entry per grid point")
            object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "spaces", spaces)

    @staticmethod
    def x_size_of(spaces) -> int:
        return math.prod(s.size for s in spaces)

    @cached_property
    def x_size(self) -> int:
        # read on every g evaluation of the spec's envelope
        return self.x_size_of(self.spaces)

    @property
    def draw_dim(self) -> int:
        return self.x_size * self.t_size

    def to_json(self) -> dict:
        data = {
            "family": self.family,
            "dependence": self.dependence,
            "norm": {"kind": self.norm_kind, "p": list(self.p) if isinstance(self.p, tuple) else self.p},
            "spaces": [{"weights": [float(x) for x in s.weights]} for s in self.spaces],
        }
        if self.family == "uniform":
            data["a"] = self.a
        if self.family == "gaussian":
            data["sigma"] = [float(x) for x in np.atleast_1d(self.sigma)]
        if self.family == "weibull":
            data["beta"] = self.beta
        if self.dependence == "martingale":
            data["kappa"] = self.kappa
        if self.norm_kind == "cl":
            data["t_size"] = self.t_size
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FieldSpec":
        try:
            norm = data["norm"]
            kind = norm["kind"]
            p = _json_number(norm["p"], "p")
            spaces = tuple(GridMeasureSpace(_json_number(s["weights"], "weights")) for s in data["spaces"])
            kwargs = {}
            for key in ("a", "beta", "kappa"):
                if key in data:
                    kwargs[key] = _json_number(data[key], key)
            if "t_size" in data:
                kwargs["t_size"] = data["t_size"]
            if "sigma" in data:
                sig = np.asarray(_json_number(data["sigma"], "sigma"), dtype=float)
                kwargs["sigma"] = float(sig) if sig.ndim == 0 or sig.size == 1 else sig
            return cls(
                family=data["family"],
                spaces=spaces,
                norm_kind=kind,
                p=tuple(p) if isinstance(p, list) else float(p),
                dependence=data.get("dependence", "iid"),
                **kwargs,
            )
        except KeyError as exc:
            raise ValueError(f"field spec JSON is missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"field spec JSON has a field of the wrong type: {exc}") from exc


@dataclass(frozen=True)
class TrajectoryEnsemble:
    spec: FieldSpec
    n_max: int
    trials: int
    seed: int
    norming_r: float
    sup_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        sups = np.asarray(self.sup_values, dtype=float)
        if sups.shape != (self.trials,) or not np.all(np.isfinite(sups) & (sups >= 0.0)):
            raise ValueError("sup_values must be one finite nonnegative entry per trial")
        object.__setattr__(self, "sup_values", sups)


def resolve_threads(threads: Optional[int] = None) -> int:
    """Worker count: an explicit argument wins, else LIL_THREADS.

    LIL_THREADS unset means 1 worker, "0" means auto (min(8, cpu_count)),
    and a positive N means N workers.
    """
    if threads is None:
        raw = os.environ.get("LIL_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValueError(f"LIL_THREADS must be an integer, got {raw!r}") from exc
    if threads < 0:
        raise ValueError("thread count must be nonnegative")
    if threads == 0:
        threads = min(8, os.cpu_count() or 1)
    return threads


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def _fill_signs(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out with fair +-1 signs, drawn as integers in {0, 1}."""
    np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
    out -= 1.0


def _fill_steps(spec: FieldSpec, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill an (n, dim) buffer with one trial's steps.

    Fixed in-trial draw order: magnitudes (or symmetric values), then extra
    signs, then for a martingale spec the shared sign s_j of each step, which
    replaces the sign of every entry of that step.
    """
    if spec.family == "rademacher":
        _fill_signs(rng, out)
    elif spec.family == "uniform":
        out[...] = rng.uniform(-spec.a, spec.a, size=out.shape)
    elif spec.family == "gaussian":
        rng.standard_normal(out=out)
        out *= np.tile(np.atleast_1d(spec.sigma), spec.t_size)
    else:
        rng.random(out=out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        out **= 1.0 / spec.beta
        signs = np.empty_like(out)
        _fill_signs(rng, signs)
        out *= signs
    if spec.dependence == "martingale":
        shared = np.empty(len(out))
        _fill_signs(rng, shared)
        np.abs(out, out=out)
        out *= shared[:, None]


def _norm_trajectory(spec: FieldSpec, S: np.ndarray) -> np.ndarray:
    """||S(n)|| for a (trials, n, dim) stack of partial sums -> (trials, n)."""
    if spec.norm_kind == "cl":
        shaped = S.reshape(S.shape[0], S.shape[1], spec.t_size, spec.spaces[0].size)
        return _iterated_norm(shaped, [spec.spaces[0].weights], _exponents(spec.p)).max(axis=2)
    shaped = S.reshape(S.shape[0], S.shape[1], *reversed([sp.size for sp in spec.spaces]))
    return _iterated_norm(shaped, [sp.weights for sp in spec.spaces], _exponents(spec.p))


def _chunk_sups(spec: FieldSpec, seed: int, lo: int, hi: int, n_max: int, divisors: np.ndarray) -> np.ndarray:
    """Sups of trials lo..hi-1 -> (len(divisors), hi - lo).

    The trials are drawn _GROUP at a time into a trial-major stage, because
    the Gaussian and Weibull fills write with out=, which needs contiguous rows.
    """
    count = hi - lo
    martingale = spec.dependence == "martingale"
    stage = np.empty((min(_GROUP, count), n_max, spec.draw_dim))
    if martingale:
        X = np.empty((n_max, count, spec.draw_dim))
    sups = np.empty((len(divisors), count))
    for g in range(0, count, _GROUP):
        part = stage[: min(_GROUP, count - g)]
        for i, steps in enumerate(part):
            _fill_steps(spec, _trial_rng(seed, lo + g + i), steps)
        if martingale:
            X[:, g : g + len(part)] = part.swapaxes(0, 1)
        else:
            np.cumsum(part, axis=1, out=part)
            sups[:, g : g + len(part)] = _scaled_sups(spec, part, divisors)
    if martingale:
        _martingale_sums(spec.kappa, X)
        for g in range(0, count, _GROUP):
            sups[:, g : g + _GROUP] = _scaled_sups(spec, X[:, g : g + _GROUP].swapaxes(0, 1), divisors)
    return sups


def _scaled_sups(spec: FieldSpec, S: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """max over n of ||S(n)|| / divisors[k, n] for a (trials, n, dim) stack -> (len(divisors), trials)."""
    norms = _norm_trajectory(spec, S)
    sups = np.empty((len(divisors), len(S)))
    scaled = np.empty_like(norms)
    for k, d in enumerate(divisors):
        np.divide(norms, d, out=scaled)
        scaled.max(axis=1, out=sups[k])
    return sups


def _martingale_sums(kappa: float, X: np.ndarray) -> None:
    """Turn the step-major steps s |y| in X (n, trials, dim) into partial sums, in place.

    One loop over n steps all of the trials at once.  Each step does what the
    one-trial recurrence mult = 1 + kappa tanh(mean S(j-1)),
    S(j) = S(j-1) + s |y| mult does, with the same operations in the same
    order, so the sums do not depend on how the trials are chunked.
    """
    n_max, count, dim = X.shape
    prev = np.zeros((count, dim))
    mult = np.empty(count)
    mult_col = mult[:, None]
    for j in range(n_max):
        if dim == 1:
            np.tanh(prev[:, 0], out=mult)
        else:
            np.add.reduce(prev, axis=1, out=mult)  # np.mean is this sum, then a true divide
            mult /= dim
            np.tanh(mult, out=mult)
        mult *= kappa
        mult += 1.0
        cur = X[j]
        cur *= mult_col
        cur += prev
        prev = cur


def simulate_many(
    spec: FieldSpec,
    n_max: int,
    trials: int,
    seed: int,
    *,
    rs,
    threads: Optional[int] = None,
) -> tuple[TrajectoryEnsemble, ...]:
    """Per-trial sup of ||S(n)||/(sqrt(n) v_r(n)) over n <= n_max, one ensemble per r in rs.

    The trajectories depend only on (seed, trial), not on r, so evaluating
    several norming powers costs one divide-and-max each instead of a full
    re-simulation: every returned ensemble is identical to a call with that r
    alone.  Trials run in deterministic chunks over a thread pool; each
    trial's substream is keyed by (seed, trial), so the output is independent
    of the worker count.
    """
    if n_max < 1 or trials < 1:
        raise ValueError("n_max and trials must be >= 1")
    rs = tuple(float(r) for r in rs)
    if not rs:
        raise ValueError("need at least one norming power")
    for r in rs:
        NormingSequence.iterated_log(r)  # validates r >= 1/2
    ns = np.arange(1, n_max + 1, dtype=float)
    loglog = np.log(np.log(ns + (E_E - 1.0)))
    divisors = np.stack([np.sqrt(ns) * loglog**r for r in rs])
    divisors[:, 0] = 1.0  # sqrt(1) * v(1), exactly
    workers = resolve_threads(threads)
    bounds = [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]
    sups = np.empty((len(rs), trials))
    if workers <= 1 or len(bounds) == 1:
        for lo, hi in bounds:
            sups[:, lo:hi] = _chunk_sups(spec, seed, lo, hi, n_max, divisors)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_chunk_sups, spec, seed, lo, hi, n_max, divisors) for lo, hi in bounds]
            for (lo, hi), fut in zip(bounds, futures):
                sups[:, lo:hi] = fut.result()
    return tuple(
        TrajectoryEnsemble(spec, n_max, trials, seed, r, sups[i]) for i, r in enumerate(rs)
    )


@dataclass(frozen=True)
class EmpiricalCurve:
    u_grid: np.ndarray
    q_hat: np.ndarray
    cp_upper_99: np.ndarray
    trials: int


def clopper_pearson_upper(k: int, n: int) -> float:
    """Exact 99% binomial upper confidence limit for k successes in n trials.

    The 0.99 quantile of Beta(k + 1, n - k); closed form at k = 0.
    """
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n with n >= 1")
    if k == n:
        return 1.0
    if k == 0:
        return 1.0 - (1.0 - 0.99) ** (1.0 / n)
    from scipy.special import betaincinv  # a third of a second of import, needed only here
    return float(betaincinv(k + 1, n - k, 0.99))


def empirical_Q(ens: TrajectoryEnsemble, u_grid) -> EmpiricalCurve:
    """Empirical tail Q_hat(u) = #(sup > u)/trials with 99% upper confidence limits."""
    u_grid = np.asarray(u_grid, dtype=float)
    _check_u_grid(u_grid)
    sups = np.sort(ens.sup_values)
    n = ens.trials
    exceed = n - np.searchsorted(sups, u_grid, side="right")
    q_hat = exceed / n
    cp = np.array([clopper_pearson_upper(int(k), n) for k in exceed])
    return EmpiricalCurve(u_grid, q_hat, cp, n)


@dataclass(frozen=True)
class DominanceReport:
    u_grid: np.ndarray
    cp_upper: np.ndarray
    bound: np.ndarray
    passed: np.ndarray

    @property
    def all_pass(self) -> bool:
        return bool(self.passed.all())

    @property
    def failures(self) -> list:
        return [
            (float(u), float(c), float(b))
            for u, c, b, ok in zip(self.u_grid, self.cp_upper, self.bound, self.passed)
            if not ok
        ]


def dominance_report(curve: EmpiricalCurve, bound: TailBoundCurve) -> DominanceReport:
    """Per-u PASS iff the 99% upper confidence limit is <= the bound, or the bound is vacuous.

    A failure indicates a bug somewhere: the bound is proved for the
    all-horizon sup, which stochastically dominates the simulated one.
    """
    if curve.u_grid.shape != bound.u_grid.shape or not np.allclose(
        curve.u_grid, bound.u_grid, rtol=1e-12, atol=0.0
    ):
        raise ValueError("empirical and bound curves must share the same u grid")
    ok = (curve.cp_upper_99 <= bound.values + 1e-12) | (bound.values >= 1.0)
    return DominanceReport(curve.u_grid, curve.cp_upper_99, bound.values, ok)
