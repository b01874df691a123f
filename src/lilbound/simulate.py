"""Monte Carlo harness for normed partial-sum trajectories.

Generates trajectories n -> ||S(n)|| / (sqrt(n) v_r(n)) for i.i.d. or
martingale-difference fields on finite grid spaces, estimates the tail
Q(u) = P(sup_n ... > u) empirically with exact binomial confidence limits,
and checks dominance against computed bound curves.

Reproducibility contract: each trial owns a counter-based substream keyed by
(seed, trial index) with a fixed in-trial draw order, so results are
bit-identical for any worker count and any chunking of the trial range.

Trials of either dependence run in chunks of _CHUNK.  Each chunk keeps one
Philox generator and re-keys it to each trial's substream, and draws its
trials _BLOCK at a time into one small trial-major stage.  Both passes norm
in one layout, whose last axis is a contiguous run, through one in-place
reduction (_state_norms): an iid block is summed into (trials, dim, n), and
normed, divided and maxed while it is in cache; a martingale chunk is
copied into one (n, dim, trials) state, each step dim contiguous rows of
the chunk's trials, which one Python loop over n turns into partial sums.
Every value is computed as in the one-trial recurrence, so the draws and
the output bytes are those of stepping each trial on its own.  Signs are
read from raw Philox words, as the bits numpy's integers(0, 2) takes from
them (_fill_signs).
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
from .grid_spaces import _exponents, _json_number, _lq_norm, _staggered
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
# iid trials per block: 8 trials to n = 10^4 are 0.64 MB per dimension.  At one
# worker, blocks of 1 and 8 trials ran equally fast; at two, rademacher-lp ran at
# ~40M trial-steps/s with 1-trial blocks against 65-73M with 8, the difference
# being GIL hand-offs between the workers' short numpy calls (BENCH_21.json).
_BLOCK = 8
# steps per block of the martingale divide-and-max: 256 steps of 128 trials are 256 KiB
_STEPS = 256


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


def _rekey(rng: np.random.Generator, seed: int, trial: int) -> None:
    """Put rng's Philox at the start of trial's substream, the state _trial_rng(seed, trial) starts in.

    Counter 0, key (seed, trial), an empty word buffer and no buffered
    32-bit half.  It costs about a third of building a new generator,
    which also seeds a SeedSequence from OS entropy.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": np.array([seed, trial], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # the buffer is used up: the next draw computes a new block
        "has_uint32": 0,
        "uinteger": 0,
    }


def _fill_signs(rng: np.random.Generator, *outs: np.ndarray) -> None:
    """Fill outs, in turn, with the signs rng.integers(0, 2, size=m) * 2.0 - 1.0 over their m entries.

    integers(0, 2) maps each 32-bit half of a raw 64-bit word, low half
    first, to its top bit (Lemire's multiply-shift by 2), so the m signs
    are the top bits of the halves of the next ceil(m/2) raw words, read
    here as the words' little-endian 32-bit halves shifted by 31 (a view on
    a little-endian host).  An odd m leaves the last word's high half
    buffered, as integers does.  rng must hold no buffered half on entry,
    which holds after any draw but an integer one; so a trial draws all of
    its signs in one call.
    """
    m = sum(out.size for out in outs)
    raw = rng.bit_generator.random_raw((m + 1) // 2)
    bits = raw.astype("<u8", copy=False).view("<u4") >> 31
    start = 0
    for out in outs:
        np.multiply(bits[start : start + out.size].reshape(out.shape), 2.0, out=out)
        out -= 1.0
        start += out.size
    if m % 2:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, int(raw[-1] >> np.uint64(32))
        rng.bit_generator.state = state


def _fill_steps(
    spec: FieldSpec,
    rng: np.random.Generator,
    out: np.ndarray,
    signs: Optional[np.ndarray] = None,
    shared: Optional[np.ndarray] = None,
) -> None:
    """Fill an (n, dim) buffer with one trial's steps.

    Fixed in-trial draw order: magnitudes (or symmetric values), then extra
    signs, then for a martingale spec the shared sign s_j of each step, which
    replaces the sign of every entry of that step.  signs (out's shape, for
    weibull) and shared (length n, for a martingale) are reused scratch,
    allocated here when not given.
    """
    signed = []  # arrays to fill with signs, in draw order, after the values
    if spec.family == "rademacher":
        signed.append(out)
    elif spec.family == "uniform":
        # rng.uniform(-a, a)'s own low + range * u, without its temporary
        rng.random(out=out)
        out *= spec.a - (-spec.a)
        out += -spec.a
    elif spec.family == "gaussian":
        rng.standard_normal(out=out)
        out *= np.tile(np.atleast_1d(spec.sigma), spec.t_size)
    else:
        rng.random(out=out)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        out **= 1.0 / spec.beta
        signs = np.empty_like(out) if signs is None else signs
        signed.append(signs)
    if spec.dependence == "martingale":
        shared = np.empty(len(out)) if shared is None else shared
        signed.append(shared)
    if signed:
        _fill_signs(rng, *signed)
    if spec.family == "weibull":
        out *= signs
    if spec.dependence == "martingale":
        np.abs(out, out=out)
        out *= shared[:, None]


def _chunk_sups(spec: FieldSpec, seed: int, lo: int, hi: int, n_max: int, divisors: np.ndarray) -> np.ndarray:
    """Sups of trials lo..hi-1 -> (len(divisors), hi - lo).

    One generator is re-keyed to each trial's substream (_rekey), at about
    a third of the cost of a new one, and trials are drawn _BLOCK at a time
    into the stage.  An iid block's cumsum writes, through a transposed
    out=, into the (trials, dim, n) sums array, where _state_norms reduces
    it to its norms in place; they are then divided and maxed through one
    scaled array.  A martingale block is copied, with one transposing copy,
    into the chunk's (n, dim, trials) state X; once every block is in,
    _martingale_sums turns X into partial sums, _state_norms reduces it to
    its norms in place and _step_sups divides and maxes them a block of
    steps at a time.  Either way the norm's reductions run along contiguous
    runs, which numpy's SIMD loops need (reducing the trial-major stage in
    place writes with a stride of dim).  Every buffer is allocated once per
    call; the stage, sums and scaled arrays start at staggered page offsets
    so that the streams of one operation do not alias.  The stage is
    trial-major because the Gaussian and Weibull fills write with out=,
    which needs contiguous rows.
    """
    count = hi - lo
    martingale = spec.dependence == "martingale"
    rows = min(_BLOCK, count)
    stage = _staggered((rows, n_max, spec.draw_dim), 0)
    signs = np.empty((n_max, spec.draw_dim)) if spec.family == "weibull" else None
    shared = np.empty(n_max) if martingale else None
    sups = np.empty((len(divisors), count))
    rng = _trial_rng(seed, lo)
    if martingale:
        X = np.empty((n_max, spec.draw_dim, count))
    else:
        sums = _staggered((rows, spec.draw_dim, n_max), 1)
        scaled = _staggered((rows, n_max), 2)
    for g in range(0, count, rows):
        part = stage[: min(rows, count - g)]
        for i, steps in enumerate(part):
            _rekey(rng, seed, lo + g + i)
            _fill_steps(spec, rng, steps, signs, shared)
        if martingale:
            X[:, :, g : g + len(part)] = part.transpose(1, 2, 0)
        else:
            block = sums[: len(part)]
            np.cumsum(part, axis=1, out=block.transpose(0, 2, 1))
            _scaled_sups(_state_norms(spec, block), divisors, sups[:, g : g + len(part)], scaled)
    if martingale:
        _martingale_sums(spec.kappa, X)
        _step_sups(_state_norms(spec, X), divisors, sups)
    return sups


def _scaled_sups(norms: np.ndarray, divisors: np.ndarray, out: np.ndarray, scaled: np.ndarray) -> None:
    """out[k] = max over n of norms / divisors[k] for (trials, n) norms; scaled is scratch with >= trials rows."""
    scaled = scaled[: len(norms)]
    for k, d in enumerate(divisors):
        np.divide(norms, d, out=scaled)
        scaled.max(axis=1, out=out[k])


def _step_sups(norms: np.ndarray, divisors: np.ndarray, out: np.ndarray) -> None:
    """out[k] = max over n of norms / divisors[k] for (n, trials) norms, _STEPS steps at a time.

    Each block of steps is divided into one small scratch array and maxed
    into a row; max is exact, so the blocks give the bytes of one max over n.
    """
    n_max, count = norms.shape
    scaled = np.empty((min(_STEPS, n_max), count))
    peak = np.empty(count)
    for a in range(0, n_max, len(scaled)):
        block = norms[a : a + len(scaled)]
        part = scaled[: len(block)]
        for k, d in enumerate(divisors):
            np.divide(block, d[a : a + len(block), None], part)
            if a == 0:
                part.max(axis=0, out=out[k])
            else:
                np.maximum(out[k], part.max(axis=0, out=peak), out=out[k])


def _state_norms(spec: FieldSpec, X: np.ndarray) -> np.ndarray:
    """||S|| of each (..., dim, m) run of X, reduced in X -> a (..., m) view of X.

    The last axis is a contiguous run of m values per grid entry: an iid
    block is (trials, dim, n), the martingale state (n, dim, trials).  X is
    viewed with its factor axes in front of that run, factor 0 (the
    innermost) last of them.  |X| is taken in place, and _lq_norm reduces
    each factor axis into that axis's first slice, in index order, so each
    norm gets mixed_norm's operations in the same order and nothing of X's
    size is allocated.  A cl norm's slots are then maxed into its first slot.
    """
    cl = spec.norm_kind == "cl"
    sizes = [sp.size for sp in spec.spaces] + ([spec.t_size] if cl else [])
    x = X.reshape(*X.shape[:-2], *reversed(sizes), X.shape[-1])
    np.abs(x, out=x)
    for sp, q in zip(spec.spaces, _exponents(spec.p)):
        x = _lq_norm(np.moveaxis(x, -2, -1), sp.weights, q, x[..., 0, :])
    if cl:
        first = x[..., 0, :]
        for slot in range(1, spec.t_size):
            np.maximum(first, x[..., slot, :], out=first)
        x = first
    return x


def _martingale_sums(kappa: float, X: np.ndarray) -> None:
    """Turn the steps s |y| in the state X (n, dim, trials) into partial sums, in place.

    One loop over n steps all of the trials at once; each step is dim
    contiguous rows of the trials, so the multiplier is broadcast over rows.
    The mean of S(j-1) is the sum np.mean takes along a trial's row, then a
    true divide: below 8 entries numpy adds a row left to right, as a reduce
    across the step's rows does; from 8 on it adds pairwise, so the step is
    copied to one contiguous row per trial and reduced along them.  Each
    step does what the one-trial recurrence mult = 1 + kappa tanh(mean
    S(j-1)), S(j) = S(j-1) + s |y| mult does, with the same operations in
    the same order, so the sums do not depend on how the trials are chunked.
    """
    n_max, dim, count = X.shape
    kappa, one, size = np.float64(kappa), np.float64(1.0), np.float64(dim)
    mult = np.empty((1, count))  # 2-D like a step: a 1-D multiplier broadcast ~20% slower at dim 1
    mean = mult[0]
    rows = np.empty((count, dim)) if dim >= 8 else None
    prev = np.zeros((dim, count))
    for cur in X:
        if dim == 1:
            np.tanh(prev, mult)
        else:
            if rows is None:
                np.add.reduce(prev, 0, None, mean)
            else:
                np.copyto(rows, prev.T)
                np.add.reduce(rows, 1, None, mean)
            np.divide(mult, size, mult)
            np.tanh(mult, mult)
        np.multiply(mult, kappa, mult)
        np.add(mult, one, mult)
        np.multiply(cur, mult, cur)
        np.add(cur, prev, cur)
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
        NormingSequence.iterated_log(r)  # validates 1/2 <= r < inf
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
