"""Finite weighted grids and mixed Lebesgue-Riesz norms.

All measure spaces in this package are finite grids of points with positive
weights, so every integral is an exact weighted sum and every inequality can
be checked up to floating point only.  Product spaces are represented as an
ordered tuple of axes; the mixed norm iterates the axes innermost-first, so
the axis order is part of the data and |f|_{p1,p2} and |f|_{p2,p1} are
genuinely different numbers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "GridMeasureSpace",
    "GridFunction",
    "lp_norm",
    "mixed_norm",
    "minkowski_slack",
    "permutation_slack",
    "flatten_product",
    "grid_function_to_json",
    "grid_function_from_json",
]


@dataclass(frozen=True)
class GridMeasureSpace:
    """One axis of a (possibly product) measure space: points 0..n-1 with masses."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("all weights must be positive and finite")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= 1e-9

    @classmethod
    def uniform_probability(cls, n: int) -> "GridMeasureSpace":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def counting(cls, n: int) -> "GridMeasureSpace":
        return cls(np.ones(n))


@dataclass(frozen=True)
class GridFunction:
    """Real values on a product grid; values axis k corresponds to axes[k].

    Axis 0 is the innermost factor of the mixed norm.
    """

    axes: tuple[GridMeasureSpace, ...]
    values: np.ndarray

    def __post_init__(self):
        axes = tuple(self.axes)
        vals = np.asarray(self.values, dtype=float)
        shape = tuple(ax.size for ax in axes)
        if vals.shape != shape:
            raise ValueError(f"values shape {vals.shape} does not match axes {shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite everywhere")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", vals)

    @property
    def n_factors(self) -> int:
        return len(self.axes)

    def reorder(self, order: Sequence[int]) -> "GridFunction":
        """Same function with axes permuted; order[i] is the old index of new axis i."""
        order = tuple(order)
        if sorted(order) != list(range(self.n_factors)):
            raise ValueError("order must be a permutation of the axes")
        return GridFunction(
            tuple(self.axes[i] for i in order),
            np.transpose(self.values, order),
        )


def _exponents(p) -> tuple:
    """p (a number or a sequence) as a tuple of exponents, each finite and >= 1."""
    exps = (float(p),) if isinstance(p, numbers.Real) else tuple(float(q) for q in p)
    if not exps or any((not math.isfinite(q)) or q < 1.0 for q in exps):
        raise ValueError(f"exponents must be a non-empty list of finite values >= 1, got {p!r}")
    return exps


def _weighted_sum(x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_i x[..., i] w[i] over the last axis, in index order, into out (fresh if None); it may overwrite x.

    Elementwise, so a row's bits depend on that row alone, unlike in a matrix product.
    """
    total = np.multiply(x[..., 0], w[0], out=out)
    for i in range(1, w.size):
        column = x[..., i]
        column *= w[i]
        total += column
    return total


def _lq_norm(x: np.ndarray, w: np.ndarray, q: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """L^q(w) norm over the last axis of a nonnegative array, into out (fresh if None); it may overwrite x.

    A one-point axis needs no power or root: (x^q w)^(1/q) = x w^(1/q).
    """
    if w.size == 1:
        return np.multiply(x[..., 0], w[0] ** (1.0 / q), out=out)
    x **= q
    total = _weighted_sum(x, w, out)
    total **= 1.0 / q
    return total


def _iterated_norm(x: np.ndarray, weights, exps) -> np.ndarray:
    """Iterated norm of |x| over its trailing axes, unchecked.

    Factor k (weights[k], exps[k]) sits on axis -1-k, so factor 0, the
    innermost, is the last axis and is reduced first; leading axes are kept.
    |x| is taken into a fresh array, which the reductions overwrite, and
    each reduction allocates its output.
    """
    x = np.abs(x)
    for w, q in zip(weights, exps):
        x = _lq_norm(x, w, q)
    return x


_PAGE_BYTES = 4096
_SLOT_BYTES = 320


def _staggered(shape: tuple, slot: int) -> np.ndarray:
    """Uninitialized float64 array of shape, starting slot * 320 bytes past a 4 KiB page boundary.

    Work arrays a whole number of pages long (a (16, 2016) pair array is
    exactly 63 pages) would otherwise start at one offset within the page,
    and a kernel whose output runs a little ahead of its input there can
    stall on false store-to-load dependencies (4K aliasing).
    """
    n_bytes = 8 * math.prod(shape)
    raw = np.empty(n_bytes + _PAGE_BYTES + slot * _SLOT_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % _PAGE_BYTES + slot * _SLOT_BYTES
    return raw[start : start + n_bytes].view(np.float64).reshape(shape)


def _moment_root(a: np.ndarray, w: np.ndarray) -> Callable[[float], np.ndarray]:
    """v -> (E|a|^v)^(1/v) over the last axis (weights w), as m (E(|a|/m)^v)^(1/v).

    m is the largest |a| of the row (a row with m = 0 gives 0).  The largest
    term of each sum is then exactly its weight, so no order v underflows it
    and none overflows.  log(|a|/m) is taken once, outcome axis first, so
    each v costs one multiply and one exp per entry (log 0 = -inf, whose
    exp is 0); _weighted_sum then adds the outcomes in index order into the
    work array's first row, and the outer root is a power, as in _lq_norm.
    The work arrays are allocated once, on distinct page offsets
    (_staggered), and each call returns a fresh array.  A root is not
    re-entrant: two threads must not call one root.
    """
    a = np.abs(a)
    m = a.max(axis=-1)
    np.divide(a, m[..., None], out=a, where=m[..., None] > 0.0)  # a row with m = 0 is 0 already
    log_ratio = _staggered((w.size,) + m.shape, 0)
    log_ratio[...] = np.moveaxis(a, -1, 0)
    del a  # freed before the work array is allocated
    with np.errstate(divide="ignore"):
        np.log(log_ratio, out=log_ratio)
    work = _staggered(log_ratio.shape, 1)
    terms, first = np.moveaxis(work, 0, -1), work[0]  # views made once, not per order

    def root(v: float) -> np.ndarray:
        np.multiply(log_ratio, v, out=work)
        np.exp(work, out=work)
        total = _weighted_sum(terms, w, first)
        total **= 1.0 / v
        return m * total

    return root


def mixed_norm(f: GridFunction, p) -> float:
    """Iterated norm with exponent p[k] on axis k, innermost (axis 0) first.

    For a two-factor f this is ( sum_x2 w2 ( sum_x1 w1 |f|^p1 )^(p2/p1) )^(1/p2).
    """
    exps = _exponents(p)
    if len(exps) != f.n_factors:
        raise ValueError(
            f"exponent vector has {len(exps)} components, function has {f.n_factors} factors"
        )
    # a leading axis of one keeps every step an array operation, as in the
    # batched callers: numpy's scalar power rounds differently from its array one
    return float(_iterated_norm(f.values.T[None], [ax.weights for ax in f.axes], exps)[0])


def lp_norm(f: GridFunction, p: float) -> float:
    """Plain weighted p-norm ( sum_i w_i |f_i|^p )^(1/p) on a single-factor grid."""
    if f.n_factors != 1:
        raise ValueError("lp_norm requires a single-factor space; use mixed_norm or flatten_product")
    return mixed_norm(f, (p,))


def flatten_product(f: GridFunction) -> GridFunction:
    """Collapse a product grid onto the single product-measure axis.

    The flat ordering matches serialization: axis 0 (first, innermost) fastest.
    """
    w = f.axes[0].weights
    for ax in f.axes[1:]:
        w = np.multiply.outer(ax.weights, w).ravel()
    # weights built outermost-major so index = i1 + n1*(i2 + n2*(...)) matches order="F"
    flat_vals = f.values.ravel(order="F")
    return GridFunction((GridMeasureSpace(w),), flat_vals)


def _check_probability_axis(space: GridMeasureSpace, uniform: bool) -> None:
    if not space.is_probability:
        raise ValueError("second factor must carry probability weights summing to 1")
    w = space.weights
    if uniform and np.any(np.abs(w - 1.0 / w.size) > 1e-12):
        raise ValueError("second factor must be a uniform probability grid")


def _check_centered(values: np.ndarray, w: np.ndarray) -> None:
    """ValueError unless every row of values (last axis, probability weights w) has mean 0.

    The Rosenthal step inside every envelope needs centered summands; the
    tolerance 1e-9 max(1, max|values|) absorbs the roundoff of the mean.
    """
    tol = 1e-9 * max(1.0, float(np.abs(values).max(initial=0.0)))
    if np.any(np.abs(_weighted_sum(values.copy(), w)) > tol):
        raise ValueError("field is not centered: its mean over Omega is nonzero at some point")


def minkowski_slack(f: GridFunction, p: float, m: float) -> float:
    """Slack of the generalized Minkowski inequality on X x Omega.

    Returns |f|_{pm,Omega;p,X} - |f|_{p,X;mp,Omega}, which is >= 0 (up to
    roundoff) whenever m >= 1 and the second factor is a probability grid.
    Equality holds for factorized f and for m = 1.
    """
    if f.n_factors != 2:
        raise ValueError("minkowski_slack expects a two-factor function on X x Omega")
    if p < 1.0 or m < 1.0:
        raise ValueError("p and m must be >= 1")
    _check_probability_axis(f.axes[1], uniform=True)
    lhs = mixed_norm(f, (p, m * p))
    rhs = mixed_norm(f.reorder((1, 0)), (m * p, p))
    return rhs - lhs


def permutation_slack(f: GridFunction, p, r: float) -> float:
    """Slack of the permutation inequality: moving the largest exponent innermost grows the norm.

    f lives on X_1 x ... x X_l x Z with Z the last axis; returns
    |f|_{r,Z;p,X} - |f|_{p,X;r,Z}, nonnegative (up to roundoff) when r >= max(p).
    """
    exps = _exponents(p)
    if f.n_factors != len(exps) + 1:
        raise ValueError("function must have one more factor (Z, last axis) than the exponent vector")
    if r < max(exps):
        raise ValueError("permutation inequality requires r >= max exponent")
    z_axis = f.n_factors - 1
    small = mixed_norm(f, exps + (r,))
    big = mixed_norm(f.reorder((z_axis,) + tuple(range(z_axis))), (r,) + exps)
    return big - small


def grid_function_to_json(f: GridFunction) -> dict:
    """JSON form: axes as {size, weights}, values flat with axis 0 (first, innermost) fastest."""
    return {
        "axes": [{"size": ax.size, "weights": ax.weights.tolist()} for ax in f.axes],
        "values": f.values.ravel(order="F").tolist(),
    }


def _json_number(value, name: str):
    """value if it is a number, or a list of numbers if it is a list.

    A bool, a string or anything else is a TypeError naming the field.
    """
    if isinstance(value, list):
        return [_json_number(v, name) for v in value]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def grid_function_from_json(doc: dict) -> GridFunction:
    try:
        axes = tuple(GridMeasureSpace(_json_number(a["weights"], "weights")) for a in doc["axes"])
        for a, ax in zip(doc["axes"], axes):
            size = a["size"]
            if isinstance(size, bool) or not isinstance(size, int):
                raise TypeError(f"size must be an integer, got {size!r}")
            if size != ax.size:
                raise ValueError("axis size does not match its weights length")
        shape = tuple(ax.size for ax in axes)
        values = np.asarray(_json_number(doc["values"], "values"), dtype=float).reshape(shape, order="F")
    except KeyError as exc:
        raise ValueError(f"grid function JSON is missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"grid function JSON has a field of the wrong type: {exc}") from exc
    return GridFunction(axes, values)
