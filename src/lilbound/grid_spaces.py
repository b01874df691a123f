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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GridMeasureSpace",
    "GridFunction",
    "ExponentVector",
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


@dataclass(frozen=True)
class ExponentVector:
    """Exponent per product factor; p_bar is the largest component."""

    components: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(float(p) for p in self.components)
        if not comps:
            raise ValueError("exponent vector must be non-empty")
        if any((not math.isfinite(p)) or p < 1.0 for p in comps):
            raise ValueError("all exponents must be finite and >= 1")
        object.__setattr__(self, "components", comps)

    @property
    def p_bar(self) -> float:
        return max(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


def _as_exponents(p) -> ExponentVector:
    if isinstance(p, ExponentVector):
        return p
    if isinstance(p, (int, float)):
        return ExponentVector((float(p),))
    return ExponentVector(tuple(float(q) for q in p))


def mixed_norm(f: GridFunction, p) -> float:
    """Iterated norm with exponent p[k] on axis k, innermost (axis 0) first.

    For a two-factor f this is ( sum_x2 w2 ( sum_x1 w1 |f|^p1 )^(p2/p1) )^(1/p2).
    """
    exps = _as_exponents(p)
    if len(exps) != f.n_factors:
        raise ValueError(
            f"exponent vector has {len(exps)} components, function has {f.n_factors} factors"
        )
    return _mixed_norm_array(np.abs(f.values), _broadcast_weights(f.axes), exps)


def _broadcast_weights(axes) -> tuple:
    """Axis weights shaped to broadcast along axis 0 at each step of _mixed_norm_array."""
    n = len(axes)
    return tuple(ax.weights.reshape((-1,) + (1,) * (n - 1 - k)) for k, ax in enumerate(axes))


def _mixed_norm_array(values: np.ndarray, weights, exps) -> float:
    """Iterated norm of nonnegative values, innermost (axis 0) first, unchecked."""
    out = values
    for w, q in zip(weights, exps):
        out = (w * out**q).sum(axis=0) ** (1.0 / q)
    return float(out)


def lp_norm(f: GridFunction, p: float) -> float:
    """Plain weighted p-norm ( sum_i w_i |f_i|^p )^(1/p) on a single-factor grid."""
    if f.n_factors != 1:
        raise ValueError("lp_norm requires a single-factor space; use mixed_norm or flatten_product")
    if p < 1.0:
        raise ValueError("exponent must be >= 1")
    return mixed_norm(f, (p,))


def flatten_product(f: GridFunction) -> GridFunction:
    """Collapse a product grid onto the single product-measure axis.

    The flat ordering matches serialization: innermost axis varies fastest.
    """
    w = f.axes[0].weights
    for ax in f.axes[1:]:
        w = np.multiply.outer(ax.weights, w).ravel()
    # weights built outermost-major so index = i1 + n1*(i2 + n2*(...)) matches order="F"
    flat_vals = f.values.ravel(order="F")
    return GridFunction((GridMeasureSpace(w),), flat_vals)


def _check_probability_axis(space: GridMeasureSpace, uniform: bool) -> None:
    w = space.weights
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("second factor must carry probability weights summing to 1")
    if uniform and np.any(np.abs(w - 1.0 / w.size) > 1e-12):
        raise ValueError("second factor must be a uniform probability grid")


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
    exps = _as_exponents(p)
    if f.n_factors != len(exps) + 1:
        raise ValueError("function must have one more factor (Z, last axis) than the exponent vector")
    if r < exps.p_bar:
        raise ValueError("permutation inequality requires r >= max exponent")
    z_axis = f.n_factors - 1
    small = mixed_norm(f, tuple(exps) + (r,))
    big = mixed_norm(f.reorder((z_axis,) + tuple(range(z_axis))), (r,) + tuple(exps))
    return big - small


def grid_function_to_json(f: GridFunction) -> dict:
    """JSON form: axes as {size, weights}, values flat with the innermost axis fastest."""
    return {
        "axes": [{"size": ax.size, "weights": ax.weights.tolist()} for ax in f.axes],
        "values": f.values.ravel(order="F").tolist(),
    }


def grid_function_from_json(doc: dict) -> GridFunction:
    try:
        axes = tuple(GridMeasureSpace(np.asarray(a["weights"], dtype=float)) for a in doc["axes"])
        for a, ax in zip(doc["axes"], axes):
            if int(a["size"]) != ax.size:
                raise ValueError("axis size does not match its weights length")
        shape = tuple(ax.size for ax in axes)
        values = np.asarray(doc["values"], dtype=float).reshape(shape, order="F")
    except KeyError as exc:
        raise ValueError(f"grid function JSON is missing field {exc}") from exc
    return GridFunction(axes, values)
