"""Mixed-norm grid calculus: identities, inequality slacks, serialization."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lilbound import (
    GridFunction,
    GridMeasureSpace,
    flatten_product,
    grid_function_from_json,
    grid_function_to_json,
    lp_norm,
    minkowski_slack,
    mixed_norm,
    permutation_slack,
)
from lilbound.grid_spaces import _moment_root, _weighted_sum

SLACK_FLOOR = -1e-10


def _random_axes(rng, sizes, probability_last=False, uniform_last=False):
    axes = []
    for i, n in enumerate(sizes):
        w = rng.uniform(0.1, 2.0, n)
        if i == len(sizes) - 1:
            if uniform_last:
                w = np.full(n, 1.0 / n)
            elif probability_last:
                w = w / w.sum()
        axes.append(GridMeasureSpace(w))
    return tuple(axes)


def _random_function(rng, sizes, **axis_kwargs) -> GridFunction:
    axes = _random_axes(rng, sizes, **axis_kwargs)
    values = rng.normal(scale=2.0, size=tuple(sizes))
    return GridFunction(axes, values)


def test_equal_exponents_collapse_to_flat_norm():
    rng = np.random.default_rng(20260801)
    for _ in range(50):
        n_factors = rng.integers(2, 4)
        sizes = rng.integers(1, 9, n_factors).tolist()
        f = _random_function(rng, sizes)
        p = float(rng.uniform(1.0, 6.0))
        nested = mixed_norm(f, (p,) * len(sizes))
        flat = lp_norm(flatten_product(f), p)
        assert nested == pytest.approx(flat, rel=1e-12)


def test_factorized_function_norm_splits_per_axis():
    rng = np.random.default_rng(20260802)
    for _ in range(50):
        sizes = rng.integers(1, 9, 2).tolist()
        axes = _random_axes(rng, sizes)
        a = rng.normal(scale=2.0, size=sizes[0])
        b = rng.normal(scale=2.0, size=sizes[1])
        f = GridFunction(axes, np.multiply.outer(a, b))
        p = tuple(rng.uniform(1.0, 6.0, 2))
        lhs = mixed_norm(f, p)
        rhs = lp_norm(GridFunction((axes[0],), a), p[0]) * lp_norm(
            GridFunction((axes[1],), b), p[1]
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_flatten_product_orders_first_axis_fastest():
    axes = (
        GridMeasureSpace(np.array([1.0, 2.0])),
        GridMeasureSpace(np.array([3.0, 4.0, 5.0])),
    )
    values = np.arange(6, dtype=float).reshape(2, 3)
    flat = flatten_product(GridFunction(axes, values))
    assert flat.values.tolist() == values.ravel(order="F").tolist()
    expected_w = np.multiply.outer(axes[1].weights, axes[0].weights).ravel()
    assert flat.axes[0].weights.tolist() == expected_w.tolist()


def test_single_point_norm_is_weighted_absolute_value():
    f = GridFunction((GridMeasureSpace(np.array([0.25])),), np.array([-3.0]))
    assert mixed_norm(f, (2.0,)) == pytest.approx(0.5 * 3.0, rel=1e-15)


def test_minkowski_slack_nonnegative_on_random_instances():
    rng = np.random.default_rng(20260803)
    for _ in range(200):
        nx, nw = rng.integers(1, 5), rng.integers(1, 9)
        f = _random_function(rng, [int(nx), int(nw)], uniform_last=True)
        p = float(rng.uniform(1.0, 4.0))
        m = float(rng.uniform(1.0, 3.0))
        assert minkowski_slack(f, p, m) >= SLACK_FLOOR


def test_minkowski_slack_vanishes_for_factorized_functions():
    rng = np.random.default_rng(20260804)
    axes = _random_axes(rng, [3, 4], uniform_last=True)
    f = GridFunction(axes, np.multiply.outer(rng.normal(size=3), rng.normal(size=4)))
    assert minkowski_slack(f, 2.5, 1.7) == pytest.approx(0.0, abs=1e-12)


def test_minkowski_slack_vanishes_at_unit_power():
    rng = np.random.default_rng(20260805)
    f = _random_function(rng, [3, 4], uniform_last=True)
    assert minkowski_slack(f, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_minkowski_slack_rejects_non_probability_axis():
    f = GridFunction(
        (GridMeasureSpace(np.array([1.0, 1.0])), GridMeasureSpace(np.array([1.0, 2.0]))),
        np.ones((2, 2)),
    )
    with pytest.raises(ValueError):
        minkowski_slack(f, 2.0, 1.5)


def test_permutation_slack_nonnegative_on_random_instances():
    rng = np.random.default_rng(20260806)
    for _ in range(200):
        sizes = [int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 9))]
        f = _random_function(rng, sizes)
        p = tuple(rng.uniform(1.0, 4.0, 2))
        r = float(max(p) + rng.uniform(0.0, 2.0))
        assert permutation_slack(f, p, r) >= SLACK_FLOOR


def test_permutation_slack_rejects_dominated_exponent():
    rng = np.random.default_rng(20260807)
    f = _random_function(rng, [2, 3])
    with pytest.raises(ValueError):
        permutation_slack(f, (3.0,), 2.0)
    # r must reach the largest exponent, wherever it sits
    g = _random_function(rng, [2, 2, 2, 3])
    with pytest.raises(ValueError):
        permutation_slack(g, (1.5, 4.0, 2.0), 3.5)
    assert permutation_slack(g, (1.5, 4.0, 2.0), 4.0) >= SLACK_FLOOR


@pytest.mark.parametrize(
    "p", [(0.5, 2.0), (2.0, math.inf), (math.nan, 2.0), ()], ids=["below-one", "inf", "nan", "empty"]
)
def test_mixed_norm_rejects_exponents_below_one_or_not_finite(p):
    f = _random_function(np.random.default_rng(20260808), [2, 3])
    with pytest.raises(ValueError):
        mixed_norm(f, p)


def test_grid_function_shape_mismatch_raises():
    axes = (GridMeasureSpace(np.ones(2)), GridMeasureSpace(np.ones(3)))
    with pytest.raises(ValueError):
        GridFunction(axes, np.ones((3, 2)))


def test_measure_space_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        GridMeasureSpace(np.array([1.0, 0.0]))


def test_uniform_and_counting_constructors():
    u = GridMeasureSpace.uniform_probability(4)
    c = GridMeasureSpace.counting(4)
    assert u.is_probability and u.total_mass == pytest.approx(1.0)
    assert not c.is_probability and c.total_mass == pytest.approx(4.0)


def test_reorder_transposes_values_and_axes():
    rng = np.random.default_rng(20260808)
    f = _random_function(rng, [2, 3, 4])
    g = f.reorder((2, 0, 1))
    assert g.values.shape == (4, 2, 3)
    assert np.array_equal(g.values, np.transpose(f.values, (2, 0, 1)))
    assert g.axes[0].size == 4


def test_json_round_trip_preserves_norms():
    rng = np.random.default_rng(20260809)
    f = _random_function(rng, [3, 5])
    doc = grid_function_to_json(f)
    g = grid_function_from_json(doc)
    p = (2.0, 3.0)
    assert mixed_norm(g, p) == pytest.approx(mixed_norm(f, p), rel=1e-15)
    assert np.array_equal(g.values, f.values)


def test_json_missing_field_raises_value_error():
    with pytest.raises(ValueError):
        grid_function_from_json({"axes": []})


def test_mixed_norm_is_homogeneous():
    rng = np.random.default_rng(20260810)
    f = _random_function(rng, [3, 4])
    scaled = GridFunction(f.axes, 2.5 * f.values)
    p = (1.5, 3.0)
    assert mixed_norm(scaled, p) == pytest.approx(2.5 * mixed_norm(f, p), rel=1e-12)


def test_mixed_norm_exponent_count_mismatch_raises():
    rng = np.random.default_rng(20260811)
    f = _random_function(rng, [3, 4])
    with pytest.raises(ValueError):
        mixed_norm(f, (2.0,))


def test_norm_monotone_in_probability_exponent():
    # On probability axes the norm grows with each exponent (Lyapunov).
    rng = np.random.default_rng(20260812)
    for _ in range(20):
        sizes = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
        axes = tuple(GridMeasureSpace.uniform_probability(n) for n in sizes)
        f = GridFunction(axes, rng.normal(size=tuple(sizes)))
        lo = mixed_norm(f, (1.5, 2.0))
        hi = mixed_norm(f, (2.5, 3.0))
        assert hi >= lo - 1e-12


@pytest.mark.parametrize("width", range(1, 34))
def test_weighted_sum_of_a_row_depends_on_that_row_alone(width):
    # The bytes of a row's sum are the same alone, in a stack, in an F-ordered
    # copy of the stack and as a prefix of a longer stack, and they are the
    # terms added in index order by hand.  _weighted_sum may overwrite its
    # input, so each call gets a copy.
    rng = np.random.default_rng(20261019 + width)
    w = rng.uniform(0.1, 2.0, width)
    stack = rng.uniform(0.0, 3.0, (2, 101, width))
    sums = _weighted_sum(stack.copy(), w)
    assert sums.shape == (2, 101)
    assert _weighted_sum(np.asfortranarray(stack), w).tobytes() == sums.tobytes()
    assert _weighted_sum(stack[:, :37].copy(), w).tobytes() == sums[:, :37].tobytes()
    for i, j in ((0, 0), (0, 3), (1, 100)):
        row = stack[i, j]
        alone = _weighted_sum(row[None].copy(), w)[0]
        assert alone.tobytes() == sums[i, j].tobytes()
        by_hand = row[0] * w[0]
        for x, wk in zip(row[1:], w[1:]):
            by_hand = by_hand + x * wk
        assert alone.tobytes() == np.float64(by_hand).tobytes()


@pytest.mark.parametrize("n_omega", [2, 3, 8, 16])
def test_moment_root_matches_a_plain_power_per_row(n_omega):
    # m (sum_i w_i (|a_i|/m)^v)^(1/v) row by row, up to v = 1e8, the top of
    # envelope_from_field's grid.  Rows with zero entries and all-zero rows
    # are in; an all-zero row gives exactly 0, and log 0 must not warn.
    rng = np.random.default_rng(20261020 + n_omega)
    w = rng.uniform(0.2, 1.0, n_omega)
    w /= w.sum()
    a = rng.uniform(-2.0, 2.0, (3, 7, n_omega))
    a[rng.uniform(size=a.shape) < 0.2] = 0.0
    a[0, 2] = a[2, 5] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = _moment_root(a, w)
        for v in np.append(np.geomspace(1.0, 1e3, 13), 1e8):
            got = root(v)
            assert got.shape == a.shape[:-1]
            for idx in np.ndindex(*a.shape[:-1]):
                row = np.abs(a[idx])
                m = row.max()
                if m == 0.0:
                    assert got[idx] == 0.0
                else:
                    ref = m * float(np.sum(w * (row / m) ** v)) ** (1.0 / v)
                    assert got[idx] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_moment_root_allocates_only_its_output():
    # Its work arrays are allocated once per root; a call then allocates the
    # fresh array it returns and nothing of the pair array's size besides.
    rng = np.random.default_rng(20261021)
    root = _moment_root(rng.uniform(-1.0, 1.0, (16, 2016, 2)), np.array([0.4, 0.6]))
    root(2.5)
    tracemalloc.start()
    try:
        out = root(7.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 258_048
    assert peak <= out.nbytes + 4096
