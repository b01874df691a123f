"""Moment envelopes and the moment-to-tail conversion."""

import math

import numpy as np
import pytest

from lilbound import (
    mixed_norm,
    FieldSpec,
    GridFunction,
    GridMeasureSpace,
    MomentEnvelope,
    NormingSequence,
    classify_tail,
    envelope_for_field_spec,
    envelope_from_field,
    envelope_from_json,
    envelope_from_moments,
    envelope_to_json,
    evaluate_bound_curve,
    mixed_envelope_from_field,
    rosenthal_upper,
    tail_argmin,
    tail_from_envelope,
)


def _linear_envelope() -> MomentEnvelope:
    return MomentEnvelope.from_callable(
        lambda L: L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e6, 257)
    )


def test_linear_envelope_tail_matches_stationary_value():
    # inf_L (L/z)^L is attained at L = z/e with value exp(-z/e).
    env = _linear_envelope()
    z = 10.0 * math.e
    value, L_star = tail_argmin(env, z)
    assert value == pytest.approx(math.exp(-10.0), rel=1e-8)
    assert L_star == pytest.approx(10.0, rel=1e-4)


def test_tail_clamps_to_one_when_uninformative():
    env = _linear_envelope()
    assert tail_from_envelope(env, 1.0) == 1.0
    assert tail_from_envelope(env, 0.25) == 1.0


def test_tail_decreases_in_threshold():
    env = _linear_envelope()
    zs = np.geomspace(math.e, 1e3, 40)
    values = [tail_from_envelope(env, z) for z in zs]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_tail_requires_positive_threshold():
    with pytest.raises(ValueError):
        tail_from_envelope(_linear_envelope(), 0.0)


def test_grid_envelope_tail_matches_exhaustive_scan():
    rng = np.random.default_rng(20260820)
    L_grid = np.geomspace(2.0, 1e6, 257)
    scan = np.geomspace(2.0, 1e6, 100_000)
    log_scan = np.log(scan)
    for _ in range(5):
        a = rng.uniform(-2.0, 1.0)
        b = rng.uniform(0.3, 1.2)
        env = MomentEnvelope(L_grid, np.exp(a + b * np.log(L_grid)), 2.0)
        z = float(rng.uniform(10.0, 1e4))
        brute = float(np.exp(np.minimum(scan * (a + b * log_scan - math.log(z)), 0.0).min()))
        assert tail_from_envelope(env, z) == pytest.approx(brute, rel=1e-6)


def test_rademacher_field_envelope_is_twice_rosenthal():
    x = GridMeasureSpace(np.array([1.0]))
    omega = GridMeasureSpace(np.array([0.5, 0.5]))
    xi = GridFunction((x, omega), np.array([[1.0, -1.0]]))
    grid = np.geomspace(2.0, 1e6, 129)
    env = envelope_from_field(xi, 2.0, grid)
    # exact at the grid knots; between knots g is a log-linear interpolant
    for L in grid[::16]:
        assert env.g(float(L)) == pytest.approx(2.0 * rosenthal_upper(L), rel=1e-12)


def test_field_envelope_survives_large_amplitudes():
    # |xi| = 3 would overflow a naive moment sum at L ~ 1e8; log-space must not.
    x = GridMeasureSpace(np.array([1.0]))
    omega = GridMeasureSpace(np.array([0.5, 0.5]))
    xi = GridFunction((x, omega), np.array([[3.0, -3.0]]))
    env = envelope_from_field(xi, 2.0, np.geomspace(2.0, 1e8, 257))
    for L in (2.0, 1e8):
        assert env.g(L) == pytest.approx(2.0 * rosenthal_upper(L) * 3.0, rel=1e-10)
    assert np.all(np.isfinite(env.g_values))


def test_mixed_envelope_matches_plain_on_point_space():
    # With |X| = 1 both reduce to the same scalar moment root, whatever p.
    rng = np.random.default_rng(20260821)
    x = GridMeasureSpace(np.array([1.0]))
    omega = GridMeasureSpace.uniform_probability(3)
    vals = rng.normal(size=(1, 3))
    vals -= vals.mean(axis=1, keepdims=True)
    xi = GridFunction((x, omega), vals)
    grid = np.geomspace(2.0, 1e6, 129)
    plain = envelope_from_field(xi, 2.0, grid)
    mixed = mixed_envelope_from_field(xi, (2.0,), grid)
    assert np.allclose(mixed.g_values, plain.g_values, rtol=1e-12)


def test_mixed_envelope_dominates_pointwise_root_norm():
    # Sanity on a genuine product: g / (2 K_R) equals the mixed norm of the
    # pointwise moment root, computed here independently.
    rng = np.random.default_rng(20260822)
    x = GridMeasureSpace(rng.uniform(0.2, 1.0, 4))
    omega = GridMeasureSpace.uniform_probability(3)
    vals = rng.normal(size=(4, 3))
    vals -= vals.mean(axis=1, keepdims=True)
    xi = GridFunction((x, omega), vals)
    grid = np.geomspace(2.0, 1e4, 65)
    env = mixed_envelope_from_field(xi, (2.0,), grid)
    L = float(grid[20])
    root = (np.abs(vals) ** L @ omega.weights) ** (1.0 / L)
    expected = mixed_norm(GridFunction((x,), root), (2.0,))
    assert env.g(L) == pytest.approx(2.0 * rosenthal_upper(L) * expected, rel=1e-10)


def test_envelope_from_moments_wraps_moment_function():
    env = envelope_from_moments(lambda L: L**0.5, 2.0)
    for L in (2.0, 16.0, 400.0):
        assert env.g(L) == pytest.approx(2.0 * rosenthal_upper(L) * L**0.5, rel=1e-12)


def test_grid_envelope_rejects_evaluation_outside_span():
    env = MomentEnvelope([2.0, 4.0], [1.0, 2.0], 2.0)
    with pytest.raises(ValueError):
        env.g(8.0)


def test_envelope_validation_errors():
    with pytest.raises(ValueError):
        MomentEnvelope([4.0, 2.0], [1.0, 1.0], 2.0)  # decreasing grid
    with pytest.raises(ValueError):
        MomentEnvelope([2.0, 4.0], [1.0, -1.0], 2.0)  # negative g
    with pytest.raises(ValueError):
        MomentEnvelope([2.0, 4.0], [1.0, math.inf], 2.0)
    with pytest.raises(ValueError):
        MomentEnvelope([1.0, 4.0], [1.0, 1.0], 2.0)  # grid below domain
    with pytest.raises(ValueError):
        MomentEnvelope([2.0, 4.0, math.inf], [1.0, 1.0, 1.0], 2.0)  # infinite knot
    with pytest.raises(ValueError):
        MomentEnvelope([2.0, math.nan, 8.0], [1.0, 1.0, 1.0], 2.0)  # NaN knot


def test_classify_tail_power_family():
    cls = classify_tail(1.0)
    assert cls.r0 == pytest.approx(2.0)
    assert cls.u_power == pytest.approx(0.5)
    assert cls.log_power == pytest.approx(0.0)


def test_classify_tail_bounded_family():
    cls = classify_tail(math.inf)
    assert cls.r0 == 1.0
    assert cls.u_power == 1.0
    assert cls.log_power == 0.0


def test_classify_tail_log_correction():
    cls = classify_tail(2.0, beta2=1.0)
    assert cls.r0 == pytest.approx(1.5)
    assert cls.u_power == pytest.approx(2.0 / 3.0)
    assert cls.log_power == pytest.approx(-(1.0 + 2.0) / 3.0)


def test_classify_tail_requires_positive_beta1():
    with pytest.raises(ValueError):
        classify_tail(0.0)


def test_envelope_json_round_trip_preserves_tails():
    env = _linear_envelope()
    doc = envelope_to_json(env)
    back = envelope_from_json(doc)
    assert back._g_fn is None  # deserialized envelopes are grid-backed
    for z in (math.e, 30.0, 500.0):
        assert tail_from_envelope(back, z) == pytest.approx(
            tail_from_envelope(env, z), rel=1e-9
        )


def test_mixed_envelope_json_round_trips_to_equal_bounds():
    two = (GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6])))
    spec = FieldSpec(family="rademacher", spaces=two, norm_kind="mixed", p=(2.0, 3.0))
    doc = envelope_to_json(envelope_for_field_spec(spec))
    back = envelope_from_json(doc)
    assert envelope_to_json(back) == {**doc, "kind": "grid"}
    u_grid = np.geomspace(math.e, 40.0, 4)
    first, second = (
        evaluate_bound_curve(env, NormingSequence.iterated_log(1.0), u_grid, d=3).values
        for env in (back, envelope_from_json(envelope_to_json(back)))
    )
    assert first.tobytes() == second.tobytes()


def test_envelope_json_missing_field_raises():
    with pytest.raises(ValueError):
        envelope_from_json({"kind": "grid"})


def test_vanishing_envelope_gives_zero_tail():
    env = MomentEnvelope([2.0, 4.0, 8.0], [0.0, 0.0, 0.0], 2.0)
    assert tail_from_envelope(env, 5.0) == 0.0
