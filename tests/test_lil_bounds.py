"""Block-sum tail bounds: assembly, truncation, optimization, shape fitting."""

import math

import numpy as np
import pytest

from lilbound import (
    E_E,
    MomentEnvelope,
    NormingSequence,
    evaluate_bound_curve,
    explicit_partition,
    fit_bound_shape,
    geometric_partition,
    lower_bound_Q,
    max_admissible_w,
    optimize_bound,
    upper_bound,
)
from lilbound.lil_bounds import TailBoundCurve


def _constant_envelope(c=1.0) -> MomentEnvelope:
    return MomentEnvelope.from_callable(
        lambda L: c, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
    )


def _linear_envelope() -> MomentEnvelope:
    return MomentEnvelope.from_callable(
        lambda L: L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
    )


def _norming(r=1.0) -> NormingSequence:
    return NormingSequence.iterated_log(r)


def test_linear_envelope_bound_matches_direct_series():
    # For g(L) = L each block tail is exactly exp(-z_k / e) at z_k = u v(A(k)) / w,
    # so the whole series has a closed form to sum against.
    part = geometric_partition(2)
    w = max_admissible_w(2)
    v = _norming(1.0)
    u = 40.0
    result = upper_bound(_linear_envelope(), part, v, w, u)
    direct = sum(
        math.exp(-u * v(2**k - 1) / (w * math.e)) for k in range(1, result.terms + 1)
    )
    assert result.value == pytest.approx(direct, rel=1e-9)
    assert not result.vacuous and not result.diverged


def test_constant_envelope_certifies_bounded_variable():
    # g identically c means every moment is at most c, i.e. the normed sum is
    # bounded by c: the tail beyond c must vanish, and below it is vacuous.
    env = _constant_envelope(math.e)
    part = geometric_partition(2)
    w = max_admissible_w(2)
    assert upper_bound(env, part, _norming(1.0), w, 40.0).value == 0.0
    near = upper_bound(env, part, _norming(1.0), w, math.e)
    assert near.vacuous and near.value == 1.0


def test_bound_requires_u_at_least_e():
    env = _constant_envelope()
    with pytest.raises(ValueError):
        upper_bound(env, geometric_partition(2), _norming(), max_admissible_w(2), 2.0)


def test_bound_rejects_partition_outside_class():
    env = _constant_envelope()
    with pytest.raises(ValueError):
        upper_bound(env, geometric_partition(2), _norming(), math.sqrt(2.0) + 0.01, 10.0)


def test_exact_sqrt_w_is_rejected_by_float_rounding():
    # sqrt(2)^2 = 2.0000000000000004 > 2 in floats, hence the epsilon backoff.
    env = _constant_envelope()
    with pytest.raises(ValueError):
        upper_bound(env, geometric_partition(2), _norming(), math.sqrt(2.0), 10.0)


def test_vacuous_bound_reports_one():
    # A huge envelope makes every term 1, so the sum is clamped at 1 vacuously.
    env = _constant_envelope(1e6)
    result = upper_bound(env, geometric_partition(2), _norming(), max_admissible_w(2), math.e)
    assert result.value == 1.0
    assert result.vacuous


def test_bound_decreases_in_u():
    env = _linear_envelope()
    part = geometric_partition(2)
    w = max_admissible_w(2)
    values = [
        upper_bound(env, part, _norming(1.0), w, u).value
        for u in (math.e, 20.0, 40.0, 80.0)
    ]
    assert values[0] == 1.0  # vacuous at the left edge
    informative = values[1:]
    assert all(b < a for a, b in zip(informative, informative[1:]))
    assert 0.0 < informative[-1] < informative[0] < 1.0


def test_explicit_partition_exhaustion_is_reported():
    # Three known blocks truncate nothing at u = 40, so the walk needs A(4).
    part = explicit_partition([1, 3, 9])
    with pytest.raises(ValueError, match="exhausted"):
        upper_bound(_linear_envelope(), part, _norming(1.0), 1.4, 40.0)


def _forty_block_partition():
    # the first 40 blocks of the d = 2 geometric partition, A(k) = 2^k - 1
    return explicit_partition([2**k - 1 for k in range(1, 41)])


def test_exhaustion_past_the_refined_prefix_names_the_missing_block():
    # At u = 40 the series needs more than 40 blocks, so the walk runs out
    # inside a batched grid scan, past the refined leading terms.
    part = _forty_block_partition()
    with pytest.raises(ValueError, match="exhausted at block 41 "):
        upper_bound(_linear_envelope(), part, _norming(1.0), max_admissible_w(2), 40.0)


@pytest.mark.parametrize("u,terms", [(80.0, 23), (64.0, 35)])
def test_truncation_inside_a_finite_prefix_matches_geometric(u, terms):
    # One stop inside the refined leading terms, one inside the batched scans;
    # the known blocks coincide with d = 2, so the results must too.
    w = max_admissible_w(2)
    result = upper_bound(_linear_envelope(), _forty_block_partition(), _norming(1.0), w, u)
    assert result.terms == terms
    assert 0.0 < result.value < 1.0
    assert result == upper_bound(_linear_envelope(), geometric_partition(2), _norming(1.0), w, u)


def test_deep_blocks_use_stable_norming():
    # At u = 20 the series truncates only after thousands of blocks, far past
    # the depth where A(k) = 2^k - 1 overflows a float; the log-domain
    # norming must keep those terms finite and decreasing.
    result = upper_bound(
        _linear_envelope(), geometric_partition(2), _norming(1.0), max_admissible_w(2), 20.0
    )
    assert result.terms > 1500
    assert 0.0 < result.value < 1.0
    assert not result.diverged


def test_optimize_bound_never_worse_than_fixed_d():
    env = MomentEnvelope.from_callable(
        lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
    )
    v = _norming(1.0)
    for u in (math.e, 6.0, 15.0):
        best = optimize_bound(env, v, u)
        for d in (2, 5, 16):
            fixed = upper_bound(env, geometric_partition(d), v, max_admissible_w(d), u)
            assert best.value <= fixed.value + 1e-15
        assert 2 <= best.d <= 16


def test_optimize_bound_breaks_ties_toward_small_d():
    # A vacuous bound is 1.0 for every d; the reported d must be the smallest.
    env = _constant_envelope(1e6)
    best = optimize_bound(env, _norming(1.0), math.e)
    assert best.vacuous
    assert best.d == 2


def test_curve_evaluation_carries_provenance():
    env = MomentEnvelope.from_callable(
        lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257), label="demo"
    )
    u = np.geomspace(math.e, 30.0, 7)
    curve = evaluate_bound_curve(env, _norming(1.0), u, optimize=True)
    assert curve.values.shape == (7,)
    assert curve.provenance["optimized"] is True
    assert curve.provenance["envelope"] == "demo"
    assert curve.d_values.min() >= 2 and curve.d_values.max() <= 16
    assert np.all(curve.w_values <= np.sqrt(curve.d_values))
    assert np.all(np.diff(curve.values) <= 1e-15)


def test_curve_fixed_partition_matches_single_calls():
    env = _constant_envelope(math.e)
    u = np.array([math.e, 10.0, 25.0])
    curve = evaluate_bound_curve(env, _norming(1.0), u, optimize=False, d=3)
    w = max_admissible_w(3)
    for ui, vi in zip(u, curve.values):
        single = upper_bound(env, geometric_partition(3), _norming(1.0), w, float(ui))
        assert vi == single.value


def test_curve_validation():
    with pytest.raises(ValueError):
        TailBoundCurve(np.array([2.0, 3.0]), np.array([0.5, 0.4]))  # starts below e
    with pytest.raises(ValueError):
        TailBoundCurve(np.array([3.0, 3.0]), np.array([0.5, 0.4]))  # not increasing
    with pytest.raises(ValueError):
        TailBoundCurve(np.array([3.0, 4.0]), np.array([0.5, 1.4]))  # above 1


@pytest.mark.parametrize(
    "u,values",
    [
        ([3.0, 4.0], [0.5, math.nan]),
        ([math.nan, 4.0], [0.5, 0.4]),
        ([3.0, math.nan], [0.5, 0.4]),
        ([3.0, math.inf], [0.5, 0.4]),
    ],
)
def test_curve_rejects_non_finite_entries(u, values):
    with pytest.raises(ValueError):
        TailBoundCurve(np.array(u), np.array(values))


def test_lower_bound_uses_summand_tail():
    tail = lambda u: math.exp(-u)
    assert lower_bound_Q(tail, 5.0) == pytest.approx(math.exp(-5.0))


def test_lower_bound_sqrt_branch_needs_constant():
    tail = lambda u: 0.0
    with pytest.raises(ValueError):
        lower_bound_Q(tail, 20.0, norming_r=0.5)
    value = lower_bound_Q(tail, 20.0, C=1.0, norming_r=0.5)
    assert value == pytest.approx(math.exp(-400.0 * math.log(math.log(20.0))))
    # below e^e the iterated-log branch is unavailable
    assert lower_bound_Q(tail, 5.0, C=1.0, norming_r=0.5) == 0.0
    assert E_E > 5.0


def test_fit_recovers_planted_power_curve():
    rng = np.random.default_rng(20260830)
    u = np.geomspace(math.e, 100.0, 60)
    beta1, C = 0.7, 0.9
    values = np.exp(-C * u**beta1)
    curve = TailBoundCurve(u, values)
    fit = fit_bound_shape(curve, log_power=0.0)
    assert fit is not None
    assert fit.beta1 == pytest.approx(beta1, abs=1e-9)
    assert fit.C == pytest.approx(C, rel=1e-9)
    assert fit.residual < 1e-12


def test_fit_recovers_log_corrected_curve():
    u = np.geomspace(math.e, 100.0, 60)
    values = np.exp(-0.8 * u**0.5 * np.log(u) ** 1.5)
    curve = TailBoundCurve(u, values)
    fit = fit_bound_shape(curve)
    assert fit is not None
    assert fit.beta1 == pytest.approx(0.5, abs=1e-6)
    assert fit.beta2 == pytest.approx(1.5, abs=1e-5)


def test_fit_declines_degenerate_curves():
    u = np.geomspace(math.e, 100.0, 10)
    flat = TailBoundCurve(u, np.ones_like(u))
    assert fit_bound_shape(flat) is None
