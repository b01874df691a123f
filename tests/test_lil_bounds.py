"""Block-sum tail bounds: assembly, truncation, optimization, shape fitting."""

import dataclasses
import math

import numpy as np
import pytest

from lilbound import (
    FieldSpec,
    GridMeasureSpace,
    MomentEnvelope,
    NormingSequence,
    envelope_for_field_spec,
    envelope_from_json,
    envelope_to_json,
    evaluate_bound_curve,
    fit_bound_shape,
    geometric_partition,
    max_admissible_w,
    optimize_bound,
    upper_bound,
)
from lilbound import lil_bounds
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


@pytest.mark.parametrize("u,terms", [(80.0, 23), (64.0, 35)])
def test_truncation_inside_a_finite_prefix_matches_geometric(u, terms):
    # Both stops lie within the first 40 blocks of d = 2: one inside the
    # refined leading terms, one inside the batched scans.
    w = max_admissible_w(2)
    result = upper_bound(_linear_envelope(), geometric_partition(2), _norming(1.0), w, u)
    assert result.terms == terms
    assert 0.0 < result.value < 1.0
    assert (result.d, result.w) == (2, w)


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


@pytest.mark.parametrize("d", [2, 3, 16])
def test_norming_table_holds_the_scalar_values(monkeypatch, d):
    # the walk reads v(A(k)) from a shared table grown in steps; every entry
    # must be the scalar value bit for bit, on both sides of the log-domain switch
    monkeypatch.setattr(lil_bounds, "_NORMING_TABLES", {})
    part, v = geometric_partition(d), _norming(0.5)
    lil_bounds._block_normings(part, v, 40)
    table = lil_bounds._block_normings(part, v, 800)
    scalar = [lil_bounds._block_norming_value(part, v, k) for k in range(1, 801)]
    assert table.size == 800
    assert [x.hex() for x in table.tolist()] == [x.hex() for x in scalar]


def test_norming_tables_stay_bounded(monkeypatch):
    monkeypatch.setattr(lil_bounds, "_NORMING_TABLES", {})
    env = _linear_envelope()
    w = max_admissible_w(2)
    for i in range(lil_bounds._MAX_TABLES + 8):
        upper_bound(env, geometric_partition(2), _norming(1.0 + i / 64), w, 80.0)
    assert 0 < len(lil_bounds._NORMING_TABLES) <= lil_bounds._MAX_TABLES


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


def _exhaustive_optimum(env, norming, u):
    # every candidate walked to its end, then the first minimum
    evals = [
        upper_bound(env, geometric_partition(d), norming, max_admissible_w(d), u) for d in range(2, 17)
    ]
    return min(evals, key=lambda ev: ev.value)


_SCALAR = (GridMeasureSpace(np.array([1.0])),)
_TWO = (GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6])))


def _walk_kind(ev) -> str:
    if ev.diverged:
        return "diverged"
    if ev.vacuous:
        return "vacuous"
    return "short" if ev.terms <= lil_bounds._REFINED_TERMS else "batched"


_FIELD_ENVELOPES = {
    "rademacher-lp": lambda: envelope_for_field_spec(FieldSpec(family="rademacher", spaces=_SCALAR, p=2.0)),
    "uniform-mixed": lambda: envelope_for_field_spec(
        FieldSpec(family="uniform", spaces=_TWO, norm_kind="mixed", p=(2.0, 3.0))
    ),
    "uniform-lp-grid": lambda: envelope_from_json(
        envelope_to_json(envelope_for_field_spec(FieldSpec(family="uniform", spaces=_SCALAR, p=2.0)))
    ),
}


@pytest.mark.parametrize(
    "make_env",
    [
        *_FIELD_ENVELOPES.values(),
        lambda: MomentEnvelope.from_callable(
            lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257)
        ),
    ],
    ids=[*_FIELD_ENVELOPES, "linear-callable"],
)
def test_optimize_bound_is_bitwise_the_exhaustive_minimum(make_env):
    # Cutting losing candidates early must not change a single bit of the
    # winner: value, d, w, terms and both flags, at every kind of walk.
    env = make_env()
    kinds = set()
    for r in (0.5, 1.0):
        norming = _norming(r)
        for u in (math.e, 12.0, 20.0, 60.0):
            best = optimize_bound(env, norming, u)
            ref = _exhaustive_optimum(env, norming, u)
            assert best == ref and best.value.hex() == ref.value.hex()
            kinds.add(_walk_kind(best))
    assert kinds == {"vacuous", "diverged", "short", "batched"}


@pytest.mark.parametrize("r", [2.0, 4.0])
def test_optimize_bound_keeps_a_later_winner_bitwise(r):
    # At u = e, d = 3 beats d = 2, so the winner walks under a cut-off below 1.
    env = MomentEnvelope.from_callable(lambda L: 0.5 * L, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257))
    best = optimize_bound(env, _norming(r), math.e)
    assert best == _exhaustive_optimum(env, _norming(r), math.e)
    assert best.d == 3 and 0.0 < best.value < 1.0


def test_optimize_bound_cuts_losing_walks(monkeypatch):
    # At rademacher-lp, r = 1, u = 12 the winner is d = 2; every other
    # candidate must stop once it cannot beat it, not walk to its end.
    env = envelope_for_field_spec(FieldSpec(family="rademacher", spaces=_SCALAR, p=2.0))
    calls = [0]
    tail = lil_bounds.tail_from_envelope

    def counted_tail(env, z):
        calls[0] += 1
        return tail(env, z)

    monkeypatch.setattr(lil_bounds, "tail_from_envelope", counted_tail)
    best = optimize_bound(env, _norming(1.0), 12.0)
    pruned, calls[0] = calls[0], 0
    ref = _exhaustive_optimum(env, _norming(1.0), 12.0)
    assert best == ref and not best.vacuous
    assert 3 * pruned <= calls[0]


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


@pytest.mark.parametrize("name", sorted(_FIELD_ENVELOPES))
def test_below_r0_no_term_is_evaluated(name, monkeypatch):
    # r = 1/2 lies below a field envelope's r0 = 1: every entry point returns
    # 1, flagged vacuous and diverged, without one tail conversion
    env = _FIELD_ENVELOPES[name]()
    assert env.r0 == 1.0
    calls = []
    monkeypatch.setattr(lil_bounds, "tail_from_envelope", lambda *a: calls.append("tail"))
    monkeypatch.setattr(lil_bounds, "grid_scan_tails", lambda *a: calls.append("scan"))
    norming = _norming(0.5)
    u_grid = [math.e, 12.0, 20.0, 60.0]
    evs = [optimize_bound(env, norming, u) for u in u_grid]
    evs += [upper_bound(env, geometric_partition(d), norming, max_admissible_w(d), 20.0) for d in (2, 16)]
    for ev in evs:
        assert (ev.value, ev.vacuous, ev.diverged, ev.terms) == (1.0, True, True, 0)
    assert [ev.d for ev in evs] == [2, 2, 2, 2, 2, 16]
    for optimize in (True, False):
        curve = evaluate_bound_curve(env, norming, u_grid, optimize=optimize, d=3)
        assert curve.values.tolist() == [1.0] * 4
        assert curve.truncation_k.tolist() == [0] * 4
        assert curve.vacuous_flags.all() and curve.diverged_flags.all()
    assert calls == []


@pytest.mark.parametrize("name", sorted(_FIELD_ENVELOPES))
def test_at_or_above_r0_the_walk_is_unchanged(name):
    # r0 only skips walks below it: at r = 1 = r0 and above, every value, d,
    # w, terms and flag is bitwise the one of the same g without the claim
    env = _FIELD_ENVELOPES[name]()
    plain = dataclasses.replace(env, r0=0.0)
    assert plain.g_values.tobytes() == env.g_values.tobytes()
    for r in (1.0, 1.5):
        norming = _norming(r)
        for u in (math.e, 12.0, 20.0, 60.0):
            for ev, ref in (
                (optimize_bound(env, norming, u), optimize_bound(plain, norming, u)),
                (
                    upper_bound(env, geometric_partition(4), norming, 2.0 - 1e-9, u),
                    upper_bound(plain, geometric_partition(4), norming, 2.0 - 1e-9, u),
                ),
            ):
                assert ev == ref and ev.value.hex() == ref.value.hex()
    curve, ref = (evaluate_bound_curve(e, _norming(1.0), [12.0, 60.0], optimize=True) for e in (env, plain))
    assert not curve.diverged_flags.any() and (curve.truncation_k > 0).all()
    assert curve.values.tobytes() == ref.values.tobytes()


def test_a_zero_field_still_bounds_by_zero():
    spec = FieldSpec(family="uniform", spaces=_SCALAR, a=0.0, p=2.0)
    for env in (envelope_for_field_spec(spec), envelope_from_json(envelope_to_json(envelope_for_field_spec(spec)))):
        assert env.r0 == 0.0
        for r in (0.5, 1.0):
            curve = evaluate_bound_curve(env, _norming(r), [math.e, 20.0], optimize=True)
            assert curve.values.tolist() == [0.0, 0.0]
            assert not curve.vacuous_flags.any() and not curve.diverged_flags.any()


_CRITERION_06_SPECS = [
    FieldSpec(family=family, spaces=_SCALAR, p=2.0) for family in ("rademacher", "uniform", "weibull")
] + [
    FieldSpec(family=family, spaces=_TWO, norm_kind="mixed", p=(2.0, 3.0))
    for family in ("rademacher", "uniform", "weibull")
]


def _log_space_scan(env):
    """(r, d, u) -> max over ln k in [7, 3e4] of log(k a_k), a_k = h(u v(A(k)) / w).

    Every quantity stays a logarithm: log h(z) = min(0, min over a dense L
    scan of L (log g(L) - log z)), and deep blocks have log v(A(k)) =
    r log(ln k + log log d) (A(k) ~ d^k, whose shifts vanish at ln k >= 7).
    Since a_k does not increase, k a_k > 1 puts the partial sum above 1.
    """
    L = np.geomspace(env.L_grid[0], env.L_grid[-1], 4097)
    log_g = np.array([env.log_g(float(x)) for x in L])
    ln_k = np.geomspace(7.0, 3e4, 400)

    def max_log_k_a_k(r, d, u):
        log_z = math.log(u) - math.log(max_admissible_w(d)) + r * np.log(ln_k + math.log(math.log(d)))
        log_h = np.minimum(0.0, (L * (log_g - log_z[:, None])).min(axis=1))
        return (ln_k + log_h).max()

    return max_log_k_a_k


@pytest.mark.parametrize("spec", _CRITERION_06_SPECS, ids=lambda s: f"{s.family}-{s.norm_kind}")
def test_r_half_series_diverge_by_a_log_space_witness(spec):
    # Independently of the r0 rule: the term a_k at r = 1/2 has k a_k > 1 at
    # some ln k <= 3e4 (see _log_space_scan).
    max_log_k_a_k = _log_space_scan(envelope_for_field_spec(spec))
    for d in (2, 16):
        for u in (math.e, 12.0, 20.0, 60.0):
            assert max_log_k_a_k(0.5, d, u) > 0.0, (d, u)
    if spec.family != "weibull":
        # the control: at r = 1, where these series converge, the scan finds no such k
        assert max_log_k_a_k(1.0, 2, 60.0) < 0.0


def test_weibull_r1_series_diverge_by_a_log_space_witness():
    # A weibull root grows like L^(1/beta), so at beta = 1 the series diverge
    # for every r < r0 = 2, r = 1 included, although the walk alone stops
    # early: at u = 200 it summed 481 terms to 5.88e-08.  The log-space scan
    # finds k a_k > 1, and the bound is 1, flagged diverged, without a walk.
    env = envelope_for_field_spec(FieldSpec(family="weibull", spaces=_SCALAR, p=2.0, beta=1.0))
    assert env.r0 == 2.0
    max_log_k_a_k = _log_space_scan(env)
    for u in (12.0, 200.0, 1000.0):
        assert max_log_k_a_k(1.0, 2, u) > 0.0, u
    plain = dataclasses.replace(env, r0=0.0)
    walked = upper_bound(plain, geometric_partition(2), _norming(1.0), max_admissible_w(2), 200.0)
    assert walked.value == pytest.approx(5.88e-08, rel=1e-3) and not walked.diverged
    ev = optimize_bound(env, _norming(1.0), 200.0)
    assert (ev.value, ev.diverged, ev.terms) == (1.0, True, 0)
    # the control: at r = 2 = r0 the scan finds no such k
    assert max_log_k_a_k(2.0, 2, 200.0) < 0.0
