"""Moment envelopes and the moment-to-tail conversion."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilbound import (
    C_ROSENTHAL,
    mixed_norm,
    FieldSpec,
    GridFunction,
    GridMeasureSpace,
    MomentEnvelope,
    NormingSequence,
    envelope_for_field_spec,
    envelope_from_field,
    envelope_from_json,
    envelope_to_json,
    evaluate_bound_curve,
    mixed_envelope_from_field,
    rosenthal_upper,
    tail_argmin,
    tail_from_envelope,
)
from lilbound.envelopes import grid_scan_tails


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


@pytest.mark.parametrize("build", [envelope_from_field, mixed_envelope_from_field], ids=["lp", "mixed"])
def test_field_envelopes_reject_an_uncentered_field(build):
    # the Rosenthal step inside g needs centered summands, as IndexedField does
    x = GridMeasureSpace(np.array([1.0]))
    omega = GridMeasureSpace(np.array([0.5, 0.5]))
    xi = GridFunction((x, omega), np.array([[1.0, 1.0]]))
    p = 2.0 if build is envelope_from_field else (2.0,)
    with pytest.raises(ValueError, match="not centered"):
        build(xi, p, np.geomspace(2.0, 1e4, 9))


def test_two_point_gaussian_envelope_matches_log_space_closed_form():
    # amplitudes on both sides of 1: sigma 0.5 underflows and sigma 3 overflows
    # a direct moment sum at large L, the max-scaled norm must do neither
    sigma, weights = (0.5, 3.0), (0.3, 0.7)
    spec = FieldSpec(
        family="gaussian", spaces=(GridMeasureSpace(np.array(weights)),), sigma=np.array(sigma), p=2.0
    )
    env = envelope_for_field_spec(spec)
    for L in (2.0, 1e3, 1e8):
        log_terms = [
            math.log(w) + L * math.log(s) + 0.5 * L * math.log(2.0)
            + math.lgamma((L + 1.0) / 2.0) - 0.5 * math.log(math.pi)
            for s, w in zip(sigma, weights)
        ]
        top = max(log_terms)
        log_mass = top + math.log(sum(math.exp(t - top) for t in log_terms))
        expected = 2.0 * rosenthal_upper(L) * math.exp(log_mass / L)
        assert math.isfinite(env.g(L))
        assert env.g(L) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("family", ["rademacher", "weibull"])
@pytest.mark.parametrize("n_points", [1, 3], ids=["one-point", "three-point"])
def test_martingale_envelope_is_the_iid_envelope_times_one_plus_kappa(family, n_points):
    # the martingale steps are the iid ones times at most 1 + kappa
    space = (GridMeasureSpace(np.full(n_points, 1.0 / n_points)),)
    iid = envelope_for_field_spec(FieldSpec(family=family, spaces=space, beta=1.5))
    mart = envelope_for_field_spec(FieldSpec(family=family, spaces=space, beta=1.5, dependence="martingale", kappa=0.3))
    for L in (2.0, 7.5, 1e3, 1e7):
        assert mart.g(L) == pytest.approx(1.3 * iid.g(L), rel=1e-14)


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
    for r0 in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="r0 must be finite"):
            MomentEnvelope([2.0, 4.0], [1.0, 2.0], 2.0, r0=r0)


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


@st.composite
def _grid_envelopes(draw):
    """A grid envelope with a noisy, usually non-convex, log-log profile and a log z.

    The mode makes the bottom or the top knot the best one, or leaves the
    best knot wherever the profile puts it.
    """
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    mode = draw(st.sampled_from(["any", "bottom", "top"]))
    rng = np.random.default_rng(seed)
    lam = math.log(2.0) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.4, n - 1))])
    slope = rng.uniform(0.2, 1.5)
    log_g = rng.normal(0.0, 1.0) + slope * lam + np.cumsum(rng.normal(0.0, 0.05, n))
    # the stationary point of the straight profile sits at lam = (log z - intercept)/slope - 1
    log_z = float(log_g[0] + slope * (rng.uniform(lam[0], lam[-1]) + 1.0 - lam[0]))
    if mode != "any":
        end = 0 if mode == "bottom" else n - 1
        rest = np.delete(np.exp(lam) * (log_g - log_z), end)
        log_g[end] = log_z + (rest.min() - rng.uniform(0.01, 1.0)) / math.exp(lam[end])
    return MomentEnvelope(np.exp(lam), np.exp(log_g), 2.0), log_z


@settings(max_examples=300, deadline=None)
@given(_grid_envelopes())
def test_grid_refinement_is_the_bracket_minimum(case):
    # the closed-form refinement must find the interpolated objective's
    # minimum on the bracket around the best knot, and its L must give it back
    env, log_z = case
    lam, lg = env._log_L_grid, env._log_g_grid
    i = int(np.argmin(env.L_grid * (lg - log_z)))
    samples = np.linspace(lam[max(i - 1, 0)], lam[min(i + 1, lam.size - 1)], 10_000)
    sampled = np.exp(samples) * (np.interp(samples, lam, lg) - log_z)
    value, L = tail_argmin(env, math.exp(log_z))
    assert value <= (1.0 + 1e-12) * min(1.0, math.exp(float(sampled.min())))
    log_value = L * (env.log_g(L) - log_z)
    if sys.float_info.min <= value < 1.0:  # a subnormal value has lost digits
        assert log_value == pytest.approx(math.log(value), rel=1e-12, abs=1e-12)


def _full_scan(env: MomentEnvelope, log_z: np.ndarray) -> np.ndarray:
    # the scan over every knot of every row that grid_scan_tails windows
    objective = (env.L_grid * env._log_g_grid)[None, :] - np.outer(log_z, env.L_grid)
    return np.exp(np.minimum(objective.min(axis=1), 0.0))


def _scan_cases():
    # knots 0 and 1 tie in exact arithmetic at the first log z; in floats the
    # second row's argmin drops below the first row's, inside the one-knot margin
    yield MomentEnvelope(
        [2.2868859982691068, 3.8351653316802636, 5.900380375707627],
        [1.3022134209487692, 1.629245046346541, 2.6861709630943587],
        2.0,
    ), np.array([0.819051716240174, 0.8190517162401741, 0.8190517162401743, 0.819051716240178])
    rng = np.random.default_rng(20261019)
    for case in range(400):
        n = int(rng.integers(1, 60))
        L = np.exp(math.log(2.0) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))]))
        g = np.exp(np.cumsum(rng.normal(0.3, 0.8, n)))  # non-convex in log-log
        if case % 4 == 1:
            g[rng.integers(0, n, size=int(rng.integers(1, 3)))] = 0.0  # -inf knots
        env = MomentEnvelope(L, g, 2.0)
        rows = int(rng.integers(0, 300)) if case % 10 else int(rng.integers(0, 2))  # empty and one-row batches
        log_z = np.sort(rng.uniform(-5.0, 15.0, rows))
        if rows > 2 and case % 3 == 0:
            log_z = np.repeat(log_z[: rows // 2], 2)  # ties
        if case % 7 == 2:
            log_z = rng.permutation(log_z)  # the window needs only the smallest and largest log z
        yield env, log_z


def test_windowed_grid_scan_matches_the_full_scan_byte_for_byte():
    seen = {"empty": 0, "one row": 0, "ties": 0, "unsorted": 0, "zero knots": 0}
    for env, log_z in _scan_cases():
        got, want = grid_scan_tails(env, log_z), _full_scan(env, log_z)
        assert got.shape == want.shape == log_z.shape
        assert got.tobytes() == want.tobytes()
        seen["empty"] += log_z.size == 0
        seen["one row"] += log_z.size == 1
        seen["ties"] += bool(np.any(np.diff(np.sort(log_z)) == 0.0))
        seen["unsorted"] += bool(np.any(np.diff(log_z) < 0.0))
        seen["zero knots"] += bool(np.any(env.g_values == 0.0))
    assert min(seen.values()) > 0, seen


def _dense_tail(env: MomentEnvelope, z: float) -> float:
    # three nested 2001-point lam scans of the bracket around the best knot
    log_z = math.log(z)
    lam = env._log_L_grid
    i = int(np.argmin(env.L_grid * (env._log_g_grid - log_z)))
    lo, hi = lam[max(i - 1, 0)], lam[min(i + 1, lam.size - 1)]
    best = math.inf
    for _ in range(3):
        samples = np.linspace(lo, hi, 2001)
        values = [math.exp(x) * (env.log_g(math.exp(x)) - log_z) for x in samples]
        j = int(np.argmin(values))
        best = min(best, values[j])
        lo, hi = samples[max(j - 2, 0)], samples[min(j + 2, samples.size - 1)]
    return min(1.0, math.exp(best))


@pytest.mark.parametrize(
    "spec",
    [
        FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([1.0])),), p=2.0),
        FieldSpec(
            family="uniform",
            spaces=(GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6]))),
            norm_kind="mixed",
            p=(2.0, 3.0),
        ),
    ],
    ids=["rademacher-lp", "uniform-mixed"],
)
def test_callable_refinement_is_cheap_and_matches_a_dense_scan(spec, monkeypatch):
    from lilbound import lil_bounds

    env = envelope_for_field_spec(spec)
    for z in (4.0, 9.0, 25.0, 70.0):
        assert tail_from_envelope(env, z) == pytest.approx(_dense_tail(env, z), rel=1e-12)

    calls = {"tail": 0, "log_g": 0}
    tail, log_g = lil_bounds.tail_from_envelope, MomentEnvelope.log_g

    def counted_tail(env, z):
        calls["tail"] += 1
        return tail(env, z)

    def counted_log_g(self, L):
        calls["log_g"] += 1
        return log_g(self, L)

    monkeypatch.setattr(lil_bounds, "tail_from_envelope", counted_tail)
    monkeypatch.setattr(MomentEnvelope, "log_g", counted_log_g)
    evaluate_bound_curve(env, NormingSequence.iterated_log(1.0), np.geomspace(math.e, 60.0, 8), optimize=True)
    assert calls["tail"] > 100
    assert calls["log_g"] / calls["tail"] <= 15.0


_SCALAR = (GridMeasureSpace(np.array([1.0])),)
_TWO = (GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6])))
_THREE = (GridMeasureSpace(np.array([0.3, 0.2, 0.5])),)


def _point_floor(weights, sd) -> float:
    """max over x of prod_i min(1, mu_i(x_i))^(1/2) * sd(x), a floor under every norm of the roots.

    For q >= 2, an lq norm of a nonnegative f is >= mu(x)^(1/q) f(x) >=
    min(1, mu(x))^(1/2) f(x) at each x, and iterating over the factors gives
    the product; each moment root of order L >= 2 is >= the standard
    deviation sd(x) (Lyapunov, Omega a probability space).  weights holds
    one array per X axis, in the order of sd's axes.
    """
    scale = np.ones(())
    for w in weights:
        scale = np.multiply.outer(np.sqrt(np.minimum(1.0, w)), scale)
    return float((scale.T * sd).max())


def _spec_floor(spec) -> tuple[float, float]:
    """(c, gamma) with every pointwise moment root of order L >= 2 at least c(x) L^(gamma - 1).

    rademacher and uniform: the standard deviation (Lyapunov), gamma = 1;
    gaussian: E|N(0, 1)|^L >= sqrt(2) (L - 1)^(L/2) e^(-(L-1)/2) (Stirling's
    lower bound on Gamma((L + 1)/2)) gives a root >= sigma sqrt(L / e);
    weibull: Gamma(L/beta + 1) >= (L / (e beta))^(L/beta).  The martingale
    factor (1 + kappa)^L only raises a moment.
    """
    gamma = 1.0
    if spec.family == "rademacher":
        sd = 1.0
    elif spec.family == "uniform":
        sd = spec.a / math.sqrt(3.0)
    elif spec.family == "gaussian":
        sd, gamma = np.asarray(spec.sigma, dtype=float) / math.sqrt(math.e), 1.5
    else:
        sd, gamma = (math.e * spec.beta) ** (-1.0 / spec.beta), 1.0 + 1.0 / spec.beta
    shape = tuple(sp.size for sp in spec.spaces)
    return _point_floor([sp.weights for sp in spec.spaces], np.broadcast_to(sd, shape)), gamma


def _field_floor(xi) -> float:
    sd = np.sqrt(xi.values**2 @ xi.axes[-1].weights)
    return _point_floor([ax.weights for ax in xi.axes[:-1]], sd)


def _centered(rng, shape, omega):
    vals = rng.normal(size=shape)
    return vals - (vals @ omega.weights)[..., None]


def _field_envelope_cases():
    rng = np.random.default_rng(20261019)
    for spec in (
        FieldSpec(family="rademacher", spaces=_SCALAR, p=2.0),
        FieldSpec(family="uniform", spaces=_SCALAR, a=0.3, p=2.0),
        FieldSpec(family="gaussian", spaces=_THREE, sigma=np.array([0.5, 3.0, 1.0]), p=2.0),
        FieldSpec(family="weibull", spaces=_TWO, norm_kind="mixed", p=(2.0, 3.0), beta=1.5),
        FieldSpec(family="gaussian", spaces=_SCALAR, p=2.0, sigma=0.7, dependence="martingale"),
        FieldSpec(family="rademacher", spaces=_TWO, norm_kind="mixed", p=(2.0, 3.0), dependence="martingale"),
    ):
        yield f"spec-{spec.family}-{spec.norm_kind}", envelope_for_field_spec(spec), *_spec_floor(spec)
    omega = GridMeasureSpace.uniform_probability(3)
    x = GridMeasureSpace(rng.uniform(0.2, 1.0, 4))
    xi = GridFunction((x, omega), _centered(rng, (4, 3), omega))
    yield "from-field", envelope_from_field(xi, 2.0, np.geomspace(2.0, 1e8, 65)), _field_floor(xi), 1.0
    x2 = GridMeasureSpace(rng.uniform(0.5, 2.0, 2))
    xi = GridFunction((x, x2, omega), _centered(rng, (4, 2, 3), omega))
    yield "mixed-from-field", mixed_envelope_from_field(xi, (2.0, 3.0), np.geomspace(3.0, 1e8, 65)), _field_floor(xi), 1.0


def test_field_envelopes_grow_at_least_like_L_over_log_L_at_every_knot():
    # the fact behind r0 = gamma (lil_bounds docstring): g(L) >= c1 L^gamma / log L
    # with c1 = 2 C_R c / e > 0, c L^(gamma - 1) a floor under the norm of the moment roots
    gammas = set()
    for name, env, floor, gamma in _field_envelope_cases():
        L = env.L_grid
        assert env.r0 == gamma, name
        assert floor > 0.0, name
        lower = (2.0 * C_ROSENTHAL / math.e) * floor * L**gamma / np.log(L)
        assert np.all(env.g_values >= lower * (1.0 - 1e-12)), name
        gammas.add(gamma)
    assert gammas == {1.0, 1.5, 1.0 + 1.0 / 1.5}


def test_a_vanishing_field_claims_no_r0():
    scalar_zero = FieldSpec(family="uniform", spaces=_SCALAR, a=0.0, p=2.0)
    sigma_zero = FieldSpec(family="gaussian", spaces=_THREE, sigma=np.zeros(3), p=2.0)
    omega = GridMeasureSpace(np.array([0.5, 0.5]))
    xi = GridFunction((GridMeasureSpace(np.array([1.0, 2.0])), omega), np.zeros((2, 2)))
    for env in (
        envelope_for_field_spec(scalar_zero),
        envelope_for_field_spec(sigma_zero),
        envelope_from_field(xi, 2.0, np.geomspace(2.0, 1e4, 9)),
        mixed_envelope_from_field(xi, (2.0,), np.geomspace(2.0, 1e4, 9)),
    ):
        assert env.r0 == 0.0 and not env.g_values.any()
        assert "r0" not in envelope_to_json(env)
