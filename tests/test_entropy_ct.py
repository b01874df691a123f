"""Chaining machinery: moment distances, coverings, and the entropy functional."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from lilbound import (
    AnalyticCovering,
    EmpiricalCovering,
    GridMeasureSpace,
    IndexedField,
    NormingSequence,
    covering_from_json,
    covering_to_json,
    distance_r_matrix,
    evaluate_bound_curve,
    field_W,
    nu_envelope,
    nu_p,
    nu_p_detail,
    sigma_bar,
    sigma_hat,
    rosenthal_upper,
)
from lilbound import entropy_ct
from lilbound.entropy_ct import DEFAULT_ALPHAS, DEFAULT_THETA_GRID
from lilbound.grid_spaces import _moment_root


def _random_field(rng, nx=3, nt=4, amplitude=0.3) -> IndexedField:
    # Two-outcome Omega with q vs 1-q; the second value is chosen so every
    # slice is exactly centered.
    q = 0.4
    xw = rng.uniform(0.2, 1.0, nx)
    xw = xw / xw.sum()
    v1 = rng.uniform(-1.0, 1.0, (nx, nt)) * amplitude
    vals = np.stack([v1, -v1 * q / (1.0 - q)], axis=-1)
    return IndexedField(GridMeasureSpace(xw), np.array([q, 1.0 - q]), vals)


def _theta_field(seed, nx, nt) -> IndexedField:
    # The two-outcome field of the benchmark's bound_sweep theta cell, its
    # scale sup_t ||v1||_{L2(mu)} fixed at 0.22.
    rng = np.random.default_rng(seed)
    q = 0.4
    xw = rng.uniform(0.2, 1.0, nx)
    v1 = rng.uniform(-1.0, 1.0, (nx, nt))
    v1 *= 0.22 / np.sqrt((xw / xw.sum()) @ v1**2).max()
    vals = np.stack([v1, -v1 * q / (1.0 - q)], axis=-1)
    return IndexedField(GridMeasureSpace(xw / xw.sum()), np.array([q, 1.0 - q]), vals)


def _field(rng, nx, nt, n_omega) -> IndexedField:
    # Random weights on X and Omega; each slice is centered by subtracting its mean.
    xw = rng.uniform(0.2, 1.0, nx)
    ow = rng.uniform(0.2, 1.0, n_omega)
    ow = ow / ow.sum()
    vals = rng.uniform(-0.3, 0.3, (nx, nt, n_omega))
    vals -= (vals @ ow)[..., None]
    return IndexedField(GridMeasureSpace(xw / xw.sum()), ow, vals)


def _pair_weight(p, Z, a, b):
    return rosenthal_upper(a * Z) * rosenthal_upper((p - 1.0) * b * Z) ** (p - 1.0)


def moment_distance_rho(field, t, s, v):
    # Per-point moment distance rho_{v,x}(t, s) = (E|xi(x,t) - xi(x,s)|^v)^(1/v),
    # one pair at a time: the reference for the pair kernel.
    diff = field.values[:, t, :] - field.values[:, s, :]
    return _moment_root(diff, field.omega_weights)(v)


def distance_r(field, t, s, p, Z):
    # r_{p,Z}(t,s) for one pair: 2p min over the conjugate pairs of weight * J.
    best = math.inf
    for a in DEFAULT_ALPHAS:
        b = a / (a - 1.0)
        W = field_W(field, (p - 1.0) * b * Z) ** (p - 1.0)
        J = float((W * moment_distance_rho(field, t, s, a * Z)) @ field.x_space.weights)
        best = min(best, _pair_weight(p, Z, a, b) * J)
    return 2.0 * p * best


def _square_distance_r_matrix(field, p, Z):
    # The full-square form the pair kernel replaced: every ordered pair (t, s),
    # the diagonal zeroed afterwards.  distance_r_matrix must match it bit for bit.
    nt, mu_w = field.n_t, field.x_space.weights
    root = _moment_root(field.values[:, :, None, :] - field.values[:, None, :, :], field.omega_weights)
    best = np.full((nt, nt), math.inf)
    for a in DEFAULT_ALPHAS:
        b = a / (a - 1.0)
        W = field_W(field, (p - 1.0) * b * Z) ** (p - 1.0)
        J = np.einsum("x,xts->ts", mu_w * W, root(a * Z))
        best = np.minimum(best, _pair_weight(p, Z, a, b) * J)
    out = 2.0 * p * best
    np.fill_diagonal(out, 0.0)
    return out


def _log_space_root(a, w, v):
    # (sum_j w_j |a_j|^v)^(1/v) over the last axis, summed in log space
    with np.errstate(divide="ignore"):
        return np.exp(logsumexp(v * np.log(np.abs(a)) + np.log(w), axis=-1) / v)


def test_field_requires_centered_slices():
    x = GridMeasureSpace(np.array([1.0]))
    with pytest.raises(ValueError):
        IndexedField(x, np.array([0.5, 0.5]), np.ones((1, 1, 2)))


def test_field_requires_probability_weights():
    x = GridMeasureSpace(np.array([1.0]))
    vals = np.array([[[1.0, -1.0]]])
    with pytest.raises(ValueError):
        IndexedField(x, np.array([0.7, 0.7]), vals)


def test_moment_distance_vanishes_on_diagonal_and_is_symmetric():
    rng = np.random.default_rng(20260840)
    field = _random_field(rng)
    for v in (1.0, 2.0, 3.5):
        assert np.all(moment_distance_rho(field, 2, 2, v) == 0.0)
        d01 = moment_distance_rho(field, 0, 1, v)
        d10 = moment_distance_rho(field, 1, 0, v)
        assert np.allclose(d01, d10)
        assert np.all(d01 >= 0.0)


def test_moment_distance_triangle_inequality():
    rng = np.random.default_rng(20260841)
    field = _random_field(rng, nt=5)
    for v in (1.0, 2.0, 4.0):
        for t, s, m in ((0, 1, 2), (1, 3, 4), (0, 4, 2)):
            lhs = moment_distance_rho(field, t, s, v)
            rhs = moment_distance_rho(field, t, m, v) + moment_distance_rho(field, m, s, v)
            assert np.all(lhs <= rhs + 1e-12)


def test_field_W_is_sup_of_moment_roots():
    rng = np.random.default_rng(20260842)
    field = _random_field(rng)
    gamma = 3.0
    w = field_W(field, gamma)
    direct = (np.abs(field.values) ** gamma @ field.omega_weights) ** (1.0 / gamma)
    assert np.allclose(w, direct.max(axis=1))


def test_chaining_moments_do_not_underflow_at_large_Z():
    # |xi| < 1 raised to p Z up to 1600 underflows a direct moment sum to 0,
    # which would zero sigma_bar, W and the distances, and with them the bound.
    field = _theta_field(7, 16, 64)
    p, mu_w, om_w = 2.0, field.x_space.weights, field.omega_weights
    diff = field.values[:, :, None, :] - field.values[:, None, :, :]
    for Z in (200.0, 400.0, 800.0):
        roots = _log_space_root(field.values, om_w, p * Z)
        sig_ref = ((roots**p).T @ mu_w).max()
        assert sigma_bar(field, p, Z) == pytest.approx(sig_ref, rel=1e-12)
        assert np.allclose(field_W(field, p * Z), roots.max(axis=1), rtol=1e-12, atol=0.0)
        best = np.full((field.n_t, field.n_t), math.inf)
        for a in (1.25, 1.5, 2.0, 3.0, 5.0):
            b = a / (a - 1.0)
            W = _log_space_root(field.values, om_w, (p - 1.0) * b * Z).max(axis=1) ** (p - 1.0)
            J = np.einsum("x,xts->ts", mu_w * W, _log_space_root(diff, om_w, a * Z))
            weight = rosenthal_upper(a * Z) * rosenthal_upper((p - 1.0) * b * Z) ** (p - 1.0)
            best = np.minimum(best, weight * J)
        r_ref = 2.0 * p * best
        np.fill_diagonal(r_ref, 0.0)
        assert np.all(r_ref[~np.eye(field.n_t, dtype=bool)] > 0.0)
        assert np.allclose(distance_r_matrix(field, p, Z), r_ref, rtol=1e-12, atol=0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        env = nu_envelope(field, p, np.geomspace(1.0, 800.0, 32))
    assert np.all(env.g_values > 0.0)
    u = np.linspace(math.e, 12.0, 5)
    curve = evaluate_bound_curve(env, NormingSequence.iterated_log(1.0), u, optimize=True)
    assert np.all(curve.values > 0.0)


def test_distance_matrix_matches_pairwise_entries():
    rng = np.random.default_rng(20260843)
    field = _random_field(rng, nt=4)
    mat = distance_r_matrix(field, 2.0, 1.5)
    assert np.allclose(mat, mat.T)
    assert np.all(np.diagonal(mat) == 0.0)
    for t in range(4):
        for s in range(4):
            if t != s:
                assert mat[t, s] == pytest.approx(distance_r(field, t, s, 2.0, 1.5), rel=1e-12)


@pytest.mark.parametrize("n_omega", [2, 3])
@pytest.mark.parametrize("nx", [1, 3, 16])
@pytest.mark.parametrize("nt", [1, 2, 5, 64])
def test_pair_kernel_is_the_square_form_byte_for_byte(nt, nx, n_omega):
    field = _field(np.random.default_rng(1000 * nt + 10 * nx + n_omega), nx, nt, n_omega)
    for p in (2.0, 3.0):
        for Z in (1.0, 7.3, 200.0, 800.0):
            mat = distance_r_matrix(field, p, Z)
            assert mat.tobytes() == _square_distance_r_matrix(field, p, Z).tobytes()
            assert np.array_equal(mat, mat.T)
            assert np.all(np.diagonal(mat) == 0.0)


def test_nu_envelope_is_the_square_form_byte_for_byte():
    # g through the full-square reference: the same sigma_hat, theta grid and
    # greedy cover of the normalized matrix that nu_p builds for itself.
    field = _theta_field(7, 16, 64)
    p, Z_grid = 2.0, np.geomspace(1.0, 800.0, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        g = nu_envelope(field, p, Z_grid).g_values
    ref = np.empty(Z_grid.size)
    for i, Z in enumerate(Z_grid):
        sig = sigma_hat(field, p, Z)
        thetas = np.asarray(DEFAULT_THETA_GRID, dtype=float)
        if sig >= 1.0:
            thetas = thetas / sig
        cov = EmpiricalCovering.from_distance_matrix(_square_distance_r_matrix(field, p, Z) / sig)
        ref[i] = nu_p(field, p, Z, covering=cov, theta_grid=thetas)
    assert g.tobytes() == ref.tobytes()


def test_empirical_covering_counts_greedy_centers():
    # Three distinct points on a line at 0, 1, 10 (counting metric).
    dist = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 9.0], [10.0, 9.0, 0.0]])
    cov = EmpiricalCovering.from_distance_matrix(dist)
    assert cov.n_sat == 3.0
    assert cov.n(11.0) == 1.0
    assert cov.n(5.0) == 2.0
    assert cov.n(0.5) == 3.0


def test_empirical_covering_collapses_duplicates():
    dist = np.zeros((4, 4))
    cov = EmpiricalCovering.from_distance_matrix(dist)
    assert cov.n_sat == 1.0
    assert cov.n(1e-30) == 1.0


def test_analytic_covering_power_law():
    cov = AnalyticCovering(D=2.0, dim=3, l=0.5, C_cov=1.0)
    eps = 0.7
    expected = max(1.0, 2.0 / eps**2.0) ** 3
    assert cov.n(eps) == pytest.approx(expected, rel=1e-12)
    assert cov.n(cov.eps_one * 1.01) == 1.0
    assert AnalyticCovering(D=0.0, dim=2).n(1e-9) == 1.0


def test_covering_json_round_trip():
    analytic = AnalyticCovering(D=1.5, dim=2, l=0.8, C_cov=2.0)
    back = covering_from_json(covering_to_json(analytic))
    assert back == analytic
    empirical = EmpiricalCovering(np.array([3.0, 1.0, 0.5]))
    back = covering_from_json(covering_to_json(empirical))
    assert np.array_equal(back.thresholds, empirical.thresholds)
    with pytest.raises(ValueError):
        covering_from_json({"kind": "exotic"})


def test_single_point_parameter_set_has_geometric_series_value():
    # One t: the covering is a single ball at every radius, so the inner sum
    # is exactly 1 / (1 - theta) at every theta.
    rng = np.random.default_rng(20260844)
    field = _random_field(rng, nt=1)
    p, Z = 2.0, 1.5
    detail = nu_p_detail(field, p, Z)
    expected_sums = 1.0 / (1.0 - detail.thetas)
    assert np.allclose(detail.inner_sums, expected_sums, rtol=1e-12)
    sig = sigma_hat(field, p, Z)
    expected_value = (sig * expected_sums.min()) ** (1.0 / p)
    assert detail.value == pytest.approx(expected_value, rel=1e-12)


def test_sigma_bar_closed_form():
    rng = np.random.default_rng(20260845)
    field = _random_field(rng)
    p, Z = 2.0, 2.0
    moments = np.abs(field.values) ** (p * Z) @ field.omega_weights
    expected = ((moments ** (1.0 / Z)).T @ field.x_space.weights).max()
    assert sigma_bar(field, p, Z) == pytest.approx(expected, rel=1e-12)
    assert sigma_hat(field, p, Z) == pytest.approx(
        rosenthal_upper(p * Z) ** p * expected, rel=1e-12
    )


def test_nu_accepts_scalar_sigma_with_covering():
    cov = AnalyticCovering(D=1.0, dim=1)
    value = nu_p(0.25, 2.0, 2.0, covering=cov)
    assert 0.0 < value < math.inf
    with pytest.raises(ValueError):
        nu_p(0.25, 2.0, 2.0)  # covering required for a scalar source


def test_nu_rescales_theta_grid_when_sigma_hat_large(recwarn):
    rng = np.random.default_rng(20260846)
    field = _random_field(rng, amplitude=0.9)
    p, Z = 2.0, 3.0
    assert sigma_hat(field, p, Z) >= 1.0
    with pytest.warns(UserWarning, match="rescaled"):
        detail = nu_p_detail(field, p, Z)
    assert detail.rescaled
    assert np.all(detail.thetas * detail.sigma_hat < 1.0)
    assert math.isfinite(detail.value)


def test_nu_envelope_rescale_warning_points_at_its_caller():
    field = _random_field(np.random.default_rng(20260846), amplitude=0.9)
    with pytest.warns(UserWarning, match="rescaled") as record:
        nu_envelope(field, 2.0, [2.0, 3.0])
    assert [w.filename for w in record] == [__file__]


def test_nu_explicit_theta_grid_used_verbatim():
    rng = np.random.default_rng(20260847)
    field = _random_field(rng, nt=1)
    detail = nu_p_detail(field, 2.0, 1.5, theta_grid=(0.1, 0.2))
    assert detail.thetas.tolist() == [0.1, 0.2]
    assert detail.best_theta == 0.1  # smaller theta wins the geometric series
    with pytest.raises(ValueError):
        nu_p_detail(field, 2.0, 1.5, theta_grid=(0.0, 0.5))


def test_nu_rejects_a_nan_theta():
    # a NaN theta passed both range checks; the CLI printed nu_p = inf, or ignored it
    with pytest.raises(ValueError, match="theta grid"):
        nu_p(0.25, 2.0, 2.0, covering=AnalyticCovering(D=1.0, dim=1), theta_grid=(0.5, math.nan))


def test_nu_closed_form_across_Z_for_degenerate_parameter_set():
    # With one t the optimizer always picks the smallest theta in the grid;
    # nu_envelope, with no pair to compute a distance for, gets the same g.
    rng = np.random.default_rng(20260848)
    field = _random_field(rng, nt=1)
    Z_grid = (1.0, 1.5, 2.0, 3.0)
    env = nu_envelope(field, 2.0, Z_grid)
    for Z, g in zip(Z_grid, env.g_values):
        sig = sigma_hat(field, 2.0, Z)
        expected = (sig / (1.0 - 0.05)) ** 0.5
        assert nu_p(field, 2.0, Z) == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx(expected, rel=1e-12)


def test_nu_validation():
    rng = np.random.default_rng(20260849)
    field = _random_field(rng)
    with pytest.raises(ValueError):
        nu_p(field, 1.5, 2.0)  # p below 2
    with pytest.raises(ValueError):
        nu_p(field, 2.0, 0.5)  # Z below 1


def test_nu_envelope_is_a_moment_envelope():
    rng = np.random.default_rng(20260851)
    field = _random_field(rng)
    Z_grid = np.linspace(1.0, 3.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        env = nu_envelope(field, 2.0, Z_grid)
    assert env.domain_low == 2.0
    assert env.L_grid.tolist() == (2.0 * Z_grid).tolist()
    assert np.all(env.g_values > 0.0)


def test_nu_envelope_validation():
    rng = np.random.default_rng(20260852)
    field = _random_field(rng)
    with pytest.raises(ValueError):
        nu_envelope(field, 2.0, [2.0])  # needs at least two grid points
    with pytest.raises(ValueError):
        nu_envelope(field, 2.0, [0.5, 2.0])  # Z below 1


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda f: distance_r_matrix(f, 2.0, math.nan), "Z"),
        (lambda f: distance_r_matrix(f, math.nan, 2.0), "p"),
        (lambda f: sigma_bar(f, 2.0, math.nan), "Z"),
        (lambda f: sigma_hat(f, math.nan, 2.0), "p"),
        (lambda f: nu_p_detail(f, 2.0, math.nan), "Z"),
        (lambda f: nu_p_detail(f, math.nan, 2.0), "p"),
        (lambda f: nu_p(0.25, 2.0, math.nan, covering=AnalyticCovering(D=1.0, dim=1)), "Z"),
        (lambda f: nu_envelope(f, 2.0, [1.0, math.nan]), "Z"),
        (lambda f: nu_envelope(f, math.nan, [1.0, 2.0]), "p"),
        (lambda f: nu_envelope(f, 2.0, [math.nan, 2.0]), "Z"),
        (lambda f: nu_envelope(f, 2.0, [1.0, math.inf]), "Z"),
        (lambda f: nu_envelope(f, 2.0, [2.0, 1.5]), "Z"),
        (lambda f: nu_envelope(f, 2.0, [1.5, 1.5]), "Z"),
    ],
)
def test_nan_p_and_Z_are_rejected_by_name(monkeypatch, call, name):
    # NaN fails every comparison, so each guard is written to fail it; a Z grid
    # is checked whole before any nu_p(Z) is evaluated.
    evaluated = []
    monkeypatch.setattr(entropy_ct, "nu_p", lambda *args, **kw: evaluated.append(args))
    field = _random_field(np.random.default_rng(20260854))
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(field)
    assert evaluated == []
