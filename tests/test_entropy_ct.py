"""Chaining machinery: moment distances, coverings, and the entropy functional."""

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
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
from lilbound.cli import run
from lilbound.entropy_ct import DEFAULT_ALPHAS, DEFAULT_THETA_GRID
from lilbound.grid_spaces import _moment_root, _weighted_sum


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
        J = _weighted_sum(np.moveaxis(root(a * Z), 0, -1), mu_w * W)
        best = np.minimum(best, _pair_weight(p, Z, a, b) * J)
    out = 2.0 * p * best
    np.fill_diagonal(out, 0.0)
    return out


def _smooth_field(seed, nx, nt) -> IndexedField:
    # Two-outcome field whose slices move smoothly in t, so neighbouring t lie
    # close in the chaining distance and the smallest greedy radius is small.
    # Its amplitude puts sigma_hat above 1, so the theta scan is rescaled and
    # theta * sigma_hat reaches 0.95, past that radius.
    rng = np.random.default_rng(seed)
    q = 0.4
    xw = rng.uniform(0.2, 1.0, nx)
    phase = rng.uniform(0.2, 1.0, nx)[:, None] * np.linspace(0.0, 1.0, nt) + rng.uniform(0.0, 1.0, nx)[:, None]
    v1 = np.sin(2.0 * np.pi * phase)
    vals = np.stack([v1, -v1 * q / (1.0 - q)], axis=-1)
    return IndexedField(GridMeasureSpace(xw / xw.sum()), np.array([q, 1.0 - q]), vals)


def _reference_inner_sum(covering, s, theta, Z, k_max=4000):
    # sum_{k <= k_max} theta^(k-1) N^(1/Z)(s^k) term by term, in log space: the
    # log radius k log s is compared with the log thresholds, so no radius or
    # covering number under- or overflows.  The cases below keep theta and the
    # pure-power ratio at most 0.9 and every cut far below k_max, so the terms
    # left out are below 1e-100 of the sum.
    k = np.arange(1.0, k_max + 1.0)
    log_r = k * math.log(s)
    if isinstance(covering, AnalyticCovering):
        log_cd = math.log(covering.C_cov) + math.log(covering.D)
        log_n = covering.dim * np.maximum(0.0, log_cd - log_r / covering.l)
    else:
        log_n = np.log1p(np.count_nonzero(np.log(covering.thresholds) > log_r[:, None], axis=1))
    return math.exp(logsumexp((k - 1.0) * math.log(theta) + log_n / Z))


def _reference_nu(sig_hat, p, Z, covering, thetas):
    # nu_p(Z) = (sigma_hat min_theta sum_k ...)^(1/p) with the reference inner
    # sums, and the theta that attains it
    sums = [_reference_inner_sum(covering, theta * sig_hat, theta, Z) for theta in thetas]
    i = int(np.argmin(sums))
    return (sig_hat * sums[i]) ** (1.0 / p), thetas[i]


def _assert_upper_and_close(got, ref):
    # rounding may put the closed form above the term sum, hardly below it
    rel = (got - ref) / ref
    assert -1e-13 <= rel <= 1e-12, (got, ref)


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


@pytest.mark.parametrize("n_omega", [2, 3, 8, 16])
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
        env = nu_envelope(field, p, Z_grid)
    g = env.g_values
    # a chained envelope claims no r0 yet: its r = 1/2 series are still walked
    assert env.r0 == 0.0
    ref = np.empty(Z_grid.size)
    for i, Z in enumerate(Z_grid):
        sig = sigma_hat(field, p, Z)
        thetas = np.asarray(DEFAULT_THETA_GRID, dtype=float)
        if sig >= 1.0:
            thetas = thetas / sig
        cov = EmpiricalCovering.from_distance_matrix(_square_distance_r_matrix(field, p, Z) / sig)
        ref[i] = nu_p(field, p, Z, covering=cov, theta_grid=thetas)
    assert g.tobytes() == ref.tobytes()


# sha256 of g_values (float64, little-endian) of nu_envelope on the bound_sweep
# theta field, p = 2, Z = geomspace(1, 200, 32), by seed.  The square-form test
# above calls the same moment root, so only these catch a change of its arithmetic.
_PINNED_CHAINED_G_SHA256 = {
    7331: "87a0a7781905db6f12d9cdb892fef4fa261756d03fd8904f94fe9d59ab09f82f",
    1: "e0408c531194cf077b5c04e0cef2310febc21c0838d9808bca614a37508127d2",
    2: "510295a59a4f512723dc316b7d2c94f03d847a49e15cb18357b01c7508f1231e",
}


def test_chained_envelope_bytes_are_pinned():
    got = {}
    for seed in _PINNED_CHAINED_G_SHA256:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            env = nu_envelope(_theta_field(seed, 16, 64), 2.0, np.geomspace(1.0, 200.0, 32))
        got[seed] = hashlib.sha256(env.g_values.astype("<f8").tobytes()).hexdigest()
    assert got == _PINNED_CHAINED_G_SHA256


def _square_form_g(field, p, Z_grid):
    # nu_envelope's g rebuilt through the full-square reference, as in
    # test_nu_envelope_is_the_square_form_byte_for_byte, at any p
    g = np.empty(Z_grid.size)
    for i, Z in enumerate(Z_grid):
        sig = sigma_hat(field, p, Z)
        thetas = np.asarray(DEFAULT_THETA_GRID, dtype=float)
        if sig >= 1.0:
            thetas = thetas / sig
        r = _square_distance_r_matrix(field, p, Z)
        cov = EmpiricalCovering.from_distance_matrix(r / sig if sig > 0.0 else r)
        g[i] = nu_p(sig, p, Z, covering=cov, theta_grid=thetas)
    return g


@st.composite
def _pruning_cases(draw):
    """A random field with |Omega| in 2..16, p in {2, 3, 5}, and a Z grid of step ratio 1.05..4."""
    seed = draw(st.integers(0, 2**32 - 1))
    nx, nt, n_omega = draw(st.integers(1, 6)), draw(st.integers(2, 12)), draw(st.integers(2, 16))
    p = draw(st.sampled_from([2.0, 3.0, 5.0]))
    ratio, Z0 = draw(st.floats(1.05, 4.0)), draw(st.floats(1.0, 20.0))
    Z_grid = Z0 * ratio ** np.arange(draw(st.integers(2, 5)))
    return _field(np.random.default_rng(seed), nx, nt, n_omega), p, Z_grid


@settings(max_examples=100, deadline=None)
@given(_pruning_cases())
def test_pruned_pair_minimum_is_the_all_pairs_minimum_byte_for_byte(case):
    # Skipping pairs that provably lose the minimum must leave every byte of
    # g and of the distance matrix.  Floors at each pair's own order force a
    # branch: zero roots prove nothing, so every pair is computed; the exact
    # roots skip every pair that loses by more than the margin.
    field, p, Z_grid = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        g = nu_envelope(field, p, Z_grid).g_values
        assert g.tobytes() == _square_form_g(field, p, Z_grid).tobytes()
    shape = field._diff_root(1.0).shape
    for Z in (Z_grid[0], Z_grid[-1]):
        ref = _square_distance_r_matrix(field, p, Z).tobytes()
        assert distance_r_matrix(field, p, Z).tobytes() == ref
        weak = [(a * Z, np.zeros(shape)) for a in DEFAULT_ALPHAS]
        assert entropy_ct._distance_r_matrix(field, p, Z, weak).tobytes() == ref
        assert len(weak) == 2 * len(DEFAULT_ALPHAS)  # every pair computed
        exact = [(a * Z, field._diff_root(a * Z)) for a in DEFAULT_ALPHAS]
        assert entropy_ct._distance_r_matrix(field, p, Z, exact).tobytes() == ref
        event(f"pairs computed with exact floors: {len(exact) - len(DEFAULT_ALPHAS)}")


def test_nu_envelope_skips_pairs_that_lose_the_minimum(monkeypatch):
    # The bound_sweep theta field: the all-pairs minimum takes 5 roots per Z,
    # 160 in all.  Earlier roots prove that most pairs lose.
    field = _theta_field(7331, 16, 64)
    orders, root = [], field._diff_root

    def counted(v):
        orders.append(v)
        return root(v)

    monkeypatch.setitem(field.__dict__, "_diff_root", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        nu_envelope(field, 2.0, np.geomspace(1.0, 200.0, 32))
    assert 32 <= len(orders) <= 40


def test_nu_envelope_keeps_a_few_floors():
    # Each root is 258 KB on this field; nu_envelope keeps at most three of
    # earlier Z as floors, and a warm call peaks at about 1.1 MB.
    field, Z_grid = _theta_field(7331, 16, 64), np.geomspace(1.0, 200.0, 32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        nu_envelope(field, 2.0, Z_grid)  # builds the field's cached roots
        tracemalloc.start()
        try:
            nu_envelope(field, 2.0, Z_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.5e6


@pytest.mark.parametrize("s_above_one", [False, True], ids=["s<1", "s>1"])
@pytest.mark.parametrize("kind", ["empirical", "analytic"])
def test_inner_sums_match_a_brute_force_sum(kind, s_above_one):
    # Covers whose radii s^k cross a threshold (a greedy radius, or eps_one)
    # past k = 1, so the sum has more than one geometric block.
    rng = np.random.default_rng(20260860 + 2 * (kind == "analytic") + s_above_one)
    checked = diverged = 0
    while checked < 60:
        theta, Z = rng.uniform(0.05, 0.9), rng.uniform(1.0, 30.0)
        s = math.exp(rng.uniform(0.01, 2.0) if s_above_one else -rng.uniform(0.02, 3.0))
        if kind == "empirical":
            # t = s^u lies past s for u > 1, where s^k crosses it at k >= 2
            u = rng.uniform(0.0, 40.0, rng.integers(1, 40))
            if not np.any(u > 1.0):
                continue
            cov = EmpiricalCovering(np.sort(s**u)[::-1])
        else:
            cov = AnalyticCovering(
                D=math.exp(rng.uniform(-30.0, 8.0)),
                dim=int(rng.integers(1, 4)),
                l=rng.uniform(0.3, 1.0),
                C_cov=rng.uniform(0.5, 2.0),
            )
            if (s > cov.eps_one) == s_above_one:  # one ball from k = 1 (s > 1) or no N = 1 block (s < 1)
                continue
            ratio = theta * s ** (-cov.dim / (cov.l * Z))
            if 0.9 < ratio < 1.0:  # too slow for the reference sum; ratio >= 1 must give inf
                continue
        sig = s / theta
        got = nu_p_detail(sig, 2.0, Z, covering=cov, theta_grid=[theta]).inner_sums[0]
        if kind == "analytic" and ratio >= 1.0:
            assert got == math.inf
            diverged += 1
            continue
        _assert_upper_and_close(got, _reference_inner_sum(cov, theta * sig, theta, Z))
        checked += 1
    if kind == "analytic" and not s_above_one:
        assert diverged > 0
    # s = 1: every radius is 1, and N(1) is the same at every k
    got = nu_p_detail(2.0, 2.0, Z, covering=cov, theta_grid=[0.5]).inner_sums[0]
    _assert_upper_and_close(got, _reference_inner_sum(cov, 1.0, 0.5, Z))


def test_divergent_analytic_sum_is_inf():
    # theta s^(-dim/(l Z)) = 0.95 / 0.475 = 2: past eps_one = 1e-250 the terms
    # grow.  A term loop with a relative stop ended inside the N = 1 prefix
    # and reported nu_p = 3.16 here.
    cov = AnalyticCovering(D=1e-250, dim=1)
    detail = nu_p_detail(0.5, 2.0, 1.0, covering=cov, theta_grid=[0.95])
    assert detail.inner_sums.tolist() == [math.inf]
    assert detail.value == math.inf


def test_nu_envelope_on_a_smooth_field_matches_the_brute_force_sum():
    # g from the same sigma_hat, theta scan and greedy cover; on part of the Z
    # grid the best theta puts s = theta sigma_hat above the smallest greedy
    # radius, so g there comes from an inner sum with more than one block.
    field = _smooth_field(3, 4, 16)
    p, Z_grid = 2.0, np.geomspace(1.0, 100.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        g = nu_envelope(field, p, Z_grid).g_values
    unsaturated = 0
    for Z, g_Z in zip(Z_grid, g):
        sig = sigma_hat(field, p, Z)
        cov = EmpiricalCovering.from_distance_matrix(distance_r_matrix(field, p, Z) / sig)
        nu, theta = _reference_nu(sig, p, Z, cov, np.asarray(DEFAULT_THETA_GRID) / max(sig, 1.0))
        unsaturated += cov.thresholds[-1] < theta * sig
        _assert_upper_and_close(g_Z, nu)
    assert unsaturated >= 4


def test_entropy_cli_theta_grid_past_one(tmp_path, capsys):
    # sigma_hat is 3.6 to 4.8, so every theta puts s = theta sigma_hat above 1,
    # where the radii s^k grow past the greedy radii 2 to 40 one by one
    cov = EmpiricalCovering(np.array([40.0, 20.0, 5.0, 2.0, 0.5]))
    cov_path = tmp_path / "cov.json"
    cov_path.write_text(json.dumps(covering_to_json(cov)))
    argv = ["entropy", "--covering", str(cov_path), "--p", "2", "--z-grid", "1:3:3", "--theta-grid", "0.3,0.6,0.9"]
    assert run(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "Z,sigma_bar,sigma_hat,nu_p,theta"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 3
    for Z, sig_bar, sig, nu, theta in rows:
        assert sig == rosenthal_upper(2.0 * Z) ** 2 * sig_bar and 0.3 * sig > 1.0
        ref, ref_theta = _reference_nu(sig, 2.0, Z, cov, (0.3, 0.6, 0.9))
        _assert_upper_and_close(nu, ref)
        assert theta == ref_theta


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
    # far past eps_one: eps^(1/l) would overflow, but one ball covers the set
    assert AnalyticCovering(D=1.0, dim=1, l=0.5).n(1e200) == 1.0


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
    # sigma_hat = 0: the value is 0, at the first theta of the default grid
    zero = nu_p_detail(0.0, 2.0, 2.0, covering=cov)
    assert (zero.value, zero.best_theta) == (0.0, 0.05)
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
