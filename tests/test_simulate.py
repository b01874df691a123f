"""Monte Carlo harness: reproducibility, statistics, envelopes for field specs."""

import math
import os

import numpy as np
import pytest
from scipy.stats import beta as beta_dist

from lilbound import (
    E_E,
    FieldSpec,
    GridFunction,
    GridMeasureSpace,
    TrajectoryEnsemble,
    clopper_pearson_upper,
    dominance_report,
    empirical_Q,
    envelope_for_field_spec,
    horizon_growth,
    mixed_norm,
    resolve_threads,
    rosenthal_upper,
    simulate_many,
)
from lilbound.lil_bounds import TailBoundCurve
from lilbound.simulate import _norm_trajectory


def _scalar_spec(family="rademacher", **kwargs) -> FieldSpec:
    return FieldSpec(
        family=family, spaces=(GridMeasureSpace(np.array([1.0])),), **kwargs
    )


def test_same_seed_reproduces_the_ensemble():
    spec = _scalar_spec()
    a = simulate_many(spec, n_max=64, trials=40, seed=7, rs=(1.0,))[0]
    b = simulate_many(spec, n_max=64, trials=40, seed=7, rs=(1.0,))[0]
    assert np.array_equal(a.sup_values, b.sup_values)
    c = simulate_many(spec, n_max=64, trials=40, seed=8, rs=(1.0,))[0]
    assert not np.array_equal(a.sup_values, c.sup_values)


def test_thread_count_does_not_change_results():
    spec = _scalar_spec("uniform", a=0.8)
    base = simulate_many(spec, n_max=128, trials=130, seed=11, rs=(0.5,), threads=1)[0]
    for threads in (2, 3, 8):
        other = simulate_many(spec, n_max=128, trials=130, seed=11, rs=(0.5,), threads=threads)[0]
        assert np.array_equal(base.sup_values, other.sup_values)


def test_simulate_many_matches_separate_runs():
    spec = _scalar_spec("gaussian", sigma=0.5)
    both = simulate_many(spec, n_max=100, trials=60, seed=3, rs=(0.5, 1.0))
    for ens, r in zip(both, (0.5, 1.0)):
        single = simulate_many(spec, n_max=100, trials=60, seed=3, rs=(r,))[0]
        assert np.array_equal(ens.sup_values, single.sup_values)
        assert ens.norming_r == r


def test_trajectory_sups_match_hand_rolled_walk():
    # Scalar Rademacher: sup_n |S_n| / (sqrt(n) v(n)) recomputed directly
    # from the same per-trial generator stream.
    spec = _scalar_spec()
    n_max, trials, seed, r = 32, 12, 99, 1.0
    ens = simulate_many(spec, n_max=n_max, trials=trials, seed=seed, rs=(r,))[0]
    ns = np.arange(1, n_max + 1)
    div = np.sqrt(ns) * np.log(np.log(ns + E_E - 1.0)) ** r
    div[0] = 1.0
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
        )
        steps = rng.integers(0, 2, size=(n_max, 1)).astype(np.float64) * 2.0 - 1.0
        walk = np.abs(np.cumsum(steps[:, 0]))
        assert ens.sup_values[trial] == pytest.approx(float((walk / div).max()), rel=1e-12)


def test_one_point_factor_norms_match_hand_rolled_walk():
    # A one-point factor of weight w contributes (|S|^p w)^(1/p); recompute
    # the norms with the power and root spelled out, from the same streams,
    # so that a dropped w^(1/p) cannot go unnoticed.
    lp = FieldSpec(
        family="rademacher", spaces=(GridMeasureSpace(np.array([2.5])),), p=3.0
    )
    mixed = FieldSpec(
        family="rademacher",
        spaces=(GridMeasureSpace(np.array([0.7])), GridMeasureSpace(np.array([0.4, 0.6]))),
        norm_kind="mixed",
        p=(1.5, 2.0),
    )

    def lp_norm_of(S):
        return (np.abs(S[:, 0]) ** 3.0 * 2.5) ** (1.0 / 3.0)

    def mixed_norm_of(S):
        inner = (np.abs(S) ** 1.5 * 0.7) ** (1.0 / 1.5)
        return (inner**2.0 @ np.array([0.4, 0.6])) ** 0.5

    n_max, trials, seed, r = 40, 10, 123, 0.5
    ns = np.arange(1, n_max + 1)
    div = np.sqrt(ns) * np.log(np.log(ns + E_E - 1.0)) ** r
    div[0] = 1.0
    for spec, norm_of in ((lp, lp_norm_of), (mixed, mixed_norm_of)):
        ens = simulate_many(spec, n_max=n_max, trials=trials, seed=seed, rs=(r,))[0]
        for trial in range(trials):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
            )
            steps = rng.integers(0, 2, size=(n_max, spec.draw_dim)).astype(np.float64) * 2.0 - 1.0
            walk = norm_of(np.cumsum(steps, axis=0))
            assert ens.sup_values[trial] == pytest.approx(float((walk / div).max()), rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([0.2, 0.3, 0.5])),), p=3.0),
        FieldSpec(
            family="rademacher",
            spaces=(GridMeasureSpace(np.array([0.2, 0.3, 0.5])), GridMeasureSpace(np.array([0.4, 0.6]))),
            norm_kind="mixed",
            p=(2.0, 3.0),
        ),
        FieldSpec(
            family="rademacher",
            spaces=(GridMeasureSpace(np.array([0.3, 0.7])),),
            norm_kind="cl",
            p=2.5,
            t_size=3,
        ),
    ],
    ids=["lp", "mixed", "cl"],
)
def test_trajectory_norms_are_mixed_norm(spec):
    # One kernel: the simulated norm of a row is the library's mixed_norm, bit
    # for bit.  A BLAS matrix-vector product may round a row differently when
    # it shares the call with other rows (as the cl norm's t slots do), so
    # those agree to roundoff.
    S = np.cumsum(np.random.default_rng(20261018).normal(size=(50, spec.draw_dim)), axis=0)
    sizes = tuple(sp.size for sp in spec.spaces)
    exps = spec.p if spec.norm_kind == "mixed" else (spec.p,)
    expected = []
    for row in S:
        slots = [GridFunction(spec.spaces, x.reshape(sizes, order="F")) for x in row.reshape(spec.t_size, -1)]
        expected.append(max(mixed_norm(f, exps) for f in slots))
        if spec.t_size == 1:
            assert _norm_trajectory(spec, row[None, None])[0, 0] == expected[-1]
    assert np.allclose(_norm_trajectory(spec, S[None])[0], expected, rtol=1e-15, atol=0.0)


def test_martingale_steps_are_conditionally_centered():
    # The sign-flip coupling keeps E[xi_j | past] = 0; empirically the mean of
    # xi_j conditioned on the sign of the running mean must vanish.
    spec = _scalar_spec(dependence="martingale", kappa=0.7)
    ens = simulate_many(spec, n_max=2000, trials=200, seed=5, rs=(0.5,))[0]
    assert np.all(np.isfinite(ens.sup_values))
    assert ens.sup_values.min() > 0.0


def test_zero_field_gives_zero_sups():
    spec = _scalar_spec("uniform", a=0.0)
    ens = simulate_many(spec, n_max=50, trials=20, seed=1, rs=(0.5,))[0]
    assert np.array_equal(ens.sup_values, np.zeros(20))


def _hand_ensemble(sups, r=1.0) -> TrajectoryEnsemble:
    sups = np.asarray(sups, dtype=float)
    return TrajectoryEnsemble(
        spec=_scalar_spec(),
        n_max=10,
        trials=sups.size,
        seed=0,
        norming_r=r,
        sup_values=sups,
    )


def test_empirical_Q_counts_strict_exceedances():
    ens = _hand_ensemble([1.0, 3.0, 3.0, 5.0])
    curve = empirical_Q(ens, [math.e, 3.0, 4.0])
    assert curve.q_hat.tolist() == [0.75, 0.25, 0.25]
    assert curve.trials == 4


def test_clopper_pearson_upper_matches_beta_quantile():
    for k, n in ((0, 100), (3, 100), (99, 100), (100, 100)):
        value = clopper_pearson_upper(k, n)
        if k == n:
            assert value == 1.0
        else:
            assert value == pytest.approx(
                float(beta_dist.ppf(0.99, k + 1, n - k)), rel=1e-12
            )
    # zero count: closed form 1 - 0.01^(1/n)
    assert clopper_pearson_upper(0, 1000) == pytest.approx(
        1.0 - 0.01 ** (1.0 / 1000.0), rel=1e-9
    )


def test_clopper_pearson_upper_monotone_in_count():
    values = [clopper_pearson_upper(k, 50) for k in range(0, 51, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_dominance_report_flags_violations():
    curve_u = np.array([math.e, 4.0, 8.0])
    emp = empirical_Q(_hand_ensemble([3.0, 5.0, 2.0, 9.0]), curve_u)
    generous = TailBoundCurve(curve_u, np.ones(3))
    report = dominance_report(emp, generous)
    assert report.all_pass
    assert report.failures == []
    stingy = TailBoundCurve(curve_u, np.array([0.5, 0.0, 0.0]))
    report = dominance_report(emp, stingy)
    assert not report.all_pass
    assert len(report.failures) >= 2


def test_dominance_report_requires_matching_grids():
    emp = empirical_Q(_hand_ensemble([1.0]), [math.e, 4.0])
    bound = TailBoundCurve(np.array([math.e, 5.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        dominance_report(emp, bound)


def test_envelope_for_rademacher_spec_is_twice_rosenthal():
    spec = _scalar_spec()
    env = envelope_for_field_spec(spec)
    for L in env.L_grid[::32]:
        assert env.g(float(L)) == pytest.approx(2.0 * rosenthal_upper(L), rel=1e-12)


def test_envelope_for_uniform_spec_closed_form():
    # E|xi|^L = a^L / (L+1) for xi uniform on (-a, a).
    spec = _scalar_spec("uniform", a=0.8)
    env = envelope_for_field_spec(spec)
    for L in env.L_grid[::32]:
        moment_root = 0.8 / (L + 1.0) ** (1.0 / L)
        assert env.g(float(L)) == pytest.approx(
            2.0 * rosenthal_upper(L) * moment_root, rel=1e-10
        )


def test_envelope_for_weibull_spec_uses_gamma_moments():
    # P(|xi| > z) = exp(-z): E|xi|^L = Gamma(L + 1).
    spec = _scalar_spec("weibull", beta=1.0)
    env = envelope_for_field_spec(spec)
    L = float(env.L_grid[16])
    assert env.g(L) == pytest.approx(
        2.0 * rosenthal_upper(L) * math.exp(math.lgamma(L + 1.0) / L), rel=1e-9
    )


def _gaussian_log_moment(sigma: float, L: float) -> float:
    # E|xi|^L = sigma^L 2^(L/2) Gamma((L+1)/2) / sqrt(pi) for xi ~ N(0, sigma^2)
    return (
        L * math.log(sigma) + 0.5 * L * math.log(2.0)
        + math.lgamma((L + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    )


def test_multi_point_envelopes_match_hand_written_sums():
    # Per-point sigma in flat order, first factor fastest: sigma[i1 + 2 * i2].
    w1, w2 = [0.3, 0.7], [0.5, 1.5, 0.25]
    sigma = [0.5, 1.0, 1.5, 2.0, 0.7, 1.2]
    mixed = FieldSpec(
        family="gaussian",
        spaces=(GridMeasureSpace(np.array(w1)), GridMeasureSpace(np.array(w2))),
        norm_kind="mixed",
        p=(2.0, 3.0),
        sigma=np.array(sigma),
    )
    env = envelope_for_field_spec(mixed)
    for L in env.L_grid[::8]:
        L = float(L)
        outer = 0.0
        for i2 in range(3):
            inner = 0.0
            for i1 in range(2):
                root = math.exp(_gaussian_log_moment(sigma[i1 + 2 * i2], L) / L)
                inner += w1[i1] * root**2.0
            outer += w2[i2] * inner ** (3.0 / 2.0)
        expected = 2.0 * rosenthal_upper(L) * outer ** (1.0 / 3.0)
        assert env.g(L) == pytest.approx(expected, rel=1e-12)

    # lp of order L over three points, summed in log space against overflow.
    w, sig3 = [0.2, 0.5, 0.3], [0.5, 1.0, 2.0]
    lp = FieldSpec(family="gaussian", spaces=(GridMeasureSpace(np.array(w)),), p=2.0, sigma=np.array(sig3))
    env = envelope_for_field_spec(lp)
    for L in env.L_grid[::8]:
        L = float(L)
        logs = [math.log(wx) + _gaussian_log_moment(sx, L) for wx, sx in zip(w, sig3)]
        top = max(logs)
        log_mass = top + math.log(sum(math.exp(x - top) for x in logs))
        expected = 2.0 * rosenthal_upper(L) * math.exp(log_mass / L)
        assert env.g(L) == pytest.approx(expected, rel=1e-12)


def test_envelope_rejects_cl_norm_spec():
    spec = FieldSpec(
        family="rademacher",
        spaces=(GridMeasureSpace(np.array([1.0])),),
        norm_kind="cl",
        t_size=3,
    )
    with pytest.raises(ValueError):
        envelope_for_field_spec(spec)


def test_field_spec_json_round_trip():
    spec = FieldSpec(
        family="gaussian",
        spaces=(GridMeasureSpace(np.array([0.5, 0.5])), GridMeasureSpace(np.array([1.0, 1.0, 1.0]))),
        norm_kind="mixed",
        p=(2.0, 3.0),
        sigma=0.7,
    )
    back = FieldSpec.from_json(spec.to_json())
    assert back.family == spec.family
    assert back.norm_kind == spec.norm_kind
    assert back.p == spec.p
    assert [s.weights.tolist() for s in back.spaces] == [
        s.weights.tolist() for s in spec.spaces
    ]
    assert np.array_equal(back.sigma, spec.sigma)


def test_field_spec_validation():
    x = (GridMeasureSpace(np.array([1.0])),)
    with pytest.raises(ValueError):
        FieldSpec(family="cauchy", spaces=x)
    with pytest.raises(ValueError):
        FieldSpec(family="rademacher", spaces=x, p=0.5)
    with pytest.raises(ValueError):
        FieldSpec(family="rademacher", spaces=x, norm_kind="mixed", p=(2.0, 2.0))
    with pytest.raises(ValueError):
        FieldSpec(family="weibull", spaces=x, beta=0.0)
    with pytest.raises(ValueError):
        FieldSpec(family="rademacher", spaces=x, dependence="arma")
    with pytest.raises(ValueError):
        FieldSpec(family="rademacher", spaces=x, t_size=3)  # t_size needs cl


@pytest.mark.parametrize(
    "norm_kind,p",
    [("lp", math.nan), ("cl", math.inf), ("mixed", (2.0, math.nan))],
    ids=["lp-nan", "cl-inf", "mixed-nan"],
)
def test_field_spec_rejects_non_finite_exponents(norm_kind, p):
    # a NaN exponent used to pass the p >= 1 check and simulate NaN sups
    spaces = (GridMeasureSpace(np.array([0.5, 0.5])),) * (2 if norm_kind == "mixed" else 1)
    with pytest.raises(ValueError):
        FieldSpec(family="uniform", spaces=spaces, norm_kind=norm_kind, p=p)


def test_simulate_validates_norming_power():
    spec = _scalar_spec()
    with pytest.raises(ValueError):
        simulate_many(spec, n_max=10, trials=5, seed=0, rs=(0.3,))[0]


def test_resolve_threads_env_override(monkeypatch):
    monkeypatch.setenv("LIL_THREADS", "3")
    assert resolve_threads(None) == 3
    monkeypatch.setenv("LIL_THREADS", "0")
    assert resolve_threads(None) >= 1
    monkeypatch.delenv("LIL_THREADS")
    assert resolve_threads(5) == 5
    assert resolve_threads(None) == 1


def test_horizon_growth_reports_doubling_ratio():
    spec = _scalar_spec()
    out = horizon_growth(spec, n_max=64, trials=30, seed=2)
    assert set(out) >= {"grew_fraction", "max_relative_increase", "n_max"}
    assert 0.0 <= out["grew_fraction"] <= 1.0
    assert out["max_relative_increase"] >= 0.0


def test_mixed_norm_spec_simulates():
    spec = FieldSpec(
        family="uniform",
        spaces=(
            GridMeasureSpace(np.array([0.3, 0.7])),
            GridMeasureSpace(np.array([0.5, 0.5])),
        ),
        norm_kind="mixed",
        p=(2.0, 4.0),
        a=1.0,
    )
    ens = simulate_many(spec, n_max=32, trials=10, seed=21, rs=(1.0,))[0]
    assert ens.sup_values.shape == (10,)
    assert np.all(ens.sup_values > 0.0)
