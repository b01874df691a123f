"""Monte Carlo harness: reproducibility, statistics, envelopes for field specs."""

import dataclasses
import math
import os
import tracemalloc

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
    mixed_norm,
    resolve_threads,
    rosenthal_upper,
    simulate_many,
)
from lilbound.grid_spaces import _iterated_norm
from lilbound.lil_bounds import TailBoundCurve
from lilbound.simulate import (
    _BLOCK,
    _chunk_sups,
    _fill_signs,
    _fill_steps,
    _rekey,
    _state_norms,
    _trial_rng,
)


def _scalar_spec(family="rademacher", **kwargs) -> FieldSpec:
    return FieldSpec(
        family=family, spaces=(GridMeasureSpace(np.array([1.0])),), **kwargs
    )


def _reference_norms(spec, S):
    """||S(n)|| for (trials, n, dim) partial sums -> (trials, n), through the out-of-place _iterated_norm.

    An independent reference for the in-place reduction the simulation
    runs (_state_norms): a cl norm's slots are a leading axis, maxed after.
    """
    sizes = reversed([sp.size for sp in spec.spaces])
    shaped = S.reshape(*S.shape[:-1], spec.t_size, *sizes)
    exps = spec.p if spec.norm_kind == "mixed" else (spec.p,)
    return _iterated_norm(shaped, [sp.weights for sp in spec.spaces], exps).max(axis=-1)


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
    # sup_n ||S_n|| / (sqrt(n) v(n)) recomputed from the same per-trial
    # generator streams, byte for byte, for trial counts on both sides of the
    # 8-trial blocks and the 128-trial chunks, at 1 and 2 threads.  The
    # scalar Rademacher walk spells its draws and norm out; the other shapes
    # draw through _fill_steps and norm through the out-of-place _iterated_norm.
    n_max, seed, r, most = 32, 99, 1.0, 300
    ns = np.arange(1, n_max + 1, dtype=float)
    div = np.sqrt(ns) * np.log(np.log(ns + (E_E - 1.0))) ** r
    div[0] = 1.0
    scalar = np.empty((most, n_max))
    for trial in range(most):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
        )
        steps = rng.integers(0, 2, size=(n_max, 1)).astype(np.float64) * 2.0 - 1.0
        scalar[trial] = np.abs(np.cumsum(steps[:, 0]))
    cases = [("lp-dim1", _scalar_spec(), scalar)]
    for name in ("lp-dim3", "mixed-dim2", "cl"):
        spec = dataclasses.replace(_MARTINGALE_SPECS[name], dependence="iid")
        cases.append((name, spec, _iid_norms(spec, n_max, most, seed)))
    for name, spec, walks in cases:
        expected = (walks / div).max(axis=1)
        for trials in (1, 2, 3, 5, 7, 9, 17, 31, 33, 127, 129, most):
            for threads in (1, 2):
                ens = simulate_many(spec, n_max, trials, seed, rs=(r,), threads=threads)[0]
                assert ens.sup_values.tobytes() == expected[:trials].tobytes(), (name, trials, threads)


@pytest.mark.parametrize("shape", [1, 2, 3, 7, 10_000, 10_001, (5, 3), (7, 1), (10_000, 2)])
def test_fill_signs_is_the_integers_stream(shape):
    # The signs are read from raw Philox words; they must be numpy's own
    # integers(0, 2) draw, and leave the generator where that draw leaves it
    # (after an odd count, with the last word's high half buffered).
    fast, ref = _trial_rng(5, 17), _trial_rng(5, 17)
    out = np.empty(shape)
    _fill_signs(fast, out)
    assert out.tobytes() == (ref.integers(0, 2, size=shape) * 2.0 - 1.0).tobytes()
    assert fast.random(4).tobytes() == ref.random(4).tobytes()
    assert np.array_equal(fast.integers(0, 2, size=9), ref.integers(0, 2, size=9))


@pytest.mark.parametrize("sizes", [(7, 7), (10_001, 10_001), (3, 4, 5)])
def test_fill_signs_splits_one_draw_across_its_outputs(sizes):
    # A martingale trial draws its value signs and shared signs in one call:
    # the same signs as consecutive integers draws, an odd first count included.
    fast, ref = _trial_rng(6, 1), _trial_rng(6, 1)
    outs = [np.empty(m) for m in sizes]
    _fill_signs(fast, *outs)
    for out in outs:
        assert out.tobytes() == (ref.integers(0, 2, size=out.size) * 2.0 - 1.0).tobytes()
    assert fast.random(2).tobytes() == ref.random(2).tobytes()


@pytest.mark.parametrize("a", [0.0, 0.3, 0.8, 1.0, 2.5])
def test_uniform_steps_are_rng_uniform(a):
    spec = _scalar_spec("uniform", a=a)
    out = np.empty((1001, 1))
    _fill_steps(spec, _trial_rng(8, 3), out)
    assert out.tobytes() == _trial_rng(8, 3).uniform(-a, a, size=out.shape).tobytes()


def test_rekeyed_generator_is_the_trial_generator():
    # One generator per worker is re-keyed for each trial; after a trial that
    # left a buffered half (7 signs) and advanced the counter, it must draw
    # what a new generator keyed by (seed, trial) draws, integers included.
    rng = _trial_rng(9, 0)
    rng.random(5)
    _fill_signs(rng, np.empty(7))
    for trial in (1, 2**40):
        _rekey(rng, 9, trial)
        fresh = _trial_rng(9, trial)
        assert np.array_equal(rng.integers(0, 2, size=5), fresh.integers(0, 2, size=5))
        assert rng.random(3).tobytes() == fresh.random(3).tobytes()
        assert rng.standard_normal(3).tobytes() == fresh.standard_normal(3).tobytes()


def test_iid_chunk_allocates_a_few_blocks():
    # The iid pass reuses one block's stage, sums array and scaled array
    # for the whole chunk, so its peak is a few blocks' worth of n * dim
    # doubles, whatever the chunk's trial count (a 32-trial stage alone was
    # 2.56 MB, and its norm's temporaries as much again each).
    n_max = 10_000
    ns = np.arange(1, n_max + 1, dtype=float)
    divisors = np.stack([np.sqrt(ns) * np.log(np.log(ns + (E_E - 1.0))) ** r for r in (0.5, 1.0)])
    spec = _scalar_spec()
    _chunk_sups(spec, 3, 0, 128, n_max, divisors)
    tracemalloc.start()
    try:
        sups = _chunk_sups(spec, 3, 0, 128, n_max, divisors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sups.shape == (2, 128)
    assert peak <= 4 * _BLOCK * n_max * spec.draw_dim * 8


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
    # for bit, alone or in a stack of rows, in both layouts the reduction
    # serves: an iid block (trials, dim, n) and a martingale state (n, dim, trials).
    S = np.cumsum(np.random.default_rng(20261018).normal(size=(50, spec.draw_dim)), axis=0)
    sizes = tuple(sp.size for sp in spec.spaces)
    exps = spec.p if spec.norm_kind == "mixed" else (spec.p,)
    expected = []
    for row in S:
        slots = [GridFunction(spec.spaces, x.reshape(sizes, order="F")) for x in row.reshape(spec.t_size, -1)]
        expected.append(max(mixed_norm(f, exps) for f in slots))
        assert _state_norms(spec, row[None, :, None].copy())[0, 0] == expected[-1]
    expected = np.array(expected).tobytes()
    assert _state_norms(spec, np.ascontiguousarray(S.T)[None])[0].tobytes() == expected
    assert _state_norms(spec, S[:, :, None].copy())[:, 0].tobytes() == expected


def _martingale_by_hand(spec, n_max, trials, seed, rs):
    """The martingale recurrence written out trial by trial, one trial per row.

    Returns the per-trial sups (one row per r), the steps xi (trials, n_max,
    dim) and the running mean of S(j-1) that each step's multiplier read.
    Each trial's values y are drawn as for the iid spec, then its shared
    signs s, the draw order _fill_steps keeps for a martingale spec.
    """
    dim = spec.draw_dim
    values = dataclasses.replace(spec, dependence="iid")
    y = np.empty((trials, n_max, dim))
    s = np.empty((trials, n_max))
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        _fill_steps(values, rng, y[trial])
        s[trial] = rng.integers(0, 2, size=n_max) * 2.0 - 1.0
    xi = np.empty_like(y)
    S = np.empty_like(y)
    past_mean = np.empty((trials, n_max))
    running = np.zeros((trials, dim))
    for j in range(n_max):
        past_mean[:, j] = running.mean(axis=1)
        mult = 1.0 + spec.kappa * np.tanh(past_mean[:, j])
        xi[:, j] = s[:, j, None] * np.abs(y[:, j]) * mult[:, None]
        running += xi[:, j]
        S[:, j] = running
    norms = _reference_norms(spec, S)
    ns = np.arange(1, n_max + 1, dtype=float)
    sups = []
    for r in rs:
        div = np.sqrt(ns) * np.log(np.log(ns + (math.exp(math.e) - 1.0))) ** r
        div[0] = 1.0
        sups.append((norms / div).max(axis=1))
    return np.array(sups), xi, past_mean


_MARTINGALE_SPECS = {
    "lp-dim1": _scalar_spec(dependence="martingale"),
    "lp-dim3": FieldSpec(
        family="gaussian",
        spaces=(GridMeasureSpace(np.array([0.2, 0.3, 0.5])),),
        p=3.0,
        sigma=np.array([0.5, 1.0, 2.0]),
        dependence="martingale",
        kappa=0.9,
    ),
    "lp-dim12": FieldSpec(
        family="uniform",
        spaces=(GridMeasureSpace(np.linspace(0.1, 1.2, 12)),),
        p=3.5,
        dependence="martingale",
        kappa=0.95,
    ),
    "mixed-dim2": FieldSpec(
        family="uniform",
        spaces=(GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6]))),
        norm_kind="mixed",
        p=(2.0, 3.0),
        a=0.8,
        dependence="martingale",
    ),
    "cl": FieldSpec(
        family="weibull",
        spaces=(GridMeasureSpace(np.array([0.3, 0.7])),),
        norm_kind="cl",
        p=2.5,
        t_size=3,
        beta=0.8,
        dependence="martingale",
    ),
    "weibull-dim1": _scalar_spec("weibull", beta=1.5, dependence="martingale", kappa=0.6),
    # numpy sums a trial's row left to right below 8 entries, pairwise from
    # 8 on, and splits rows of more than 128 entries in two: the state's
    # means must take the same order on both sides of each boundary
    **{
        f"lp-dim{dim}": FieldSpec(
            family="uniform",
            spaces=(GridMeasureSpace(np.linspace(0.1, 1.2, dim)),),
            p=3.5,
            a=2.0,
            dependence="martingale",
            kappa=0.95,
        )
        for dim in (7, 8, 9, 16, 128, 129, 130)
    },
    "rademacher-mixed-dim2": FieldSpec(
        family="rademacher",
        spaces=(GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6]))),
        norm_kind="mixed",
        p=(2.0, 3.0),
        dependence="martingale",
    ),
}


@pytest.mark.parametrize("name", list(_MARTINGALE_SPECS))
def test_martingale_sups_are_the_hand_written_recurrence_byte_for_byte(name):
    # Pins every byte of the martingale pass, whatever its chunking: the
    # trial counts cross chunk boundaries and leave a one-trial chunk.  At
    # n = 15 a dim-1 rademacher or weibull trial draws an odd number of value
    # signs before its shared signs, in the same sign draw.
    spec = _MARTINGALE_SPECS[name]
    seed, rs = 31, (0.5, 1.0)
    for n_max in (14, 15):
        for trials in (7, 129, 130, 300):
            expected, _, _ = _martingale_by_hand(spec, n_max, trials, seed, rs)
            for threads in (1, 2):
                ens = simulate_many(spec, n_max, trials, seed, rs=rs, threads=threads)
                for k, e in enumerate(ens):
                    assert e.sup_values.tobytes() == expected[k].tobytes(), (n_max, trials, threads, e.norming_r)


@pytest.mark.parametrize("name", ["lp-dim1", "mixed-dim2"])
def test_martingale_chunk_allocates_its_state_and_a_few_blocks(name):
    # A martingale chunk holds one (n, dim, trials) state; the trials are
    # drawn through the iid pass's block stage, and the norms and their
    # divide-and-max run in the state and a few small arrays (copying each
    # 32 trials of the state out to norm them took as much as the state's
    # size again).
    n_max, trials = 10_000, 128
    spec = _MARTINGALE_SPECS[name]
    ns = np.arange(1, n_max + 1, dtype=float)
    divisors = np.stack([np.sqrt(ns) * np.log(np.log(ns + (E_E - 1.0))) ** r for r in (0.5, 1.0)])
    _chunk_sups(spec, 3, 0, trials, n_max, divisors)
    tracemalloc.start()
    try:
        sups = _chunk_sups(spec, 3, 0, trials, n_max, divisors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sups.shape == (2, trials)
    state = n_max * spec.draw_dim * trials * 8
    assert peak <= state + 10 * _BLOCK * n_max * spec.draw_dim * 8


def test_martingale_steps_are_conditionally_centered():
    # The sign-flip coupling keeps E[xi_j | past] = 0 while the multiplier
    # 1 + kappa tanh(mean S(j-1)) varies with the past: the steps' mean,
    # split by the sign of the running mean they saw, vanishes within 4
    # standard errors on either side.
    spec = _scalar_spec(dependence="martingale", kappa=0.7)
    n_max, trials, seed = 100, 200, 5
    sups, xi, past_mean = _martingale_by_hand(spec, n_max, trials, seed, (0.5,))
    ens = simulate_many(spec, n_max, trials, seed, rs=(0.5,))[0]
    assert ens.sup_values.tobytes() == sups[0].tobytes()
    steps = xi[:, :, 0]
    for side in (past_mean > 0.0, past_mean < 0.0):
        sample = steps[side]
        assert sample.size > 1000
        assert abs(sample.mean()) < 4.0 * sample.std(ddof=1) / math.sqrt(sample.size)
        # the multiplier reads the past: |xi| is 1 + 0.7 tanh(mean) on this side
        assert np.array_equal(np.abs(sample), 1.0 + 0.7 * np.tanh(past_mean[side]))
    uncoupled = simulate_many(_scalar_spec(dependence="martingale", kappa=0.0), n_max, trials, seed, rs=(0.5,))[0]
    assert not np.array_equal(uncoupled.sup_values, ens.sup_values)


def _iid_norms(spec, n_max, trials, seed):
    """||S(n)|| per trial and n, the steps drawn and summed as the iid pass does."""
    steps = np.empty((trials, n_max, spec.draw_dim))
    for trial in range(trials):
        _fill_steps(spec, _trial_rng(seed, trial), steps[trial])
    return _reference_norms(spec, np.cumsum(steps, axis=1))


@pytest.mark.parametrize("family", ["rademacher", "uniform", "gaussian"])
def test_a_longer_horizon_keeps_every_norm_and_never_lowers_a_sup(family):
    # These families draw a trial's steps in prefix order, so the first n
    # steps of a run to 2n are those of a run to n.  The norm of S(n) depends
    # on S(n) alone, so its bytes are the same in both runs, and the sup to
    # 2n is never below the sup to n.
    rng = np.random.default_rng(20261019)
    trials, seed = 8, 41
    for width in range(2, 34):
        spec = FieldSpec(family=family, spaces=(GridMeasureSpace(rng.uniform(0.2, 1.0, width)),), p=3.0)
        for n in (4, 7, 13, 25, 50):
            short, long = (_iid_norms(spec, m, trials, seed) for m in (n, 2 * n))
            assert long[:, :n].tobytes() == short.tobytes(), (width, n)
            sups = [simulate_many(spec, m, trials, seed, rs=(0.5,))[0].sup_values for m in (n, 2 * n)]
            assert np.all(sups[1] >= sups[0]), (width, n)


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


@pytest.mark.parametrize("u_grid", [[math.nan], [], [3.0, math.nan], [3.0, math.inf]])
def test_empirical_Q_rejects_a_grid_that_is_not_finite_nonempty_and_increasing(u_grid):
    # [nan] used to give q_hat 0 with a 99% limit of 0.045, and [] an empty curve
    with pytest.raises(ValueError, match="u grid must be"):
        empirical_Q(_hand_ensemble([1.0, 3.0, 3.0, 5.0]), u_grid)


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

    # lp is the one-factor case: the 2-norm over three points of the moment roots
    w, sig3 = [0.2, 0.5, 0.3], [0.5, 1.0, 2.0]
    lp = FieldSpec(family="gaussian", spaces=(GridMeasureSpace(np.array(w)),), p=2.0, sigma=np.array(sig3))
    env = envelope_for_field_spec(lp)
    for L in env.L_grid[::8]:
        L = float(L)
        total = sum(wx * math.exp(_gaussian_log_moment(sx, L) / L) ** 2.0 for wx, sx in zip(w, sig3))
        expected = 2.0 * rosenthal_upper(L) * total ** (1.0 / 2.0)
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
    one = (GridMeasureSpace(np.array([0.4, 0.6])),)
    specs = [
        FieldSpec(
            family="gaussian",
            spaces=(GridMeasureSpace(np.array([0.5, 0.5])), GridMeasureSpace(np.array([1.0, 1.0, 1.0]))),
            norm_kind="mixed",
            p=(2.0, 3.0),
            sigma=0.7,
        ),
        # each writes one more optional field: a, kappa, t_size
        FieldSpec(family="uniform", spaces=one, a=0.7),
        FieldSpec(family="rademacher", spaces=one, dependence="martingale", kappa=0.3),
        FieldSpec(family="weibull", spaces=one, norm_kind="cl", t_size=3, beta=1.5),
    ]
    for spec in specs:
        back = FieldSpec.from_json(spec.to_json())
        for name in ("family", "norm_kind", "p", "a", "beta", "dependence", "kappa", "t_size"):
            assert getattr(back, name) == getattr(spec, name), name
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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FieldSpec(family="uniform", spaces=x, a=bad)
        with pytest.raises(ValueError):
            FieldSpec(family="weibull", spaces=x, beta=bad)
        with pytest.raises(ValueError):
            FieldSpec(family="gaussian", spaces=x, sigma=np.array([bad]))


def test_trajectory_ensemble_rejects_non_finite_sups():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            _hand_ensemble([1.0, bad])


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
