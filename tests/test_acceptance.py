"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints exactly one `[criterion NN] PASS|FAIL ...` line with its
headline metrics and then asserts.  Run `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete; the Monte Carlo dominance check (criterion
06) simulates 100k trajectories per cell and takes a few minutes on one core.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

import lilbound
from lilbound import (
    AnalyticCovering,
    FieldSpec,
    GridFunction,
    GridMeasureSpace,
    IndexedField,
    MixingProfile,
    MomentEnvelope,
    NormingSequence,
    dominance_report,
    empirical_Q,
    envelope_for_field_spec,
    evaluate_bound_curve,
    fit_bound_shape,
    flatten_product,
    lp_norm,
    minkowski_slack,
    mixed_norm,
    mixingale_coefficient,
    nu_p,
    nu_p_detail,
    permutation_slack,
    rosenthal_upper,
    simulate_many,
    tail_from_envelope,
)

E_E = math.exp(math.e)


def _verdict(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


def _random_axes(rng, sizes, uniform_last=False):
    axes = []
    for i, n in enumerate(sizes):
        if uniform_last and i == len(sizes) - 1:
            axes.append(GridMeasureSpace(np.full(n, 1.0 / n)))
        else:
            axes.append(GridMeasureSpace(rng.uniform(0.1, 2.0, n)))
    return tuple(axes)


def test_criterion_01_norm_identities():
    rng = np.random.default_rng(20260861)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        sizes = [int(rng.integers(1, 17)), int(rng.integers(1, 17))]
        axes = _random_axes(rng, sizes)
        f = GridFunction(axes, rng.normal(scale=2.0, size=tuple(sizes)))
        p = float(rng.uniform(1.0, 6.0))
        nested = mixed_norm(f, (p, p))
        flat = lp_norm(flatten_product(f), p)
        worst = max(worst, abs(nested / flat - 1.0))
        a = rng.normal(scale=2.0, size=sizes[0])
        b = rng.normal(scale=2.0, size=sizes[1])
        g = GridFunction(axes, np.multiply.outer(a, b))
        p2 = float(rng.uniform(1.0, 6.0))
        split = lp_norm(GridFunction((axes[0],), a), p) * lp_norm(
            GridFunction((axes[1],), b), p2
        )
        whole = mixed_norm(g, (p, p2))
        if split > 0.0:
            worst = max(worst, abs(whole / split - 1.0))
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "norm identities",
        worst <= 1e-12 and elapsed < 5.0,
        f"200 grids <=16x16, max rel err {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_inequality_slacks():
    rng = np.random.default_rng(20260862)
    t0 = time.monotonic()
    floor = -1e-10
    worst = math.inf
    for _ in range(500):
        sizes = [int(rng.integers(1, 5)), int(rng.integers(1, 9))]
        axes = _random_axes(rng, sizes, uniform_last=True)
        f = GridFunction(axes, rng.normal(scale=2.0, size=tuple(sizes)))
        p = float(rng.uniform(1.0, 6.0))
        m = 1.0 + float(rng.uniform(0.0, 1.0)) * (6.0 / p - 1.0)
        worst = min(worst, minkowski_slack(f, p, m))
    for _ in range(500):
        sizes = [int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 9))]
        axes = _random_axes(rng, sizes)
        f = GridFunction(axes, rng.normal(scale=2.0, size=tuple(sizes)))
        p = tuple(rng.uniform(1.0, 5.5, 2))
        r = float(rng.uniform(max(p), 6.0))
        worst = min(worst, permutation_slack(f, p, r))
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        "inequality slacks",
        worst >= floor and elapsed < 30.0,
        f"500+500 instances, min slack {worst:.2e} (floor -1e-10), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_03_moment_to_tail_conversion():
    env = MomentEnvelope.from_callable(
        lambda L: float(L), domain_low=2.0, L_grid=np.geomspace(2.0, 1e6, 257)
    )
    z = 10.0 * math.e
    closed_err = abs(tail_from_envelope(env, z) / math.exp(-10.0) - 1.0)
    rng = np.random.default_rng(20260863)
    L_grid = np.geomspace(2.0, 1e6, 257)
    scan = np.geomspace(2.0, 1e6, 100_000)
    log_scan = np.log(scan)
    scan_worst = 0.0
    for _ in range(20):
        a = rng.uniform(-2.0, 1.0)
        b = rng.uniform(0.3, 1.2)
        genv = MomentEnvelope(L_grid, np.exp(a + b * np.log(L_grid)), 2.0)
        zk = float(rng.uniform(10.0, 1e4))
        brute = float(np.exp(np.minimum(scan * (a + b * log_scan - math.log(zk)), 0.0).min()))
        got = tail_from_envelope(genv, zk)
        if brute == 0.0 or got == 0.0:
            # both methods must underflow together
            scan_worst = max(scan_worst, 0.0 if got == brute else math.inf)
        else:
            scan_worst = max(scan_worst, abs(got / brute - 1.0))
    _verdict(
        3,
        "moment-to-tail conversion",
        closed_err <= 1e-8 and scan_worst <= 1e-6,
        f"closed form rel err {closed_err:.2e} (tol 1e-8), "
        f"20 scanned envelopes worst rel err {scan_worst:.2e} (tol 1e-6)",
    )


def test_criterion_04_rosenthal_brute_force():
    worst_gap = math.inf
    checks = 0
    for symmetric in (False, True):
        for n in range(1, 9):
            for L in (2, 4, 6, 8):
                moment = Fraction(0)
                for k in range(n + 1):
                    moment += Fraction(math.comb(n, k)) * Fraction(abs(n - 2 * k)) ** L
                moment /= Fraction(2) ** n
                lhs = float(moment) ** (1.0 / L)
                rhs = rosenthal_upper(float(L), symmetric=symmetric) * max(
                    math.sqrt(n), n ** (1.0 / L)
                )
                worst_gap = min(worst_gap, rhs - lhs)
                checks += 1
    _verdict(
        4,
        "moment inequality brute force",
        worst_gap >= -1e-12,
        f"{checks} exact sign-sum moments (n<=8, L in 2..8, both constants), "
        f"min bound-minus-moment gap {worst_gap:.4f}",
    )


def test_criterion_05_exact_finite_horizon_dominance():
    u_grid = np.linspace(math.e, 4.0, 50)
    norming = NormingSequence.iterated_log(1.0)

    # scalar sign sums: every path up to n = 12
    n_max = 12
    signs = ((np.arange(2**n_max)[:, None] >> np.arange(n_max)[None, :]) & 1) * 2.0 - 1.0
    ns = np.arange(1, n_max + 1, dtype=float)
    div = np.sqrt(ns) * np.log(np.log(ns + E_E - 1.0))
    div[0] = 1.0
    sups = np.max(np.abs(np.cumsum(signs, axis=1)) / div, axis=1)
    spec = FieldSpec(family="rademacher", spaces=(GridMeasureSpace(np.array([1.0])),))
    curve = evaluate_bound_curve(envelope_for_field_spec(spec), norming, u_grid, optimize=True)
    exact = np.array([np.mean(sups > u) for u in u_grid])
    violations = int(np.sum(exact > curve.values + 1e-12))

    # four-point space, two shared signs per step: every path up to n = 8
    h1 = np.array([0.4, 1.0, 0.7, 0.2])
    h2 = np.array([0.8, 0.1, 0.5, 0.9])
    w = np.array([0.1, 0.2, 0.3, 0.4])
    steps = np.array([e1 * h1 + e2 * h2 for e1 in (1.0, -1.0) for e2 in (1.0, -1.0)])
    n_max = 8
    digits = (np.arange(4**n_max)[:, None] // 4 ** np.arange(n_max)[None, :]) % 4
    S = np.cumsum(steps[digits], axis=1)
    ns = np.arange(1, n_max + 1, dtype=float)
    div = np.sqrt(ns) * np.log(np.log(ns + E_E - 1.0))
    div[0] = 1.0
    sups4 = np.max(np.sqrt(np.einsum("pnx,x->pn", S**2, w)) / div, axis=1)
    la, lb = np.log(np.abs(h1 + h2)), np.log(np.abs(h1 - h2))
    logw = np.log(w)

    def g_fn(L: float) -> float:
        lm = np.logaddexp(L * la, L * lb) - math.log(2.0)
        return 2.0 * rosenthal_upper(L) * math.exp(logsumexp(lm + logw) / L)

    env4 = MomentEnvelope.from_callable(g_fn, domain_low=2.0, L_grid=np.geomspace(2.0, 1e8, 257))
    curve4 = evaluate_bound_curve(env4, norming, u_grid, optimize=True)
    exact4 = np.array([np.mean(sups4 > u) for u in u_grid])
    violations += int(np.sum(exact4 > curve4.values + 1e-12))
    _verdict(
        5,
        "exact finite-horizon dominance",
        violations == 0,
        f"{violations} violations on 2x50 u points (4096 scalar paths, 65536 four-point paths), "
        f"max exact tails {exact.max():.2e} / {exact4.max():.2e}",
    )


@pytest.mark.slow
def test_criterion_06_monte_carlo_dominance():
    u_grid = np.geomspace(math.e, 12.0, 25)
    seed = 20260814
    scalar = (GridMeasureSpace(np.array([1.0])),)
    two = (GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6])))
    t0 = time.monotonic()
    cells = 0
    all_ok = True
    worst = math.inf
    for family in ("rademacher", "uniform", "weibull"):
        for kind, spec in (
            ("lp", FieldSpec(family=family, spaces=scalar, p=2.0)),
            ("mixed", FieldSpec(family=family, spaces=two, norm_kind="mixed", p=(2.0, 3.0))),
        ):
            env = envelope_for_field_spec(spec)
            ensembles = simulate_many(spec, 10_000, 100_000, seed, rs=(0.5, 1.0))
            for ens in ensembles:
                bound = evaluate_bound_curve(
                    env, NormingSequence.iterated_log(ens.norming_r), u_grid, optimize=True
                )
                rep = dominance_report(empirical_Q(ens, u_grid), bound)
                margin = np.where(bound.values >= 1.0, np.inf, bound.values - rep.cp_upper)
                worst = min(worst, float(margin.min()))
                all_ok = all_ok and rep.all_pass
                cells += 1
    elapsed = time.monotonic() - t0
    _verdict(
        6,
        "Monte Carlo dominance",
        all_ok and cells == 12 and elapsed < 600.0,
        f"{cells} cells (3 families x lp/mixed x r in 1/2,1), 100k trials to n=10000 each, "
        f"worst non-vacuous margin {worst:.2e}, {elapsed:.0f}s (< 600s)",
    )


def test_criterion_07_fitted_u_power_windows():
    u_grid = np.geomspace(math.e, 100.0, 60)
    L_grid = np.geomspace(2.0, 1e8, 257)
    env_q = MomentEnvelope.from_callable(lambda L: 0.1 * L**2, domain_low=2.0, L_grid=L_grid)
    curve_q = evaluate_bound_curve(
        env_q, NormingSequence.iterated_log(2.0), u_grid, optimize=True
    )
    fit_q = fit_bound_shape(curve_q, log_power=0.0)
    env_l = MomentEnvelope.from_callable(lambda L: 0.5 * L, domain_low=2.0, L_grid=L_grid)
    curve_l = evaluate_bound_curve(
        env_l, NormingSequence.iterated_log(1.0), u_grid, optimize=True
    )
    fit_l = fit_bound_shape(curve_l, log_power=0.0)
    ok = (
        fit_q is not None
        and 0.35 <= fit_q.beta1 <= 0.65
        and fit_l is not None
        and 0.8 <= fit_l.beta1 <= 1.2
    )
    _verdict(
        7,
        "fitted u-power windows",
        ok,
        f"quadratic moment growth beta1 {fit_q.beta1:.4f} in [0.35, 0.65], "
        f"linear moment growth beta1 {fit_l.beta1:.4f} in [0.8, 1.2]",
    )


def test_criterion_08_entropy_functional():
    # single-ball covering: every theta row must match (sig/(1-theta))^(1/p)
    cov = AnalyticCovering(D=0.0, dim=1)
    worst = 0.0
    for p in (2.0, 3.0):
        for Z in (1.0, 2.0):
            for sig in (0.3, 0.6, 0.95):
                detail = nu_p_detail(sig, p, Z, covering=cov)
                per_theta = (sig * detail.inner_sums) ** (1.0 / p)
                closed = (sig / (1.0 - detail.thetas)) ** (1.0 / p)
                worst = max(worst, float(np.max(np.abs(per_theta / closed - 1.0))))
                worst = max(worst, abs(detail.value / closed.min() - 1.0))

    # exhaustive two-outcome check of the normalized sup-moment bound
    rng = np.random.default_rng(20260814)
    p = 2.0
    violations = 0
    checks = 0
    min_gap = math.inf
    for _ in range(6):
        nx, nt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        q = 0.4
        xw = rng.uniform(0.2, 1.0, nx)
        xw = xw / xw.sum()
        v1 = rng.uniform(-1.0, 1.0, (nx, nt)) * 0.3
        vals = np.stack([v1, -v1 * q / (1.0 - q)], axis=-1)
        field = IndexedField(GridMeasureSpace(xw), np.array([q, 1.0 - q]), vals)
        for Z in (1.0, 1.5, 2.0, 3.0):
            rhs = nu_p(field, p, Z)
            for n in range(1, 7):
                seqs = np.array(list(itertools.product([0, 1], repeat=n)))
                probs = np.prod(np.where(seqs == 0, q, 1.0 - q), axis=1)
                S = vals[:, :, seqs].sum(axis=-1) / math.sqrt(n)
                zeta = np.einsum("x,xtp->tp", xw, np.abs(S) ** p).max(axis=0)
                lhs = float(probs @ zeta**Z) ** (1.0 / (p * Z))
                checks += 1
                if lhs > rhs + 1e-12:
                    violations += 1
                min_gap = min(min_gap, rhs - lhs)
    _verdict(
        8,
        "entropy functional",
        worst <= 1e-12 and violations == 0,
        f"degenerate closed form worst rel err {worst:.2e} (tol 1e-12); "
        f"{checks} exhaustive sup-moment checks, {violations} violations, min gap {min_gap:.4f}",
    )


def test_criterion_09_mixingale_constants():
    profile = MixingProfile.geometric(ratio=0.5)
    k2 = mixingale_coefficient(2.0, profile)
    k4 = mixingale_coefficient(4.0, profile)
    err4 = abs(k4 - 4.0 * 3.0**0.25)
    _verdict(
        9,
        "mixingale constants",
        k2 == 2.0 and err4 <= 1e-10,
        f"K(2) = {k2} (exact), |K(4) - 4*3^(1/4)| = {err4:.2e} (tol 1e-10)",
    )


def test_criterion_10_thread_count_invariance(tmp_path):
    spec = FieldSpec(
        family="weibull", spaces=(GridMeasureSpace(np.array([1.0])),), beta=1.0
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    # the subprocess imports the same lilbound as this test, however pytest found it
    src = os.path.dirname(os.path.dirname(lilbound.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"sim{threads}.csv"
        argv = [
            sys.executable,
            "-c",
            "from lilbound.cli import main; main()",
            "simulate",
            "--spec",
            str(spec_path),
            "--n-max",
            "2000",
            "--trials",
            "400",
            "--seed",
            "7",
            "--r",
            "0.5",
            "--u-grid",
            "e:10:12",
            "--out",
            str(out),
        ]
        env = {**os.environ, "LIL_THREADS": threads, "PYTHONPATH": pythonpath}
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    _verdict(
        10,
        "thread-count invariance",
        identical,
        f"simulate CSV byte-identical across LIL_THREADS=1/4/8 ({len(outputs[0])} bytes)",
    )
