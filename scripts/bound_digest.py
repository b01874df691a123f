#!/usr/bin/env python3
"""sha256 over the bound curves of a fixed set of envelopes.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/bound_digest.py

The envelopes are criterion 06's six field-spec envelopes (rademacher,
uniform and weibull, each lp on one point and mixed on 1 x 2 points), which
include bound_sweep's analytic rademacher-lp and uniform-mixed cells;
bound_sweep's other two kinds, the uniform-lp envelope read back from its
JSON (grid-backed) and a chained theta envelope, nu_envelope at p = 2 over
Z = geomspace(1, 200, 32) on a seeded 16 x 64 two-outcome field; and
criterion 07's two callables, 0.1 L^2 and 0.5 L.  Each curve is evaluated
on geomspace(e, 60, 25) for r in {1/2, 1, 2}, once optimized over the
partition and once at the fixed d = 4.  The digest covers every curve's
values, d_values, w_values, truncation_k and both flag arrays, so a change
that keeps every printed bound prints the same digest as its parent.  One
line per envelope, "name sha256=...", digests that envelope's curves alone,
so a change that moves some curves shows which; the last line is the total.
"""

import hashlib
import math
import warnings

import numpy as np

from lilbound import (
    FieldSpec,
    GridMeasureSpace,
    IndexedField,
    MomentEnvelope,
    NormingSequence,
    envelope_for_field_spec,
    envelope_from_json,
    envelope_to_json,
    evaluate_bound_curve,
    nu_envelope,
)

U_GRID = np.geomspace(math.e, 60.0, 25)
RS = (0.5, 1.0, 2.0)
FIXED_D = 4
THETA_SEED = 7331
_SCALAR = (GridMeasureSpace(np.array([1.0])),)
_TWO = (GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6])))


def theta_field(seed: int, nx: int = 16, nt: int = 64) -> IndexedField:
    """Centered two-outcome field on X x T, its L2(mu) scale pinned at 0.22."""
    rng = np.random.default_rng(seed)
    q = 0.4
    xw = rng.uniform(0.2, 1.0, nx)
    v1 = rng.uniform(-1.0, 1.0, (nx, nt))
    v1 *= 0.22 / np.sqrt((xw / xw.sum()) @ v1**2).max()
    values = np.stack([v1, -v1 * q / (1.0 - q)], axis=-1)
    return IndexedField(GridMeasureSpace(xw / xw.sum()), np.array([q, 1.0 - q]), values)


def envelopes() -> dict:
    envs = {}
    for family in ("rademacher", "uniform", "weibull"):
        envs[f"{family}-lp"] = envelope_for_field_spec(FieldSpec(family, _SCALAR, p=2.0))
        envs[f"{family}-mixed"] = envelope_for_field_spec(
            FieldSpec(family, _TWO, norm_kind="mixed", p=(2.0, 3.0))
        )
    spec = FieldSpec("uniform", _SCALAR, p=2.0)
    envs["uniform-lp-grid"] = envelope_from_json(envelope_to_json(envelope_for_field_spec(spec)))
    with warnings.catch_warnings():
        # sigma_hat >= 1 on part of the Z grid rescales the theta scan, with a warning
        warnings.simplefilter("ignore")
        envs["theta"] = nu_envelope(theta_field(THETA_SEED), 2.0, np.geomspace(1.0, 200.0, 32))
    L_grid = np.geomspace(2.0, 1e8, 257)
    envs["quadratic"] = MomentEnvelope.from_callable(lambda L: 0.1 * L**2, domain_low=2.0, L_grid=L_grid)
    envs["linear"] = MomentEnvelope.from_callable(lambda L: 0.5 * L, domain_low=2.0, L_grid=L_grid)
    return envs


def main() -> None:
    digest = hashlib.sha256()
    for name, env in envelopes().items():
        own = hashlib.sha256()
        for r in RS:
            norming = NormingSequence.iterated_log(r)
            for optimize in (True, False):
                curve = evaluate_bound_curve(env, norming, U_GRID, optimize=optimize, d=FIXED_D)
                for arr in (
                    curve.values,
                    curve.d_values,
                    curve.w_values,
                    curve.truncation_k,
                    curve.vacuous_flags,
                    curve.diverged_flags,
                ):
                    digest.update(arr.tobytes())
                    own.update(arr.tobytes())
        print(f"{name} sha256={own.hexdigest()}")
    print(f"sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()
