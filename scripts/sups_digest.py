#!/usr/bin/env python3
"""sha256 over the simulated sup_values of a fixed set of field specs.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/sups_digest.py

The specs are the five Monte Carlo cells of perfbench (iid rademacher-lp,
uniform-mixed and weibull-lp; martingale rademacher-lp and uniform-mixed)
and eight more: uniform a = 0.3 and 0.8, a two-point gaussian, a weibull cl
norm, scalar martingale weibull and rademacher cells, and uniform lp
martingale cells at dims 8 and 130, where a trial's mean sums its row
pairwise (and, at 130, splits it in two).  Each runs 300 trials (three
chunks) at r = 1/2 and 1, to n = 10^4; to 9,999 for the two scalar "-odd"
cells, whose trials draw an odd number of value signs before their shared
signs; and to 10^3 for the wide cells.  A dim-8 chunk's (n, dim, trials)
state is then 8 MB.  At dim 130 a chunk holds the 32 trials whose state
fits simulate._STATE_BYTES (33 MB, where 128 trials would take 133 MB), so
that cell runs ten chunks.  One digest is printed per thread count, 1 and
2; a change that keeps every simulated byte prints the same two digests as
its parent.
"""

import hashlib

import numpy as np

from lilbound import FieldSpec, GridMeasureSpace, simulate_many

N_MAX, WIDE_N_MAX, TRIALS, RS = 10_000, 1_000, 300, (0.5, 1.0)
_SCALAR = (GridMeasureSpace(np.array([1.0])),)
_TWO = (GridMeasureSpace(np.array([1.0])), GridMeasureSpace(np.array([0.4, 0.6])))


def specs() -> dict:
    mixed = dict(spaces=_TWO, norm_kind="mixed", p=(2.0, 3.0))
    return {
        "rademacher-lp": FieldSpec("rademacher", _SCALAR),
        "uniform-mixed": FieldSpec("uniform", **mixed),
        "weibull-lp": FieldSpec("weibull", _SCALAR),
        "rademacher-lp-martingale": FieldSpec("rademacher", _SCALAR, dependence="martingale"),
        "uniform-mixed-martingale": FieldSpec("uniform", dependence="martingale", **mixed),
        "uniform-a0.3": FieldSpec("uniform", _SCALAR, a=0.3),
        "uniform-a0.8": FieldSpec("uniform", _SCALAR, a=0.8),
        "gaussian-two-point": FieldSpec(
            "gaussian", (GridMeasureSpace(np.array([0.3, 0.7])),), p=3.0, sigma=np.array([0.5, 2.0])
        ),
        "weibull-cl": FieldSpec(
            "weibull", (GridMeasureSpace(np.array([0.3, 0.7])),), norm_kind="cl", p=2.5, t_size=3, beta=0.8
        ),
        "weibull-lp-martingale-odd": FieldSpec("weibull", _SCALAR, beta=0.8, dependence="martingale"),
        "rademacher-lp-martingale-odd": FieldSpec("rademacher", _SCALAR, dependence="martingale"),
        **{
            f"uniform-lp-martingale-wide{dim}": FieldSpec(
                "uniform", (GridMeasureSpace(np.linspace(0.1, 1.2, dim)),), p=3.0, a=2.0, dependence="martingale"
            )
            for dim in (8, 130)
        },
    }


def main() -> None:
    for threads in (1, 2):
        digest = hashlib.sha256()
        for seed, (name, spec) in enumerate(specs().items()):
            n_max = N_MAX - 1 if name.endswith("-odd") else WIDE_N_MAX if "-wide" in name else N_MAX
            for ens in simulate_many(spec, n_max, TRIALS, 1000 + seed, rs=RS, threads=threads):
                digest.update(ens.sup_values.tobytes())
        print(f"threads={threads} sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()
