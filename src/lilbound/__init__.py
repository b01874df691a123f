"""Exponential tail bounds for normed partial sums under iterated-logarithm norming.

The library computes explicit upper bounds for Q(u) = P(sup_n ||S(n)|| /
(sqrt(n) v(n)) > u) on Lebesgue, mixed Lebesgue-Riesz, and sup-over-parameter
function spaces discretized to finite grids, plus a Monte Carlo harness that
checks the bounds against simulation at desk scale.
"""

from .constants import (
    C_ROSENTHAL,
    C_ROSENTHAL_SYMMETRIC,
    MixingProfile,
    doob_factor,
    mixingale_coefficient,
    rosenthal_upper,
)
from .envelopes import (
    MomentEnvelope,
    envelope_for_field_spec,
    envelope_from_field,
    envelope_from_json,
    envelope_to_json,
    tail_argmin,
    tail_from_envelope,
)
from .entropy_ct import (
    AnalyticCovering,
    EmpiricalCovering,
    IndexedField,
    covering_from_json,
    covering_to_json,
    distance_r_matrix,
    field_W,
    nu_envelope,
    nu_p,
    nu_p_detail,
    sigma_bar,
    sigma_hat,
)
from .grid_spaces import (
    GridFunction,
    GridMeasureSpace,
    flatten_product,
    grid_function_from_json,
    grid_function_to_json,
    lp_norm,
    minkowski_slack,
    mixed_norm,
    permutation_slack,
)
from .lil_bounds import (
    TailBoundCurve,
    evaluate_bound_curve,
    fit_bound_shape,
    max_admissible_w,
    optimize_bound,
    upper_bound,
)
from .partitions import (
    E_E,
    NormingSequence,
    class_Y_check,
    geometric_partition,
    norming_value,
)
from .simulate import (
    FieldSpec,
    TrajectoryEnsemble,
    clopper_pearson_upper,
    dominance_report,
    empirical_Q,
    resolve_threads,
    simulate_many,
)

__version__ = "0.1.0"

__all__ = [
    "C_ROSENTHAL",
    "C_ROSENTHAL_SYMMETRIC",
    "MixingProfile",
    "doob_factor",
    "mixingale_coefficient",
    "rosenthal_upper",
    "MomentEnvelope",
    "envelope_for_field_spec",
    "envelope_from_field",
    "envelope_from_json",
    "envelope_to_json",
    "tail_argmin",
    "tail_from_envelope",
    "AnalyticCovering",
    "EmpiricalCovering",
    "IndexedField",
    "covering_from_json",
    "covering_to_json",
    "distance_r_matrix",
    "field_W",
    "nu_envelope",
    "nu_p",
    "nu_p_detail",
    "sigma_bar",
    "sigma_hat",
    "GridFunction",
    "GridMeasureSpace",
    "flatten_product",
    "grid_function_from_json",
    "grid_function_to_json",
    "lp_norm",
    "minkowski_slack",
    "mixed_norm",
    "permutation_slack",
    "TailBoundCurve",
    "evaluate_bound_curve",
    "fit_bound_shape",
    "max_admissible_w",
    "optimize_bound",
    "upper_bound",
    "E_E",
    "NormingSequence",
    "class_Y_check",
    "geometric_partition",
    "norming_value",
    "FieldSpec",
    "TrajectoryEnsemble",
    "clopper_pearson_upper",
    "dominance_report",
    "empirical_Q",
    "resolve_threads",
    "simulate_many",
    "__version__",
]
