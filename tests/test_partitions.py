"""Integer partitions, the admissibility class, and norming sequences."""

import math

import numpy as np
import pytest

from lilbound import (
    E_E,
    NormingSequence,
    class_Y_check,
    geometric_partition,
    max_admissible_w,
    norming_value,
)


def test_geometric_blocks_follow_power_rule():
    for d in (2, 3, 5, 16):
        part = geometric_partition(d)
        assert part.A(1) == 1
        for k in (1, 2, 5, 20):
            assert part.A(k) == d**k - d + 1


def test_geometric_blocks_stay_exact_at_depth():
    part = geometric_partition(3)
    assert part.A(64) == 3**64 - 2  # exact integer arithmetic, no float rounding


def test_geometric_partition_requires_d_at_least_two():
    with pytest.raises(ValueError):
        geometric_partition(1)


def test_geometric_ratio_decreases_to_d():
    part = geometric_partition(3)
    ratios = [part.ratio(k) for k in range(1, 12)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(3.0, rel=1e-4)


def test_class_membership_verdicts_for_geometric():
    for d in (2, 3, 7):
        part = geometric_partition(d)
        assert class_Y_check(part, max_admissible_w(d))
        verdict = class_Y_check(part, math.sqrt(d) + 1e-6)
        assert verdict.status == "violated"
        assert not verdict


def test_max_admissible_w_squares_below_d():
    for d in range(2, 17):
        assert max_admissible_w(d) ** 2 <= d


def test_class_membership_violation_located():
    # d = 3: ratio(1) = 6 and ratio(2) = 24/7 < 3.5
    verdict = class_Y_check(geometric_partition(3), math.sqrt(3.5))
    assert verdict.status == "violated"
    assert verdict.violated_at == 2


def test_violation_found_for_w_squared_one_step_above_d():
    # ratio(k) = d + (d^2 - 2d)/A(k) rounds to d itself within a few dozen blocks
    for d in range(2, 17):
        w = math.sqrt(np.nextafter(float(d), math.inf))
        while w * w <= d:
            w = np.nextafter(w, math.inf)
        verdict = class_Y_check(geometric_partition(d), float(w))
        assert verdict.status == "violated"
        assert 1 <= verdict.violated_at <= 64


def test_class_check_requires_w_above_one():
    with pytest.raises(ValueError):
        class_Y_check(geometric_partition(2), 1.0)


def test_norming_starts_at_one_exactly():
    for r in (0.5, 1.0, 2.0, 3.5):
        v = NormingSequence.iterated_log(r)
        assert v(1) == 1.0


def test_norming_matches_closed_form():
    v = NormingSequence.iterated_log(1.5)
    for n in (1, 2, 10, 10**6):
        expected = math.log(math.log(n + E_E - 1.0)) ** 1.5
        assert v(n) == pytest.approx(expected, rel=1e-15)
    # past float range e^e - 1 is far below resolution: v(n) = (log log n)^r
    assert v(10**400) == math.log(math.log(10**400)) ** 1.5 == 17.832056003898035


def test_norming_is_increasing_and_unbounded():
    v = NormingSequence.iterated_log(0.5)
    values = [v(n) for n in (1, 2, 10, 100, 10**4, 10**8)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert norming_value(v, 10**300) > 1.9


def test_norming_requires_r_at_least_half():
    with pytest.raises(ValueError):
        NormingSequence.iterated_log(0.4)


def test_e_e_constant():
    assert E_E == math.exp(math.e)


def test_norming_rejects_index_below_one():
    v = NormingSequence.iterated_log(1.0)
    with pytest.raises(ValueError):
        v(0)
