"""Closed-form constants: Rosenthal estimate, Doob factor, mixingale coefficient."""

import math

import pytest

from lilbound import (
    C_ROSENTHAL,
    C_ROSENTHAL_SYMMETRIC,
    MixingProfile,
    doob_factor,
    mixingale_coefficient,
    rosenthal_upper,
)


def test_rosenthal_upper_equals_leading_constant_at_e():
    # p / (e log p) = 1 at p = e.
    assert rosenthal_upper(math.e) == pytest.approx(C_ROSENTHAL, rel=1e-15)
    assert rosenthal_upper(math.e, symmetric=True) == pytest.approx(
        C_ROSENTHAL_SYMMETRIC, rel=1e-15
    )


def test_rosenthal_upper_closed_form_sample():
    p = math.e**2
    assert rosenthal_upper(p) == pytest.approx(C_ROSENTHAL * math.e / 2.0, rel=1e-15)


def test_rosenthal_symmetric_is_smaller():
    for p in (2.0, 4.0, 10.0, 100.0):
        assert rosenthal_upper(p, symmetric=True) < rosenthal_upper(p)


def test_rosenthal_upper_increasing_beyond_e():
    values = [rosenthal_upper(p) for p in (math.e, 3.0, 5.0, 10.0, 100.0, 1e6)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rosenthal_upper_requires_p_above_one():
    with pytest.raises(ValueError):
        rosenthal_upper(1.0)


def test_doob_factor_values():
    assert doob_factor(2.0) == 2.0
    assert doob_factor(10.0) == pytest.approx(10.0 / 9.0, rel=1e-15)
    assert doob_factor(1e9) == pytest.approx(1.0, rel=1e-8)


def test_doob_factor_capped_by_two():
    for L in (2.0, 2.5, 4.0, 50.0):
        assert 1.0 < doob_factor(L) <= 2.0


def test_doob_factor_requires_L_at_least_two():
    with pytest.raises(ValueError):
        doob_factor(1.5)


def test_mixingale_geometric_half_exact_at_order_two():
    # beta(k) = 2^-k sums to 1, so the coefficient is exactly 2 * 1^(1/2).
    profile = MixingProfile.geometric(ratio=0.5)
    assert mixingale_coefficient(2.0, profile) == 2.0


def test_mixingale_geometric_half_at_order_four():
    # sum_k 2^-k (k+1) = 3, so the coefficient is 4 * 3^(1/4).
    profile = MixingProfile.geometric(ratio=0.5)
    assert mixingale_coefficient(4.0, profile) == pytest.approx(
        4.0 * 3.0**0.25, abs=1e-10
    )


def test_mixingale_power_tail_divergence_screen():
    # (m-2)/2 - power >= -1 diverges: m = 4 gives s = 1, power 2 is borderline.
    assert mixingale_coefficient(4.0, MixingProfile.power(power=2.0)) == math.inf
    assert math.isfinite(mixingale_coefficient(4.0, MixingProfile.power(power=2.5)))


def test_mixingale_power_tail_matches_zeta_value():
    # beta(k) = k^-2 at m = 2: sum is pi^2 / 6.
    profile = MixingProfile.power(power=2.0)
    expected = 2.0 * (math.pi**2 / 6.0) ** 0.5
    assert mixingale_coefficient(2.0, profile) == pytest.approx(expected, rel=1e-9)


def test_mixingale_geometric_tail_past_a_remainder_bound_above_one():
    # q = 0.9, m = 10: the remainder bound's ratio q ((k+2)/(k+1))^4 is >= 1 for
    # the first terms, so the bound is inf there and the sum walks on past
    # them; the result bounds a 5,000-term brute-force sum from above.
    coeff = mixingale_coefficient(10.0, MixingProfile.geometric(ratio=0.9))
    total = 0.0
    for k in range(1, 5001):
        total += 0.9**k * (k + 1.0) ** 4
    brute = 10.0 * total**0.1
    assert brute <= coeff <= brute + 1e-12


def test_mixingale_prefix_summed_exactly():
    profile = MixingProfile.from_values([1.0, 0.5])
    assert mixingale_coefficient(2.0, profile) == pytest.approx(
        2.0 * 1.5**0.5, rel=1e-15
    )


def test_mixingale_zero_profile_is_zero():
    assert mixingale_coefficient(2.0, MixingProfile.zero()) == 0.0


def test_mixingale_requires_order_at_least_one():
    with pytest.raises(ValueError):
        mixingale_coefficient(0.5, MixingProfile.zero())


def test_profile_beta_prefix_then_tail():
    profile = MixingProfile(prefix=(0.9, 0.8), tail="geometric", coeff=1.0, ratio=0.5)
    assert profile.beta(1) == 0.9
    assert profile.beta(2) == 0.8
    assert profile.beta(3) == pytest.approx(0.125)
    assert MixingProfile(prefix=(0.9, 0.8)).beta(3) == 0.0


def test_profile_validation():
    with pytest.raises(ValueError):
        MixingProfile(prefix=(-0.1,))
    with pytest.raises(ValueError):
        MixingProfile.geometric(ratio=1.0)
    with pytest.raises(ValueError):
        MixingProfile.power(power=0.0)
    with pytest.raises(ValueError):
        MixingProfile(tail="exotic")


def test_profile_beta_indexed_from_one():
    with pytest.raises(ValueError):
        MixingProfile.zero().beta(0)
