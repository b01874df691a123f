"""Closed-form constants: Rosenthal upper estimate, Doob factor, mixingale coefficient."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "C_ROSENTHAL",
    "C_ROSENTHAL_SYMMETRIC",
    "rosenthal_upper",
    "doob_factor",
    "MixingProfile",
    "mixingale_coefficient",
]

C_ROSENTHAL = 1.77638
C_ROSENTHAL_SYMMETRIC = 1.53572


def rosenthal_upper(p: float, symmetric: bool = False) -> float:
    """Upper estimate C_R * p / (e log p) of the Rosenthal constant K_R(p).

    Downstream bounds stay valid upper bounds when the exact constant is
    replaced by any upper estimate, so only this closed form is exposed.
    The symmetric flag uses the smaller constant available for symmetrically
    distributed summands.
    """
    if not p > 1.0:
        raise ValueError("rosenthal_upper requires p > 1")
    c = C_ROSENTHAL_SYMMETRIC if symmetric else C_ROSENTHAL
    return c * p / (math.e * math.log(p))


def doob_factor(L: float) -> float:
    """Maximal-inequality factor L/(L-1), at most 2 for L >= 2."""
    if L < 2.0:
        raise ValueError("doob_factor requires L >= 2")
    return L / (L - 1.0)


@dataclass(frozen=True)
class MixingProfile:
    """Mixing coefficients beta(k), k >= 1: an explicit prefix plus an analytic tail.

    tail is one of "zero" (beta(k) = 0 beyond the prefix), "geometric"
    (beta(k) = coeff * ratio**k) or "power" (beta(k) = coeff * k**(-power)).
    beta is only required to be nonnegative, not monotone.
    """

    prefix: tuple[float, ...] = ()
    tail: str = "zero"
    coeff: float = 1.0
    ratio: float = 0.5
    power: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(float(b) for b in self.prefix))
        if any(b < 0.0 for b in self.prefix):
            raise ValueError("beta values must be nonnegative")
        if self.tail not in ("zero", "geometric", "power"):
            raise ValueError(f"unknown tail family {self.tail!r}")
        if self.tail != "zero":
            if self.coeff < 0.0:
                raise ValueError("tail coefficient must be nonnegative")
            if self.tail == "geometric" and not 0.0 < self.ratio < 1.0:
                raise ValueError("geometric tail needs 0 < ratio < 1")
            if self.tail == "power" and self.power <= 0.0:
                raise ValueError("power tail needs a positive exponent")

    def beta(self, k: int) -> float:
        if k < 1:
            raise ValueError("beta is indexed from k = 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if self.tail == "zero":
            return 0.0
        if self.tail == "geometric":
            return self.coeff * self.ratio**k
        return self.coeff * float(k) ** (-self.power)

    @classmethod
    def geometric(cls, ratio: float, coeff: float = 1.0) -> "MixingProfile":
        return cls(tail="geometric", coeff=coeff, ratio=ratio)

    @classmethod
    def power(cls, power: float, coeff: float = 1.0) -> "MixingProfile":
        return cls(tail="power", coeff=coeff, power=power)

    @classmethod
    def zero(cls) -> "MixingProfile":
        return cls()

    @classmethod
    def from_values(cls, values, **tail_kwargs) -> "MixingProfile":
        return cls(prefix=tuple(values), **tail_kwargs)


_MAX_TAIL_TERMS = 200_000
_TAIL_TOL = 1e-12


def mixingale_coefficient(m: float, profile: MixingProfile) -> float:
    """Mixingale Rosenthal coefficient m * [sum_k beta(k) (k+1)^((m-2)/2)]^(1/m).

    The explicit prefix is summed exactly; the analytic tail is summed until a
    closed-form bound on the remainder drops below 1e-12 relative to the
    running sum, and that final sub-tolerance bound is then added so the result
    is a tight upper estimate (exact for a geometric tail at m = 2, where the
    bound coincides with the true remainder).  Returns math.inf when the tail
    family provably diverges (power tail with (m-2)/2 - power >= -1); a
    geometric tail always converges.
    """
    if m < 1.0:
        raise ValueError("mixingale_coefficient requires m >= 1")
    s = (m - 2.0) / 2.0

    if profile.tail == "power" and s - profile.power >= -1.0:
        return math.inf

    total = 0.0
    for k in range(1, len(profile.prefix) + 1):
        total += profile.prefix[k - 1] * (k + 1.0) ** s

    if profile.tail != "zero" and profile.coeff > 0.0:
        k = len(profile.prefix) + 1
        for _ in range(_MAX_TAIL_TERMS):
            term = profile.beta(k) * (k + 1.0) ** s
            total += term
            rem = _tail_remainder_bound(profile, s, k)
            if rem <= _TAIL_TOL * total:
                total += rem
                break
            k += 1
        else:
            total += _tail_remainder_bound(profile, s, k)

    if total == 0.0:
        return 0.0
    return m * total ** (1.0 / m)


def _tail_remainder_bound(profile: MixingProfile, s: float, k: int) -> float:
    """Closed-form upper bound for sum_{j > k} beta(j) (j+1)^s."""
    if profile.tail == "geometric":
        q = profile.ratio
        # consecutive-term ratio is q * ((j+2)/(j+1))^s <= this bound for all j >= k
        ratio_bound = q * ((k + 2.0) / (k + 1.0)) ** max(s, 0.0)
        if ratio_bound >= 1.0:
            # only possible for small k with s > 0; fall back to a later start
            return math.inf
        next_term = profile.coeff * q ** (k + 1) * (k + 2.0) ** s
        return next_term / (1.0 - ratio_bound)
    # power tail, convergent: beta(j)(j+1)^s <= coeff * 2^max(s,0) * j^(s-a)
    a = profile.power
    c = profile.coeff * 2.0 ** max(s, 0.0)
    expo = s - a  # < -1 by the divergence screen
    return c * float(k) ** (expo + 1.0) / (-(expo + 1.0))
