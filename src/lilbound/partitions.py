"""Partitions of the positive integers and iterated-logarithm norming sequences."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "E_E",
    "Partition",
    "geometric_partition",
    "class_Y_check",
    "NormingSequence",
    "norming_value",
]

E_E = math.exp(math.e)  # 15.154262241479262, anchor making log log (1 + e^e - 1) = 1


@dataclass(frozen=True)
class Partition:
    """Geometric block starts A(k) = d**k - d + 1 for integer d >= 2 (so A(1) = 1)."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("geometric partition requires integer d >= 2")

    def A(self, k: int) -> int:
        """Block start A(k), in exact integer arithmetic."""
        if k < 1:
            raise ValueError("partition index starts at k = 1")
        return self.d**k - self.d + 1

    def ratio(self, k: int) -> float:
        """Block-endpoint ratio (A(k+1) - 1) / A(k)."""
        return (self.A(k + 1) - 1) / self.A(k)


def geometric_partition(d: int) -> Partition:
    """A(k) = d**k - d + 1."""
    return Partition(d=int(d))


def class_Y_check(partition: Partition, w: float) -> Optional[int]:
    """None if the partition belongs to Y(w), else the first k with ratio(k) < w^2.

    Y(w) asks inf_k (A(k+1) - 1)/A(k) >= w^2.  The ratio
    (d^(k+1) - d)/(d^k - d + 1) = d + (d^2 - 2d)/A(k) decreases to d (it
    equals 2 identically for d = 2), so the infimum is d and membership is
    w^2 <= d, non-strict.  Otherwise the ratio rounds to d itself within a
    few dozen blocks, and the first k with ratio(k) < w^2 is returned.
    """
    if not w > 1.0:
        raise ValueError("class Y(w) is used with w > 1")
    w2 = w * w
    if w2 <= partition.d:
        return None
    k = 1
    while partition.ratio(k) >= w2:
        k += 1
    return k


@dataclass(frozen=True)
class NormingSequence:
    """Norming v(n): the iterated-log family v_r(n) = [log log (n + e^e - 1)]^r.

    v(1) = 1 and v is strictly increasing to infinity.
    """

    r: float

    def __post_init__(self):
        if not 0.5 <= self.r < math.inf:
            raise ValueError(f"iterated-log norming power r must be finite and >= 1/2, got {self.r!r}")

    @classmethod
    def iterated_log(cls, r: float) -> "NormingSequence":
        return cls(r=float(r))

    def __call__(self, n: int) -> float:
        return norming_value(self, n)


def norming_value(v: NormingSequence, n: int) -> float:
    """v(n) for integer n >= 1; exact 1.0 at n = 1."""
    if n < 1:
        raise ValueError("norming sequences are defined for n >= 1")
    if n == 1:
        return 1.0
    try:
        x = float(n) + (E_E - 1.0)
    except OverflowError:
        x = math.inf
    if math.isinf(x):
        # n too large for a double: the additive constant is far below resolution,
        # and math.log takes arbitrary-precision integers directly
        inner = math.log(n)
    else:
        inner = math.log(x)
    return math.log(inner) ** v.r
