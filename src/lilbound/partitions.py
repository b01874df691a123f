"""Partitions of the positive integers and iterated-logarithm norming sequences."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "E_E",
    "Partition",
    "geometric_partition",
    "explicit_partition",
    "YVerdict",
    "class_Y_check",
    "NormingSequence",
    "norming_value",
]

E_E = math.exp(math.e)  # 15.154262241479262, anchor making log log (1 + e^e - 1) = 1


@dataclass(frozen=True)
class Partition:
    """Block starts A(k): strictly increasing integers with A(1) = 1, A(k+1) >= A(k) + 2.

    Geometric partitions A(k) = d**k - d + 1 are generated analytically for
    every k; explicit partitions know only their stored prefix.
    """

    kind: str  # "geometric" | "explicit"
    d: Optional[int] = None
    prefix: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("geometric", "explicit"):
            raise ValueError(f"unknown partition kind {self.kind!r}")
        if self.kind == "geometric":
            if self.d is None or self.d < 2:
                raise ValueError("geometric partition requires integer d >= 2")
        else:
            a = tuple(int(x) for x in self.prefix)
            if not a or a[0] != 1:
                raise ValueError("partition must start at A(1) = 1")
            for prev, nxt in zip(a, a[1:]):
                if nxt < prev + 2:
                    raise ValueError("partition requires A(k+1) >= A(k) + 2")
            object.__setattr__(self, "prefix", a)

    def A(self, k: int) -> int:
        """Block start A(k); exact integer arithmetic for the geometric family."""
        if k < 1:
            raise ValueError("partition index starts at k = 1")
        if self.kind == "geometric":
            return self.d**k - self.d + 1
        if k > len(self.prefix):
            raise ValueError(
                f"explicit partition knows only A(1..{len(self.prefix)}); A({k}) requested"
            )
        return self.prefix[k - 1]

    def ratio(self, k: int) -> float:
        """Block-endpoint ratio (A(k+1) - 1) / A(k)."""
        return (self.A(k + 1) - 1) / self.A(k)


def geometric_partition(d: int) -> Partition:
    """A(k) = d**k - d + 1."""
    return Partition(kind="geometric", d=int(d))


def explicit_partition(A) -> Partition:
    return Partition(kind="explicit", prefix=tuple(int(x) for x in A))


@dataclass(frozen=True)
class YVerdict:
    """Membership verdict for the class Y(w): inf_k (A(k+1)-1)/A(k) >= w^2."""

    status: str  # "member" | "violated" | "inconclusive"
    violated_at: Optional[int] = None
    inf_ratio: Optional[float] = None

    def __bool__(self) -> bool:
        return self.status == "member"


_GEOMETRIC_SCAN_CAP = 1_000_000
_Y_CHECK_K = 64


def class_Y_check(partition: Partition, w: float) -> YVerdict:
    """Check whether the partition belongs to Y(w).

    Geometric partitions admit an analytic verdict: the ratio
    (d^(k+1) - d)/(d^k - d + 1) decreases to d (it equals 2 identically for
    d = 2), so the infimum is d and membership is w^2 <= d, non-strict.
    Explicit partitions are checked for k <= 64 within their prefix and
    report `inconclusive` when no violation is found, since the infinite tail
    cannot be certified.
    """
    if not w > 1.0:
        raise ValueError("class Y(w) is used with w > 1")
    w2 = w * w
    if partition.kind == "geometric":
        d = float(partition.d)
        if w2 <= d:
            return YVerdict("member", inf_ratio=d)
        k = 1
        while k <= _GEOMETRIC_SCAN_CAP:
            if partition.ratio(k) < w2:
                return YVerdict("violated", violated_at=k, inf_ratio=d)
            k += 1
        return YVerdict("violated", violated_at=None, inf_ratio=d)  # w^2 > inf, k beyond cap
    for k in range(1, min(_Y_CHECK_K, len(partition.prefix) - 1) + 1):
        if partition.ratio(k) < w2:
            return YVerdict("violated", violated_at=k)
    return YVerdict("inconclusive")


@dataclass(frozen=True)
class NormingSequence:
    """Norming v(n): the iterated-log family v_r(n) = [log log (n + e^e - 1)]^r.

    v(1) = 1 and v is strictly increasing to infinity.
    """

    r: float

    def __post_init__(self):
        if self.r < 0.5:
            raise ValueError("iterated-log norming requires r >= 1/2")

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
