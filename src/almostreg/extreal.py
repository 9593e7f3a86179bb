"""Nonnegative extended reals with the convention used throughout the toolkit.

The convention is global and exact: the product 0 * infinity equals 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

Real = Union[int, float, "ExtReal"]


@dataclass(frozen=True, slots=True)
class ExtReal:
    """A value in [0, +inf].

    Wraps a float so that infinity is an exact branch, never a large sentinel,
    and so that multiplication can honor the 0 * inf = 1 convention.
    """

    raw: float

    def __post_init__(self) -> None:
        if math.isnan(self.raw):
            raise ValueError("extended real cannot be NaN")
        if self.raw < 0.0:
            raise ValueError(f"extended real cannot be negative: {self.raw}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.raw)

    def __float__(self) -> float:
        return self.raw

    def __repr__(self) -> str:
        return "ExtReal(inf)" if self.is_infinite else f"ExtReal({self.raw!r})"

    # Total order. Plain floats compare through IEEE semantics, which agree
    # with the extended order because raw is never NaN.
    def __lt__(self, other: Real) -> bool:
        return self.raw < _raw(other)

    def __le__(self, other: Real) -> bool:
        return self.raw <= _raw(other)

    def __gt__(self, other: Real) -> bool:
        return self.raw > _raw(other)

    def __ge__(self, other: Real) -> bool:
        return self.raw >= _raw(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ExtReal, int, float)):
            return self.raw == _raw(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.raw)

    def __add__(self, other: Real) -> "ExtReal":
        return ExtReal(self.raw + _raw(other))

    __radd__ = __add__

    def __mul__(self, other: Real) -> "ExtReal":
        a, b = self.raw, _raw(other)
        if (a == 0.0 and math.isinf(b)) or (math.isinf(a) and b == 0.0):
            return ExtReal(1.0)
        return ExtReal(a * b)

    __rmul__ = __mul__


INF = ExtReal(math.inf)
ZERO = ExtReal(0.0)


def _raw(value: Real) -> float:
    if isinstance(value, ExtReal):
        return value.raw
    return float(value)


def as_ext(value: Real) -> ExtReal:
    """Coerce a number to ExtReal, validating the nonnegativity invariant."""
    if isinstance(value, ExtReal):
        return value
    return ExtReal(float(value))

