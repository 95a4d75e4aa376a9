"""Exact dyadic rationals: values of the form mantissa * 2**exponent.

Several lower bounds are genuinely fractional for small disk counts
(for example 2**(m-1) with m = 0), so bound values are carried exactly
rather than rounded.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import total_ordering
from typing import Any

__all__ = ["DyadicRational"]


@total_ordering
@dataclass(frozen=True)
class DyadicRational:
    """mantissa * 2**exponent, stored canonically (mantissa odd or zero)."""

    mantissa: int
    exponent: int

    def __post_init__(self) -> None:
        m, e = self.mantissa, self.exponent
        if m == 0:
            e = 0
        else:
            zeros = (m & -m).bit_length() - 1
            m >>= zeros
            e += zeros
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    @classmethod
    def from_int(cls, value: int) -> DyadicRational:
        return cls(value, 0)

    def ceil(self) -> int:
        """Smallest integer >= this value (exact, no floating point)."""
        if self.exponent >= 0:
            return self.mantissa << self.exponent
        shift = -self.exponent
        return -((-self.mantissa) >> shift)

    @staticmethod
    def _coerce(other: Any) -> "DyadicRational | None":
        if isinstance(other, DyadicRational):
            return other
        if isinstance(other, int):
            return DyadicRational.from_int(other)
        return None

    def __eq__(self, other: Any) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self.mantissa, self.exponent) == (rhs.mantissa, rhs.exponent)

    def __lt__(self, other: Any) -> bool:
        """Decided by sign, then by magnitude bit length; mantissas are
        shifted into line only when both tie, so the shift stays within
        the mantissas' own lengths however far apart the exponents are."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.mantissa, rhs.mantissa
        sign_a, sign_b = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sign_a != sign_b or sign_a == 0:
            return sign_a < sign_b
        # |x| lies in [2**(k-1), 2**k) for k = bit_length + exponent
        top_a = abs(a).bit_length() + self.exponent
        top_b = abs(b).bit_length() + rhs.exponent
        if top_a != top_b:
            return (top_a < top_b) == (sign_a > 0)
        e = min(self.exponent, rhs.exponent)
        return a << (self.exponent - e) < b << (rhs.exponent - e)

    def __hash__(self) -> int:
        """The hash of the int or ``fractions.Fraction`` of equal value,
        reduced modulo the hash modulus without forming 2**exponent."""
        modulus = sys.hash_info.modulus
        value = abs(self.mantissa) % modulus * pow(2, self.exponent, modulus) % modulus
        if self.mantissa < 0:
            value = -value
        return -2 if value == -1 else value

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{self.exponent}"

    def to_json_dict(self) -> dict:
        return {
            "mantissa": str(self.mantissa),
            "exponent": self.exponent,
            "ceil": str(self.ceil()),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> DyadicRational:
        return cls(int(data["mantissa"]), int(data["exponent"]))
