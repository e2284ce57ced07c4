"""Exact cost arithmetic on a fixed 10^-6 grid.

All facility costs, solution costs and merge ratios in this package are
exact. Costs are stored as integer multiples of 10^-6 ("micros"); ratios
are `fractions.Fraction` built from micro counts, so comparisons never go
through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

#: Denominator of the cost grid. Inputs with finer precision are rejected.
COST_SCALE = 10**6


class CostPrecisionError(ValueError):
    """Raised for cost inputs that do not fit the 10^-6 grid."""


@dataclass(frozen=True, order=True, slots=True)
class Cost:
    """A non-negative exact cost value, stored in millionths.

    Supports addition, subtraction (clamped errors rather than silent
    negatives), integer scaling and exact comparison. Construct via
    :meth:`parse` (str/int/Decimal) or :meth:`from_micros`.
    """

    micros: int

    def __post_init__(self):
        if not isinstance(self.micros, int):
            raise TypeError(f"micros must be int, got {type(self.micros).__name__}")
        if self.micros < 0:
            raise ValueError(f"cost cannot be negative: {self.micros} micros")

    @staticmethod
    def zero() -> "Cost":
        return Cost(0)

    @staticmethod
    def from_micros(micros: int) -> "Cost":
        return Cost(micros)

    @staticmethod
    def parse(value) -> "Cost":
        """Build a cost from an int, a decimal string, or a Decimal.

        Floats are rejected: their binary representation does not identify
        a unique point on the 10^-6 grid. Values with more than six
        fractional digits are rejected rather than rounded.
        """
        if isinstance(value, Cost):
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a cost")
        if isinstance(value, int):
            return Cost(value * COST_SCALE)
        if isinstance(value, float):
            raise TypeError(
                f"float cost {value!r} rejected; pass a string or Decimal"
            )
        if isinstance(value, str):
            try:
                value = Decimal(value)
            except InvalidOperation as exc:
                raise CostPrecisionError(f"unparseable cost {value!r}") from exc
        if isinstance(value, Decimal):
            if not value.is_finite():
                raise CostPrecisionError(f"cost {value} is not a finite number")
            scaled = value * COST_SCALE
            if scaled != scaled.to_integral_value():
                raise CostPrecisionError(
                    f"cost {value} has more than 6 fractional digits"
                )
            return Cost(int(scaled))
        raise TypeError(f"cannot build a cost from {type(value).__name__}")

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.micros + other.micros)

    def __sub__(self, other: "Cost") -> "Cost":
        if other.micros > self.micros:
            raise ValueError(
                f"cost subtraction would go negative: {self} - {other}"
            )
        return Cost(self.micros - other.micros)

    def __mul__(self, k: int) -> "Cost":
        if not isinstance(k, int):
            raise TypeError("costs scale by integers only")
        return Cost(self.micros * k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.micros != 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.micros, COST_SCALE)

    def as_decimal_str(self) -> str:
        """Canonical decimal rendering: no exponent, no trailing zeros."""
        whole, frac = divmod(self.micros, COST_SCALE)
        if frac == 0:
            return str(whole)
        digits = f"{frac:06d}".rstrip("0")
        return f"{whole}.{digits}"

    def __str__(self) -> str:
        return self.as_decimal_str()

    def __repr__(self) -> str:
        return f"Cost({self.as_decimal_str()!r})"


def ratio(total: Cost, parts: int) -> Fraction:
    """Exact cost-per-part ratio; the merge score used by the greedy solver."""
    if parts <= 0:
        raise ValueError("ratio needs a positive denominator")
    return Fraction(total.micros, parts * COST_SCALE)


def format_fraction(value: Fraction) -> str:
    """Render a ratio exactly: decimal if it fits the grid, else num/den."""
    if value.denominator == 1:
        return str(value.numerator)
    scaled = value * COST_SCALE
    if scaled.denominator == 1:
        return Cost(int(scaled)).as_decimal_str()
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of :func:`format_fraction`."""
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Cost.parse(text).as_fraction()
