"""Exact cost arithmetic on a fixed 10^-6 grid.

All facility costs, solution costs and merge ratios in this package are
exact. Costs are stored as integer multiples of 10^-6 ("micros"); ratios
are `fractions.Fraction` built from micro counts, so comparisons never go
through floating point.
"""

from __future__ import annotations

from decimal import Context, Decimal, Inexact, InvalidOperation
from fractions import Fraction

#: Denominator of the cost grid. Inputs with finer precision are rejected.
COST_SCALE = 10**6

#: Parsed costs stay below 10**_COST_DIGITS (see Cost.parse).
_COST_DIGITS = 1000
_COST_BOUND = 10**_COST_DIGITS


class CostPrecisionError(ValueError):
    """Raised for cost inputs that do not fit the 10^-6 grid."""


def _named(text: str) -> str:
    """A cost's text for an error line: quoted, or by its length, as it may be huge."""
    return repr(text) if len(text) <= 40 else f"of {len(text)} characters"


class _Record:
    """Base of the package's immutable records.

    A record's fields are the parameters of its ``__init__``, in order;
    the ``__init__`` stores them in the instance ``__dict__`` (or, for a
    slotted record, through ``object.__setattr__``), since assignment and
    deletion raise. Equality holds between records of one class with
    equal keys; the key is every field unless a record overrides
    :meth:`_key`. Hashing reads the same key, the repr lists every
    field, and pickling and copying rebuild the record through its
    ``__init__``. Being plain classes, the records generate no code at
    import time.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    _key = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Cost(_Record):
    """A non-negative exact cost value, stored in millionths.

    Supports addition, subtraction (clamped errors rather than silent
    negatives), integer scaling and exact comparison. Construct via
    :meth:`parse` (str/int/Decimal) or :meth:`from_micros`.
    """

    __slots__ = ("micros",)

    def __init__(self, micros: int):
        if not isinstance(micros, int):
            raise TypeError(f"micros must be int, got {type(micros).__name__}")
        if micros < 0:
            raise ValueError(f"cost cannot be negative: {micros} micros")
        object.__setattr__(self, "micros", micros)

    def __eq__(self, other):
        return self.micros == other.micros if other.__class__ is Cost else NotImplemented

    def __hash__(self) -> int:
        return hash(self.micros)

    def __lt__(self, other):
        return self.micros < other.micros if other.__class__ is Cost else NotImplemented

    def __le__(self, other):
        return self.micros <= other.micros if other.__class__ is Cost else NotImplemented

    def __gt__(self, other):
        return self.micros > other.micros if other.__class__ is Cost else NotImplemented

    def __ge__(self, other):
        return self.micros >= other.micros if other.__class__ is Cost else NotImplemented

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
        fractional digits are rejected rather than rounded, and so are
        values of 10^1000 or more: the sums and ratios of any instance's
        costs then stay far inside the 4300 digits that Python converts
        between int and text.
        """
        if isinstance(value, Cost):
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a cost")
        if isinstance(value, int):
            if value >= _COST_BOUND:
                raise CostPrecisionError(f"cost is 10^{_COST_DIGITS} or more")
            return Cost(value * COST_SCALE)
        if isinstance(value, float):
            raise TypeError(
                f"float cost {value!r} rejected; pass a string or Decimal"
            )
        if isinstance(value, str):
            try:
                value = Decimal(value)
            except InvalidOperation as exc:
                raise CostPrecisionError(f"unparseable cost {_named(value)}") from exc
        if isinstance(value, Decimal):
            if not value.is_finite():
                raise CostPrecisionError(f"cost {_named(str(value))} is not a finite number")
            if value and value.adjusted() >= _COST_DIGITS:
                raise CostPrecisionError(f"cost is 10^{_COST_DIGITS} or more")
            exact = Context(prec=_COST_DIGITS + 6)  # holds every grid value below the bound
            scaled = exact.multiply(value, COST_SCALE)
            if exact.flags[Inexact] or scaled != scaled.to_integral_value():
                raise CostPrecisionError(
                    f"cost {_named(str(value))} has more than 6 fractional digits"
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
