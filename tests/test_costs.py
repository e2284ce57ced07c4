from decimal import Decimal
from fractions import Fraction

import pytest

from vgsst import Cost, CostPrecisionError, format_fraction, ratio
from vgsst.costs import parse_fraction


def test_parse_int_and_string():
    assert Cost.parse(3).micros == 3_000_000
    assert Cost.parse("1.1").micros == 1_100_000
    assert Cost.parse("0.000001").micros == 1
    assert Cost.parse(Decimal("2.5")).micros == 2_500_000


def test_parse_rejects_extra_precision():
    with pytest.raises(CostPrecisionError):
        Cost.parse("0.1234567")
    with pytest.raises(CostPrecisionError):
        Cost.parse(Decimal("1e-7"))
    # A seventh fractional digit far behind the leading one is not rounded away.
    with pytest.raises(CostPrecisionError):
        Cost.parse("1." + "0" * 3000 + "1")


def test_parse_is_exact_beyond_28_digits():
    assert Cost.parse("1234567890123456789012345678.1").micros == 1234567890123456789012345678_100000
    assert Cost.parse("1" + "0" * 399 + "1").micros == (10**400 + 1) * 10**6
    assert Cost.parse("1." + "0" * 3000).micros == 1_000_000
    assert Cost.parse("9.99e999").micros == 999 * 10**1003


@pytest.mark.parametrize(
    "value",
    [10**1000, "1e1000", Decimal("1e1000000"), "-1e5000"],
    ids=["int", "string", "beyond-decimal-range", "negative"],
)
def test_parse_rejects_costs_of_1e1000_or_more(value):
    with pytest.raises(CostPrecisionError, match="10\\^1000 or more"):
        Cost.parse(value)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "sNaN", Decimal("Infinity")])
def test_parse_rejects_non_finite(value):
    with pytest.raises(CostPrecisionError):
        Cost.parse(value)


def test_parse_rejects_floats_and_negatives():
    with pytest.raises(TypeError):
        Cost.parse(0.1)
    with pytest.raises(ValueError):
        Cost.parse("-1")


def test_arithmetic_is_exact():
    a, b = Cost.parse("0.1"), Cost.parse("0.2")
    assert (a + b).as_decimal_str() == "0.3"
    assert (b - a) == a
    assert (a * 3).as_decimal_str() == "0.3"
    with pytest.raises(ValueError):
        a - b


def test_decimal_rendering_round_trips():
    for text in ["0", "7", "1.1", "0.000001", "123.456789", "10.5"]:
        assert Cost.parse(text).as_decimal_str() == text


def test_comparisons():
    assert Cost.parse("1.1") > Cost.parse(1)
    assert sorted([Cost.parse(2), Cost.zero(), Cost.parse("0.5")])[0] == Cost.zero()


def test_ratio_and_fraction_formatting():
    g = ratio(Cost.parse(4), 3)
    assert g == Fraction(4, 3)
    assert format_fraction(g) == "4/3"
    assert format_fraction(Fraction(13)) == "13"
    assert format_fraction(Fraction(11, 10)) == "1.1"
    assert parse_fraction("4/3") == Fraction(4, 3)
    assert parse_fraction("1.1") == Fraction(11, 10)
