"""Fixed-point helpers against exact rational arithmetic."""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from lendsim.fixed import (
    WAD,
    AmountError,
    div_down,
    div_up,
    from_str,
    mul_down,
    mul_up,
    require_amount,
    to_str,
    wad,
)
from lendsim.errors import Overflow

import pytest

raws = st.integers(min_value=0, max_value=10**30)
positives = st.integers(min_value=1, max_value=10**30)


def test_literals():
    assert wad(2) == 2 * WAD
    assert from_str("1.5") == 15 * 10**17
    assert from_str("0.000000000000000001") == 1
    assert to_str(15 * 10**17) == "1.5"
    assert to_str(0) == "0"


def test_rejects_excess_precision():
    with pytest.raises(AmountError):
        from_str("0.0000000000000000001")
    with pytest.raises(AmountError):
        from_str("abc")


@pytest.mark.parametrize("text", ["1_000", " 1", "1 ", "\t1", "1\n", "\u0661", "\uff11", "1\u00a0"])
def test_rejects_forms_decimal_reads_but_no_json_writer_means(text):
    # underscores, surrounding whitespace and non-ASCII digits or spaces
    with pytest.raises(AmountError, match="not a decimal literal"):
        from_str(text)


def test_amounts_are_bounded_to_uint256():
    top = 2**256 - 1
    assert from_str(to_str(top)) == top
    with pytest.raises(AmountError):
        from_str(to_str(top + 1))
    # rejected from the exponent alone, before any power of ten is built
    for text in ("1e1000000000", "1e-1000000000"):
        with pytest.raises(AmountError):
            from_str(text)
    assert from_str("0e-1000000000") == 0


def test_require_amount():
    assert require_amount(5) == 5
    with pytest.raises(AmountError):
        require_amount(-1)
    with pytest.raises(AmountError):
        require_amount(1.5)


@given(raws)
def test_parse_format_roundtrip(raw):
    assert from_str(to_str(raw)) == raw


@given(raws, raws)
def test_mul_brackets_exact_product(a, b):
    exact = Fraction(a) * Fraction(b) / WAD
    assert mul_down(a, b) <= exact <= mul_up(a, b)
    assert mul_up(a, b) - mul_down(a, b) <= 1


@given(raws, positives)
def test_div_brackets_exact_quotient(a, b):
    exact = Fraction(a) * WAD / Fraction(b)
    assert div_down(a, b) <= exact <= div_up(a, b)
    assert div_up(a, b) - div_down(a, b) <= 1


def decimal_reference(raw: int) -> str:
    with localcontext() as ctx:
        ctx.prec = len(str(abs(raw))) + 20  # exact: no digit is rounded away
        return format((Decimal(raw) / WAD).normalize(), "f")


@given(st.one_of(st.integers(-(2**300), 2**300), st.sampled_from([0, 1, -1, WAD - 1, -WAD, 10**17, 2**256])))
def test_to_str_matches_decimal_reference(raw):
    assert to_str(raw) == decimal_reference(raw)


def test_to_str_past_the_int_to_str_limit_is_overflow():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-to-str digit limit")
    for raw in (10 ** (limit + 50), -(10 ** (limit + 50))):
        with pytest.raises(Overflow, match="too long to render"):
            to_str(raw)
