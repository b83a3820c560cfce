"""18-decimal fixed-point integers ("wad") with explicit rounding direction.

Every protocol quantity (asset amounts, USD prices, per-step rates, fractions)
is a plain Python int counting 1e-18 units. The helpers below make the
rounding direction of each multiply/divide explicit; protocol state never
touches a float, so runs are exactly replayable and conservation checks can
demand equality, not tolerance.

Rounding convention used throughout the engine: quantities credited to users
round down, quantities owed by users (debt, fees) round up.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation

from .errors import Overflow

WAD = 10**18
BPS_DENOM = 10_000
MAX_AMOUNT = 2**256 - 1  # raw units: the uint256 range of an ERC-20 balance
_MAX_DECIMAL = Decimal(f"{MAX_AMOUNT}e-18")


class AmountError(ValueError):
    """Negative or malformed fixed-point quantity."""


def ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def mul_down(a: int, b: int) -> int:
    return a * b // WAD


def mul_up(a: int, b: int) -> int:
    return -(-a * b // WAD)  # ceil_div(a * b, WAD), without a second call on the hot path


def div_down(a: int, b: int) -> int:
    return a * WAD // b


def div_up(a: int, b: int) -> int:
    return -(-a * WAD // b)  # ceil_div(a * WAD, b)


def wad(units: int | str) -> int:
    """Whole units -> raw. Accepts an int or a decimal string literal."""
    if isinstance(units, int):
        return units * WAD
    return from_str(units)


def is_plain(text: str) -> bool:
    """Whether `text` is ASCII with no `_` and no surrounding whitespace: Decimal() and
    float() also read "1_000", " 1" and non-ASCII digits, which no JSON writer means."""
    return text.isascii() and "_" not in text and text.strip() == text


def from_str(text: str) -> int:
    """Parse a decimal string ("1.5", "0.000000000000000001") to raw units.

    The magnitude is bounded before any exact arithmetic, so a huge exponent
    fails at once instead of building a huge power of ten.
    """
    try:
        dec = Decimal(text)
    except InvalidOperation as exc:
        raise AmountError(f"not a decimal literal: {text!r}") from exc
    if not is_plain(text):
        raise AmountError(f"not a decimal literal: {text!r}")
    if not dec.is_finite():
        raise AmountError(f"not a finite decimal: {text!r}")
    if dec.copy_abs() > _MAX_DECIMAL:  # Decimal comparisons are exact
        raise AmountError(f"exceeds 2**256 - 1 raw units: {text!r}")
    if not dec.is_zero() and dec.adjusted() < -18:  # leading digit below 1e-18
        raise AmountError(f"more than 18 decimal places: {text!r}")
    numerator, denominator = dec.as_integer_ratio()
    raw, rest = divmod(numerator * WAD, denominator)
    if rest:
        raise AmountError(f"more than 18 decimal places: {text!r}")
    return raw


def to_str(raw: int) -> str:
    """Exact decimal rendering of a raw value; inverse of from_str."""
    if raw < 0:
        return "-" + to_str(-raw)
    try:
        digits = str(raw)  # slicing off 18 digits is cheaper than divmod by WAD
    except ValueError:  # past the interpreter's limit on int-to-str digits
        raise Overflow(f"a value of {raw.bit_length()} bits is too long to render") from None
    if len(digits) < 19:
        digits = digits.rjust(19, "0")
    frac = digits[-18:].rstrip("0")
    return f"{digits[:-18]}.{frac}" if frac else digits[:-18]


def require_amount(raw: object) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise AmountError(f"amount must be an int of 1e-18 units, got {type(raw).__name__}")
    if raw < 0:
        raise AmountError(f"amount must be non-negative, got {raw}")
    return raw
