"""Exact canonical rationals: the ground layer for everything else.

A rational is a `fractions.Fraction`, which already maintains the canonical
form we rely on everywhere: positive denominator and numerator/denominator in
lowest terms, with zero stored as 0/1.  Equality of values is therefore
structural equality.  This module adds the strict literal grammar and exact
decimal conversion in both directions; none of it ever touches binary floating
point.
"""

import re
from fractions import Fraction as Rational

from .errors import DomainError, ParseError

__all__ = [
    "Rational",
    "int_from_digits",
    "parse_rational",
    "rational_from_digits",
    "to_decimal",
]

# `-? digits ('.' digits)?` or `-? digits '/' digits`, digits ASCII 0-9 only
# (`\d` would also take every other Unicode decimal digit)
_LITERAL = re.compile(r"\A\s*(-?)([0-9]+)(?:\.([0-9]+)|/([0-9]+))?\s*\Z")


def parse_rational(text):
    """Parse `-? digits ('.' digits)?` or `-? digits '/' digits` exactly.

    Decimal literals are scaled by powers of ten; "0.1" is exactly 1/10.
    """
    m = _LITERAL.match(text)
    if m is None:
        raise ParseError(f"invalid rational literal {text!r}", offset=0,
                         expected=("rational literal",))
    sign, whole, frac, den = m.groups()
    try:
        value = rational_from_digits(whole, frac, den)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {text!r}") from None
    return -value if sign else value


def rational_from_digits(whole, frac, den):
    """The value of the literal whole, whole.frac or whole/den.

    Each part is a string of ASCII digits; frac and den are None or empty
    when absent.  A zero den raises ZeroDivisionError.
    """
    if den:
        return Rational(int_from_digits(whole), int_from_digits(den))
    if frac:
        return Rational(int_from_digits(whole + frac), 10 ** len(frac))
    return Rational(int_from_digits(whole))


def _round_half_away(x):
    """Round a Rational to the nearest integer, ties away from zero."""
    sign = -1 if x < 0 else 1
    n, d = abs(x).numerator, abs(x).denominator
    q, r = divmod(n, d)
    if 2 * r >= d:
        q += 1
    return sign * q


# CPython refuses int->str conversions of more than 4300 digits by default;
# longer integers are rendered in pieces of at most this many digits.
_STR_CHUNK = 4000


def _digits(n, width=1):
    """Decimal digits of the integer n >= 0, zero-padded to `width`.

    Splits n by a power of ten (divide and conquer) until each piece fits
    in one int->str conversion.  The digit count is over-estimated from the
    bit length, using log10(2) < 0.30103.
    """
    size = max(width, n.bit_length() * 30103 // 100000 + 1)
    if size <= _STR_CHUNK:
        return f"{n:0{width}d}"
    low = size // 2
    high, rest = divmod(n, 10 ** low)
    return _digits(high, max(width - low, 1)) + _digits(rest, low)


def int_from_digits(text):
    """Integer value of a string of decimal digits, of any length.

    The inverse of `_digits`: a string too long for one str->int conversion
    is split in two, and the halves are read separately and recombined.
    """
    if len(text) <= _STR_CHUNK:
        return int(text)
    low = len(text) // 2
    return int_from_digits(text[:-low]) * 10 ** low + int_from_digits(text[-low:])


def to_decimal(a, digits):
    """Render `a` with exactly `digits` fractional digits.

    Rounding is half-away-from-zero, so |printed value - a| <= 10^-digits / 2.
    A result that rounds to zero is printed without a sign.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    a = Rational(a)
    units = _round_half_away(a * 10 ** digits)
    sign = "-" if units < 0 else ""
    units = abs(units)
    if digits == 0:
        return f"{sign}{_digits(units)}"
    whole, frac = divmod(units, 10 ** digits)
    return f"{sign}{_digits(whole)}.{_digits(frac, digits)}"
