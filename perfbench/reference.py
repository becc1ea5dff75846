"""Independent reference for the benchmark's outputs.

Nothing here imports the program.  Expressions are small trees of tuples:

    ("lit", Fraction)        ("sqrt", node)
    ("sum", [nodes])         ("prod", [nodes])
    ("sub", a, b)            ("div", a, b)
    ("max", [nodes])

`enclose(node, bits)` returns an interval [lo, hi] of Fractions that is
guaranteed to contain the exact value.  Rational subtrees are evaluated
exactly; a square root of an inexact value is bounded by `math.isqrt` on the
operand scaled by 4^bits, and inexact endpoints are rounded outward to the
2^-bits grid so their size stays bounded.  Checks refine the working
precision until the interval proves or refutes the claim.
"""

import math
import re
from fractions import Fraction

# Working precisions tried in turn: guard bits above what the claim needs.
_GUARD_BITS = (64, 256, 1024, 4096)


class Undetermined(Exception):
    """The interval at this precision neither proves nor refutes a claim."""


def _floor_dyadic(q, bits):
    return Fraction(q.numerator * (1 << bits) // q.denominator, 1 << bits)


def _ceil_dyadic(q, bits):
    return Fraction(-(-q.numerator * (1 << bits) // q.denominator), 1 << bits)


def _isqrt_floor(q, bits):
    """Largest multiple of 2^-bits that is <= sqrt(q), for q >= 0."""
    scaled = q.numerator * (1 << (2 * bits)) // q.denominator
    return Fraction(math.isqrt(scaled), 1 << bits)


def _isqrt_ceil(q, bits):
    """A multiple of 2^-bits that is >= sqrt(q), for q >= 0."""
    scaled = -(-q.numerator * (1 << (2 * bits)) // q.denominator)
    root = math.isqrt(scaled)
    if root * root < scaled:
        root += 1
    return Fraction(root, 1 << bits)


def _round_out(lo, hi, bits):
    if lo == hi:
        return lo, hi
    return _floor_dyadic(lo, bits), _ceil_dyadic(hi, bits)


def _mul(a, b, bits):
    products = [x * y for x in a for y in b]
    return _round_out(min(products), max(products), bits)


def enclose(node, bits):
    """Interval (lo, hi) containing the value of `node`.

    Raises ZeroDivisionError when a denominator is exactly zero and
    Undetermined when a denominator or radicand interval straddles zero at
    this precision.
    """
    kind = node[0]
    if kind == "lit":
        return node[1], node[1]
    if kind == "sum":
        lo = hi = Fraction(0)
        for child in node[1]:
            clo, chi = enclose(child, bits)
            lo, hi = lo + clo, hi + chi
        return _round_out(lo, hi, bits)
    if kind == "prod":
        acc = (Fraction(1), Fraction(1))
        for child in node[1]:
            acc = _mul(acc, enclose(child, bits), bits)
        return acc
    if kind == "sub":
        alo, ahi = enclose(node[1], bits)
        blo, bhi = enclose(node[2], bits)
        return _round_out(alo - bhi, ahi - blo, bits)
    if kind == "div":
        num = enclose(node[1], bits)
        dlo, dhi = enclose(node[2], bits)
        if dlo == dhi == 0:
            raise ZeroDivisionError("denominator is exactly zero")
        if dlo <= 0 <= dhi:
            raise Undetermined("denominator interval contains zero")
        return _mul(num, (1 / dhi, 1 / dlo), bits)
    if kind == "max":
        bounds = [enclose(child, bits) for child in node[1]]
        return max(lo for lo, _ in bounds), max(hi for _, hi in bounds)
    if kind == "sqrt":
        lo, hi = enclose(node[1], bits)
        if hi < 0:
            raise ValueError("negative radicand")
        if lo < 0:
            raise Undetermined("radicand interval contains zero")
        if lo == hi:
            root_num = math.isqrt(lo.numerator)
            root_den = math.isqrt(lo.denominator)
            if root_num ** 2 == lo.numerator and root_den ** 2 == lo.denominator:
                exact = Fraction(root_num, root_den)
                return exact, exact
        return _isqrt_floor(lo, bits), _isqrt_ceil(hi, bits)
    raise TypeError(f"unknown node kind {kind!r}")


def decide(claim, base_bits):
    """Evaluate `claim(bits)` at rising precision.

    `claim` returns True (proved), False (refuted) or None (undetermined);
    Undetermined raised inside counts as None.  Returns None if no precision
    settles it.
    """
    for guard in _GUARD_BITS:
        try:
            verdict = claim(base_bits + guard)
        except Undetermined:
            verdict = None
        if verdict is not None:
            return verdict
    return None


def bits_for(tolerance):
    """Binary digits needed to resolve a tolerance (a positive Fraction)."""
    return max(1, (tolerance.denominator // tolerance.numerator).bit_length())


# -- decimal strings ----------------------------------------------------------

_DECIMAL = re.compile(r"\A(-?)(\d+)(?:\.(\d+))?\Z")
_CHUNK = 1000  # stays below CPython's int/str conversion limit


def _int_from_digits(digits):
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def parse_decimal(text, digits):
    """Exact value of a printed decimal with exactly `digits` fractional
    digits, or None if the text is not such a decimal."""
    m = _DECIMAL.match(text)
    if m is None:
        return None
    sign, whole, frac = m.groups()
    frac = frac or ""
    if len(frac) != digits:
        return None
    value = Fraction(_int_from_digits(whole + frac), 10 ** digits)
    return -value if sign else value


def check_within(node, value, tol):
    """True iff |value - value of node| <= tol is proved.  An unsettled check
    returns False: an unverified output is not a correct one."""

    def claim(bits):
        lo, hi = enclose(node, bits)
        if value - lo <= tol and hi - value <= tol:
            return True
        if value - hi > tol or lo - value > tol:
            return False
        return None

    return bool(decide(claim, bits_for(tol)))


def check_decimal(node, text, digits):
    """True iff `text` is a decimal within 10^-digits of the value of node."""
    value = parse_decimal(text, digits)
    if value is None:
        return False
    return check_within(node, value, Fraction(1, 10 ** digits))


def check_verdict(left, right, verdict, k):
    """True iff the compare verdict is proved: LESS means x < y, GREATER
    means x > y, CLOSE means |x - y| <= 1/k."""
    tol = Fraction(1, k)

    def claim(bits):
        xlo, xhi = enclose(left, bits)
        ylo, yhi = enclose(right, bits)
        if verdict == "LESS":
            return True if xhi < ylo else (False if xlo >= yhi else None)
        if verdict == "GREATER":
            return True if xlo > yhi else (False if xhi <= ylo else None)
        if verdict == "CLOSE":
            if xhi - ylo <= tol and yhi - xlo <= tol:
                return True
            if xlo - yhi > tol or ylo - xhi > tol:
                return False
            return None
        return False

    return bool(decide(claim, bits_for(tol)))


def check_abs_at_most(node, bound):
    """True iff |value of node| <= bound is proved."""

    def claim(bits):
        try:
            lo, hi = enclose(node, bits)
        except ZeroDivisionError:
            return False
        if max(abs(lo), abs(hi)) <= bound:
            return True
        if lo > bound or hi < -bound:
            return False
        return None

    return bool(decide(claim, bits_for(bound)))


def check_abs_at_least(node, bound):
    """True iff |value of node| >= bound is proved."""

    def claim(bits):
        lo, hi = enclose(node, bits)
        if lo >= bound or hi <= -bound:
            return True
        if -bound < lo and hi < bound:
            return False
        return None

    return bool(decide(claim, bits_for(bound)))


def check_gap(lower, upper, gap):
    """True iff upper - lower > gap is proved."""

    def claim(bits):
        llo, lhi = enclose(lower, bits)
        ulo, uhi = enclose(upper, bits)
        if ulo - lhi > gap:
            return True
        if uhi - llo <= gap:
            return False
        return None

    return bool(decide(claim, bits_for(gap)))
