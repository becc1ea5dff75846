"""Shared helpers for the test suite."""

import math
from fractions import Fraction

from cauchyreals import from_sequence

# Default precision ladder for regularity checks: powers of two up to 2^16.
LADDER = tuple(2 ** i for i in range(17))


def assert_regular(x, ladder=LADDER):
    """Pairwise regularity: |approx(j) - approx(k)| <= 1/j + 1/k."""
    values = {k: x.approx(k) for k in ladder}
    for j in ladder:
        for k in ladder:
            bound = Fraction(1, j) + Fraction(1, k)
            assert abs(values[j] - values[k]) <= bound, (
                f"approx({j})={values[j]} vs approx({k})={values[k]} "
                f"violates regularity")


def assert_within(x, target, ladder, slack=1):
    """|approx(k) - target| <= slack/k along the ladder."""
    target = Fraction(target)
    for k in ladder:
        a = x.approx(k)
        assert abs(a - target) <= Fraction(slack, k), (
            f"approx({k})={a} is not within {slack}/{k} of {target}")


def harmonic_to_zero():
    """The sequence 1/n with its natural modulus; converges to 0."""
    return from_sequence(lambda n: Fraction(1, n), lambda k: 2 * k)


def drifting(q, wobble=1):
    """A non-constant representation of the rational q: q + wobble*(-1)^n/n."""
    q = Fraction(q)
    return from_sequence(
        lambda n: q + Fraction(wobble * (-1) ** n, n),
        lambda k: 2 * wobble * k,
    )


def geometric_to_two():
    """Partial sums of 1 + 1/2 + 1/4 + ...; converges to 2."""

    def seq(n):
        # closed form of the partial sum through term n
        return 2 - Fraction(1, 2 ** n)

    def modulus(k):
        # ceil(log2 k) + 1, so tail differences are below 1/(2k)
        return (k - 1).bit_length() + 1

    return from_sequence(seq, modulus)


def digits_to_int(text):
    """Integer from a string of decimal digits of any length.

    Reads the digits in pieces, so it works past CPython's int<-str limit
    without changing it.
    """
    value = 0
    for i in range(0, len(text), 1000):
        piece = text[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


# -- an independent evaluator for expression trees -----------------------------
# A tree is ("lit", q) for a rational q >= 0, ("sqrt", q) for the root of a
# rational q > 0, or ("chain", kind, [(op, tree), ...]) for a run of '+'/'-'
# (kind "+") or '*'/'/' (kind "*") whose first op is kind itself.  Values are
# closed intervals of Fractions: exact rationals have lo == hi, and a root is
# bracketed by integer square roots of the scaled radicand, rounded outward.


class DivisorMeetsZero(Exception):
    """A divisor's interval contains zero."""

    def __init__(self, lo, hi):
        super().__init__(f"divisor in [{lo}, {hi}]")
        self.lo, self.hi = lo, hi


def _root_interval(q, bits):
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        root = Fraction(num, den)
        return root, root
    m = math.isqrt(q.numerator * 4 ** bits // q.denominator)
    return Fraction(m, 2 ** bits), Fraction(m + 1, 2 ** bits)


def tree_interval(tree, bits, divisors):
    """Interval holding the value of tree, with roots bracketed to 2^-bits.

    Appends the interval of every divisor, in evaluation order, to
    `divisors`, and raises DivisorMeetsZero at the first one holding 0.
    """
    tag = tree[0]
    if tag == "lit":
        return tree[1], tree[1]
    if tag == "sqrt":
        return _root_interval(tree[1], bits)
    _, kind, items = tree
    lo = hi = Fraction(1 if kind == "*" else 0)
    for op, sub in items:
        a, b = tree_interval(sub, bits, divisors)
        if op == "+":
            lo, hi = lo + a, hi + b
        elif op == "-":
            lo, hi = lo - b, hi - a
        else:
            if op == "/":
                divisors.append((a, b))
                if a <= 0 <= b:
                    raise DivisorMeetsZero(a, b)
                a, b = 1 / b, 1 / a
            ends = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(ends), max(ends)
    return lo, hi


def tree_reference(tree, width=Fraction(1, 10 ** 25), max_bits=4096):
    """(lo, hi, divisors) with hi - lo < width, refining the roots until
    it holds, or DivisorMeetsZero once a divisor's interval holding zero is
    narrower than `width`."""
    bits = 64
    while True:
        divisors = []
        try:
            lo, hi = tree_interval(tree, bits, divisors)
        except DivisorMeetsZero as exc:
            if exc.hi - exc.lo < width or bits >= max_bits:
                raise
        else:
            if hi - lo < width:
                return lo, hi, divisors
        if bits >= max_bits:
            raise AssertionError(f"no interval narrower than {width} at {bits} bits")
        bits *= 2
