"""Shared helpers for the test suite."""

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
