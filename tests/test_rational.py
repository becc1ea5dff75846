"""Canonical rationals: construction, exact field/order laws, decimal output."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cauchyreals import DomainError, ParseError, parse_rational, to_decimal
from cauchyreals.rational import int_from_digits

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def long_division(num, den, digits):
    """Independent decimal oracle: digit-by-digit long division of |num|/den,
    rounding the last digit half-away-from-zero."""
    assert den > 0
    sign = "-" if num < 0 else ""
    num = abs(num)
    whole, rem = divmod(num, den)
    if digits == 0:
        if 2 * rem >= den:
            whole += 1
        return f"{sign}{whole}" if whole else "0"
    out = []
    for _ in range(digits):
        rem *= 10
        d, rem = divmod(rem, den)
        out.append(d)
    if 2 * rem >= den:  # round the final digit, propagating carries
        i = len(out) - 1
        while i >= 0:
            out[i] += 1
            if out[i] < 10:
                break
            out[i] = 0
            i -= 1
        else:
            whole += 1
    frac = "".join(str(d) for d in out)
    if not whole and not any(out):
        sign = ""
    return f"{sign}{whole}.{frac}"


class TestMake:
    """Rational(n, d) is already canonical: nothing wraps the constructor."""

    def test_canonicalizes(self):
        assert Fraction(2, 4) == Fraction(1, 2)

    def test_normalizes_sign(self):
        q = Fraction(3, -6)
        assert q == Fraction(-1, 2)
        assert q.denominator == 2

    def test_zero(self):
        q = Fraction(0, 7)
        assert q.numerator == 0 and q.denominator == 1

    @given(n=st.integers(-10 ** 12, 10 ** 12),
           d=st.integers(-10 ** 12, 10 ** 12).filter(lambda d: d != 0))
    def test_canonical_invariant(self, n, d):
        q = Fraction(n, d)
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1


class TestArith:
    """Rational operators are exact and keep the canonical form."""

    @given(n=st.integers(1, 10 ** 6), m=st.integers(1, 10 ** 6))
    def test_reciprocal_pairs_multiply_to_one(self, n, m):
        assert Fraction(m, n) * Fraction(n, m) == 1

    @given(a=rationals, b=rationals, c=rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a

    @given(a=nonzero_rationals)
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1

    @given(a=rationals, b=rationals, c=rationals)
    def test_order_axioms(self, a, b, c):
        if a < b:
            assert a + c < b + c
        if a > 0 and b > 0:
            assert a * b > 0

    @given(a=rationals, b=rationals)
    def test_trichotomy_is_exact(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(a=rationals, b=rationals,
           op=st.sampled_from([operator.add, operator.sub, operator.mul,
                               operator.truediv]))
    def test_results_stay_canonical(self, a, b, op):
        if op is operator.truediv and b == 0:
            return
        q = op(a, b)
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1


class TestIntFromDigits:
    @pytest.mark.parametrize("length", [1, 4000, 4001, 4300, 4301, 5000, 12345])
    def test_repunits_past_the_str_to_int_limit(self, length):
        # independent value: the repunit of n ones is (10^n - 1) / 9
        assert int_from_digits("1" * length) == (10 ** length - 1) // 9

    @given(n=st.integers(0, 10 ** 30), pad=st.integers(0, 5000))
    def test_leading_zeros_and_round_trip(self, n, pad):
        assert int_from_digits("0" * pad + str(n)) == n


class TestToDecimal:
    def test_third(self):
        assert to_decimal(Fraction(1, 3), 4) == "0.3333"

    def test_tie_rounds_away_from_zero(self):
        assert to_decimal(Fraction(1, 2), 0) == "1"
        assert to_decimal(Fraction(-1, 2), 0) == "-1"
        assert to_decimal(Fraction(25, 1000), 2) == "0.03"
        assert to_decimal(Fraction(-25, 1000), 2) == "-0.03"

    def test_pi_approximation_against_long_division(self):
        assert to_decimal(Fraction(-22, 7), 3) == long_division(-22, 7, 3)
        assert to_decimal(Fraction(-22, 7), 3) == "-3.143"

    def test_no_negative_zero(self):
        assert to_decimal(Fraction(-1, 10 ** 9), 3) == "0.000"

    @given(q=rationals, digits=st.integers(0, 12))
    def test_matches_long_division_oracle(self, q, digits):
        assert to_decimal(q, digits) == long_division(q.numerator, q.denominator, digits)

    def test_negative_digits_rejected(self):
        with pytest.raises(ValueError):
            to_decimal(Fraction(1), -1)

    @pytest.mark.parametrize("digits", [3999, 4000, 4001, 4300, 4301, 9000])
    def test_past_the_int_to_str_limit(self, digits):
        for q in (Fraction(1, 7), Fraction(-22, 7), Fraction(2, 3)):
            assert to_decimal(q, digits) == long_division(
                q.numerator, q.denominator, digits)

    def test_whole_part_past_the_int_to_str_limit(self):
        # (10^5000 + 1)/3 = 33...3 (5000 threes) + 2/3
        assert to_decimal(Fraction(10 ** 5000 + 1, 3), 2) == "3" * 5000 + ".67"
        assert to_decimal(Fraction(-(10 ** 5000) - 1, 3), 0) == "-" + "3" * 4999 + "4"


class TestParseRational:
    @pytest.mark.parametrize("text,value", [
        ("3", Fraction(3)),
        ("-3", Fraction(-3)),
        ("22/7", Fraction(22, 7)),
        ("-22/7", Fraction(-22, 7)),
        ("2.71828", Fraction(271828, 100000)),
        ("-0.5", Fraction(-1, 2)),
        ("0", Fraction(0)),
    ])
    def test_literals(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "1/", "/2", "1.2.3", "1e5", "+3", "a", "1 / 2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            parse_rational("1/0")

    @given(digit=st.characters(categories=("Nd",),
                               exclude_characters="0123456789"),
           before=st.text("0123456789", max_size=3),
           after=st.text("0123456789", max_size=3),
           form=st.sampled_from(["{}", "-{}", "1/{}", "{}/7", "1.{}", "{}.5"]))
    def test_rejects_non_ascii_digits(self, digit, before, after, form):
        with pytest.raises(ParseError):
            parse_rational(form.format(before + digit + after))

    @given(q=rationals)
    def test_fraction_round_trip(self, q):
        assert parse_rational(f"{q.numerator}/{q.denominator}") == q

    @given(q=rationals, digits=st.integers(0, 10))
    def test_decimal_round_trip_within_accuracy(self, q, digits):
        assert abs(parse_rational(to_decimal(q, digits)) - q) <= Fraction(1, 10 ** digits)

    def test_literals_past_the_str_to_int_limit(self):
        ones = (10 ** 5000 - 1) // 9
        assert parse_rational("1" * 5000) == ones
        assert parse_rational("-" + "1" * 5000 + "/3") == Fraction(-ones, 3)
        assert parse_rational("0." + "1" * 5000) == Fraction(ones, 10 ** 5000)
