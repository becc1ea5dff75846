"""Oracle-driven least upper bounds: reference harmonic loop and bisection."""

import math
from fractions import Fraction

import pytest

from cauchyreals import (
    NOT_SEPARATED,
    BudgetExceeded,
    DomainError,
    GapCertificate,
    GreaterGap,
    UpperBoundOracle,
    finite_set_oracle,
    find_apartness,
    from_rational,
    lt_witness,
    lub_bisection,
    lub_harmonic,
    run_harmonic_lub,
    sqrt_oracle,
)

from support import assert_regular, assert_within


def sup_at_least(value):
    """Oracle for a set whose least upper bound is `value` (closed boundary)."""
    value = Fraction(value)
    return UpperBoundOracle(query=lambda q: q >= value,
                            description=f"upper bounds of values below {value}")


def counting(oracle):
    """Wrap an oracle, counting queries."""
    calls = {"n": 0}

    def query(q):
        calls["n"] += 1
        return oracle.query(q)

    return UpperBoundOracle(query=query, description=oracle.description), calls


def sqrt_digit_oracle(c, digits):
    """Independent square-root digits: floor(sqrt(c) * 10^digits) by isqrt."""
    return math.isqrt(c * 10 ** (2 * digits))


ALWAYS_YES = UpperBoundOracle(query=lambda q: True, description="empty set")


class TestSqrtOracle:
    def test_decides_squares_exactly(self):
        oracle = sqrt_oracle(2)
        assert oracle(Fraction(3, 2)) is True    # (3/2)^2 = 9/4 >= 2
        assert oracle(Fraction(7, 5)) is False   # (7/5)^2 = 49/25 < 2
        assert oracle(Fraction(-3)) is False     # negatives never dominate

    def test_zero_boundary(self):
        assert sqrt_oracle(0)(Fraction(0)) is True

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            sqrt_oracle(-1)

    def test_monotone_spot_check(self):
        oracle = sqrt_oracle(Fraction(7, 3))
        grid = [Fraction(n, 16) for n in range(-8, 64)]
        answers = [oracle(q) for q in grid]
        # once YES, always YES going up
        assert answers == sorted(answers)


class TestHarmonicMode:
    def test_requires_initial_upper_bound(self):
        with pytest.raises(DomainError):
            lub_harmonic(sup_at_least(Fraction(3, 2)), 1)
        with pytest.raises(ValueError):
            lub_harmonic(sup_at_least(1), Fraction(3, 2))

    def test_singleton(self):
        x = lub_harmonic(sup_at_least(Fraction(1, 2)), 1)
        assert_within(x, Fraction(1, 2), (1, 2, 5, 10, 25))

    def test_sup_equal_to_initial_bound(self):
        x = lub_harmonic(sup_at_least(2), 2)
        assert_within(x, 2, (1, 2, 5, 10, 25))

    def test_sqrt2_against_integer_sqrt(self):
        x = lub_harmonic(sqrt_oracle(2), 2)
        a = x.approx(100)
        truth = Fraction(sqrt_digit_oracle(2, 10), 10 ** 10)  # within 1e-10 of sqrt2
        assert abs(a - truth) <= Fraction(1, 100) + Fraction(1, 10 ** 10)

    def test_budget_exceeded_when_set_is_empty(self):
        x = lub_harmonic(ALWAYS_YES, 1, max_steps=100)
        with pytest.raises(BudgetExceeded):
            x.approx(1)

    def test_regularity(self):
        x = lub_harmonic(sqrt_oracle(2), 2)
        assert_regular(x, ladder=(1, 2, 4, 8, 16, 32))


class TestHarmonicTrace:
    def run(self, precision=5):
        return run_harmonic_lub(sqrt_oracle(2), 2, precision)

    def test_initialization(self):
        run = self.run()
        first = run.steps[0]
        assert first.upper == Fraction(2) and first.step == Fraction(1)

    def test_upper_sequence_non_increasing(self):
        run = self.run()
        uppers = [s.upper for s in run.steps]
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))

    def test_step_law(self):
        run = self.run()
        for before, after in zip(run.steps, run.steps[1:]):
            if before.answer:
                assert after.step == before.step
                assert after.upper == before.upper - before.step
            else:
                assert after.step == 1 / (1 + 1 / before.step)
                assert after.upper == before.upper

    def test_steps_are_non_increasing_unit_fractions(self):
        run = self.run()
        steps = [s.step for s in run.steps]
        assert all(s.numerator == 1 for s in steps)
        assert all(a >= b for a, b in zip(steps, steps[1:]))
        # the i-th refusal happens while the step is exactly 1/i
        for i, refusal in enumerate(run.refusals, start=1):
            assert refusal.step == Fraction(1, i)

    def test_bracket_invariant(self):
        oracle = sqrt_oracle(2)
        run = self.run()
        # every accepted descent keeps the upper bound an upper bound,
        # and every refusal really was refused
        for step in run.steps:
            assert oracle(step.upper) is True
            assert oracle(step.upper - step.step) is step.answer
        assert run.bracket_ok()

    def test_result_within_budget(self):
        for precision in (1, 2, 10, 25):
            run = run_harmonic_lub(sqrt_oracle(2), 2, precision)
            truth = Fraction(sqrt_digit_oracle(2, 10), 10 ** 10)
            assert abs(run.result - truth) <= Fraction(1, precision) + Fraction(1, 10 ** 10)


class TestBisectionMode:
    def test_requires_initial_upper_bound(self):
        with pytest.raises(DomainError):
            lub_bisection(sup_at_least(3), 2)

    def test_thirty_digits_of_sqrt2_in_bounded_queries(self):
        oracle, calls = counting(sqrt_oracle(2))
        x = lub_bisection(oracle, 2)
        printed = x.decimal(30)
        assert calls["n"] <= 120
        want = str(sqrt_digit_oracle(2, 30))
        got = printed.replace(".", "").lstrip("0")
        assert abs(int(got) - int(want)) <= 1  # one ulp in the last digit

    def test_perfect_square(self):
        x = lub_bisection(sqrt_oracle(4), 3)
        assert_within(x, 2, (1, 10, 100, 10 ** 4))

    def test_finite_set_max(self):
        b = [from_rational(Fraction(1, 3)), from_rational(Fraction(1, 2)),
             from_rational(Fraction(2, 5))]
        x = lub_bisection(finite_set_oracle(b, 10 ** 12), 1)
        assert abs(x.approx(10 ** 12) - Fraction(1, 2)) <= Fraction(3, 10 ** 12)

    def test_budget_exceeded_when_set_is_empty(self):
        x = lub_bisection(ALWAYS_YES, 1, descent_budget=16)
        with pytest.raises(BudgetExceeded):
            x.approx(1)

    def test_regularity(self):
        assert_regular(lub_bisection(sqrt_oracle(2), 2))


class TestModeEquivalence:
    @pytest.mark.parametrize("make_oracle,upper", [
        (lambda: sqrt_oracle(2), 2),
        (lambda: sqrt_oracle(Fraction(1, 2)), 1),
        (lambda: sup_at_least(Fraction(7, 5)), 2),
        (lambda: finite_set_oracle([from_rational(Fraction(1, 3)),
                                    from_rational(Fraction(2, 5))], 10 ** 6), 1),
    ])
    def test_same_value_both_modes(self, make_oracle, upper):
        slow = lub_harmonic(make_oracle(), upper)
        fast = lub_bisection(make_oracle(), upper)
        for k in (1, 2, 5, 10, 25, 50):
            assert abs(slow.approx(k) - fast.approx(k)) <= Fraction(2, k)


class TestLeastness:
    def test_rationals_below_are_not_upper_bounds(self):
        oracle = sqrt_oracle(2)
        x = lub_bisection(oracle, 2)
        for c in [Fraction(1), Fraction(7, 5), Fraction(141, 100), Fraction(1414, 1000)]:
            witness = lt_witness(from_rational(c), x, 2 ** 12)
            if isinstance(witness, GapCertificate):
                assert oracle(c) is False

    def test_accepted_rationals_dominate(self):
        oracle = sqrt_oracle(2)
        x = lub_bisection(oracle, 2)
        for n in range(16, 33):
            q = Fraction(n, 16)
            if oracle(q):
                # no certificate may ever place E(q) strictly below x
                assert not isinstance(lt_witness(from_rational(q), x, 2 ** 12),
                                      GapCertificate)


class TestFiniteSetOracle:
    def test_examples(self):
        oracle = finite_set_oracle([from_rational(Fraction(1, 2))], 10 ** 6)
        assert oracle(Fraction(1, 2)) is True
        assert oracle(Fraction(0)) is False

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            finite_set_oracle([], 10)

    def test_equivalent_elements_give_close_lubs(self):
        from support import drifting
        x = lub_bisection(finite_set_oracle([from_rational(Fraction(1, 3))], 10 ** 6), 1)
        y = lub_bisection(finite_set_oracle([drifting(Fraction(1, 3))], 10 ** 6), 1)
        k = 10 ** 6
        assert abs(x.approx(k) - y.approx(k)) <= Fraction(2, 10 ** 6) + Fraction(2, k)

    def test_monotone_spot_check(self):
        oracle = finite_set_oracle([from_rational(Fraction(2, 7))], 1000)
        grid = [Fraction(n, 32) for n in range(-16, 32)]
        answers = [oracle(q) for q in grid]
        assert answers == sorted(answers)


class TestApartnessIntegration:
    def test_sqrt2_is_separated_from_zero(self):
        w = find_apartness(lub_bisection(sqrt_oracle(2), 2), 64)
        assert w is not NOT_SEPARATED
        assert Fraction(1, w.k0) <= Fraction(3, 2)  # 1/k0 is a true lower bound
