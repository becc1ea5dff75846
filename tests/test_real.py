"""Reals as approximation procedures: regularity, arithmetic budgets,
witnesses, three-valued comparison."""

import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyreals import (
    INDISTINGUISHABLE,
    NOT_SEPARATED,
    ONE,
    ZERO,
    ApartnessWitness,
    DivisionNotSeparated,
    DomainError,
    GapCertificate,
    GreaterGap,
    Real,
    Verdict,
    WitnessInvalid,
    divide,
    finite_set_oracle,
    find_apartness,
    from_rational,
    from_sequence,
    lt_witness,
    lub_bisection,
    maximum,
    minimum,
    reciprocal,
    separate,
    sqrt_oracle,
)
from cauchyreals.extension import (RationalDomain, UCFunction, close_to_witness,
                                   eps_minimizer)
from cauchyreals.real import _sum_of_multiples, product_of, sum_of
from support import LADDER, assert_regular, assert_within, drifting, geometric_to_two, harmonic_to_zero

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 4)
counts = st.integers(1, 5)
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 2 ** 61 - 1]

SQRT2 = lub_bisection(sqrt_oracle(2), 2)


class TestFromRational:
    def test_constant_at_every_precision(self):
        one = from_rational(Fraction(1))
        for k in (1, 7, 10 ** 6):
            assert one.approx(k) == 1

    def test_zero(self):
        assert from_rational(0).approx(123) == 0

    def test_large_precision_is_cheap(self):
        assert from_rational(Fraction(5, 6)).approx(10 ** 6) == Fraction(5, 6)

    def test_rejects_floats(self):
        with pytest.raises(DomainError):
            from_rational(0.5)

    def test_exact_value_exposed(self):
        assert from_rational(Fraction(3, 7)).exact_value() == Fraction(3, 7)
        assert SQRT2.exact_value() is None


class TestFromSequence:
    def test_harmonic_converges_to_zero(self):
        x = harmonic_to_zero()
        assert_regular(x)
        assert_within(x, 0, LADDER)

    def test_geometric_matches_closed_form(self):
        x = geometric_to_two()
        # oracle: the partial sum used at precision k is 2 - 2^-(modulus(2k))
        for k in LADDER:
            n0 = (2 * k - 1).bit_length() + 1
            assert x.approx(k) == 2 - Fraction(1, 2 ** n0)
        assert_within(x, 2, LADDER)

    def test_constant_sequence_behaves_as_rational(self):
        x = from_sequence(lambda n: Fraction(3, 7), lambda k: 1)
        for k in (1, 2, 1000):
            assert x.approx(k) == Fraction(3, 7)

    def test_indexing_contract(self):
        calls = []

        def seq(n):
            calls.append(n)
            return Fraction(1, n)

        x = from_sequence(seq, lambda k: 2 * k)
        assert x.approx(5) == Fraction(1, 20)  # seq evaluated at modulus(10) = 20
        assert calls == [20]

    def test_lying_modulus_surfaces_as_regularity_failure(self):
        # A modulus that claims 1/n settles eight times sooner than it does:
        # the pairwise regularity check must catch the contract violation.
        liar = from_sequence(lambda n: Fraction(1, n), lambda k: max(1, k // 8))
        with pytest.raises(AssertionError):
            assert_regular(liar, ladder=(1, 8, 64))

    def test_bad_modulus_value(self):
        x = from_sequence(lambda n: Fraction(0), lambda k: 0)
        with pytest.raises(ValueError):
            x.approx(1)


class TestApproxDiscipline:
    def test_precision_must_be_positive_int(self):
        for bad in (0, -1, 2.0, True):
            with pytest.raises(ValueError):
                SQRT2.approx(bad)

    def test_memoized_and_deterministic(self):
        x = lub_bisection(sqrt_oracle(3), 2)
        first = x.approx(1000)
        assert x.approx(1000) == first
        # lower precision after higher recomputes but stays deterministic
        low1 = x.approx(10)
        assert x.approx(10) == low1

    def test_concurrent_calls_agree(self):
        x = lub_bisection(sqrt_oracle(5), 3)
        ks = [2 ** i for i in range(12)] * 4
        rng = random.Random(0)
        rng.shuffle(ks)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda k: (k, x.approx(k)), ks))
        by_k = {}
        for k, v in results:
            assert by_k.setdefault(k, v) == v
        assert_regular(x, ladder=sorted(set(k for k, _ in results)))


class TestAddNegSub:
    def test_add_rationals(self):
        x = from_rational(Fraction(1, 2)) + from_rational(Fraction(1, 3))
        assert_within(x, Fraction(5, 6), LADDER)

    def test_add_requests_double_precision(self):
        x, y = drifting(Fraction(1, 2)), drifting(Fraction(1, 3), wobble=2)
        s = x + y
        for k in (1, 3, 10, 97):
            assert s.approx(k) == x.approx(2 * k) + y.approx(2 * k)

    def test_additive_inverse(self):
        rng = random.Random(7)
        for _ in range(20):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            x = drifting(q)
            assert_within(x + (-x), 0, (1, 10, 100, 1000))

    def test_zero_is_neutral_up_to_closeness(self):
        x = drifting(Fraction(9, 4))
        s = x + ZERO
        for k in (1, 10, 100):
            assert s.approx(k) == x.approx(2 * k)
            assert abs(s.approx(k) - x.approx(k)) <= Fraction(2, k)

    def test_sub_via_negation(self):
        d = from_rational(Fraction(1, 2)) - from_rational(Fraction(1, 3))
        assert_within(d, Fraction(1, 6), LADDER)

    def test_coercion_from_ints_and_rationals(self):
        x = 1 + drifting(Fraction(1, 2)) - Fraction(1, 4)
        assert_within(x, Fraction(5, 4), (1, 10, 100))
        with pytest.raises(DomainError):
            SQRT2 + 0.5


class TestBound:
    def test_formula_examples(self):
        # oracle: ceil(|approx(1)|) + 2 evaluated independently
        assert from_rational(Fraction(3, 2)).bound() == math.ceil(1.5) + 2 == 4
        assert ZERO.bound() == 2
        x = from_sequence(lambda n: Fraction(-7, 2), lambda k: 1)
        assert x.bound() == math.ceil(3.5) + 2 == 6

    @given(q=rationals)
    def test_bound_dominates_every_approximation(self, q):
        x = drifting(q)
        b = x.bound()
        for k in (1, 2, 16, 256):
            assert abs(x.approx(k)) <= b


class TestMul:
    def test_reciprocal_rationals(self):
        x = from_rational(Fraction(2, 3)) * from_rational(Fraction(3, 2))
        assert_within(x, 1, LADDER)

    def test_annihilation(self):
        rng = random.Random(11)
        for _ in range(10):
            q = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            assert_within(drifting(q) * ZERO, 0, (1, 10, 100))

    def test_sqrt2_squared(self):
        x = SQRT2 * SQRT2
        ks = [2 ** i for i in range(14)] + [10 ** 4]
        assert_within(x, 2, ks, slack=2)

    def test_requests_scaled_precision(self):
        x, y = drifting(Fraction(5, 2)), drifting(Fraction(-3, 2))
        p = x * y
        scale = max(x.bound(), y.bound())
        for k in (1, 10, 100):
            m = 2 * scale * k
            assert p.approx(k) == x.approx(m) * y.approx(m)


def recording(q, asked):
    """q + (-1)^n/n through from_sequence, appending to `asked` every
    precision k it computes (from_sequence reads its modulus at 2k)."""

    def modulus(j):
        asked.append(j // 2)
        return 2 * j

    return from_sequence(lambda n: q + Fraction((-1) ** n, n), modulus)


class TestSumOf:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_each_term_is_read_at_n_k(self, n):
        logs = [[] for _ in range(n)]
        terms = [recording(Fraction(i - 3, i + 2), log) for i, log in enumerate(logs)]
        s = sum_of(terms)
        for k in (1, 3, 10, 97):
            value = s.approx(k)
            assert logs == [[n * k]] * n
            assert value == sum(x.approx(n * k) for x in terms)
            for log in logs:
                log.clear()

    def test_exact_terms_count_and_are_folded(self):
        asked = []
        x = recording(Fraction(9, 4), asked)
        s = sum_of([Fraction(1, 3), x, 2, Fraction(1, 6)])
        assert s.approx(5) == x.approx(20) + Fraction(5, 2)
        assert asked == [20]
        assert sum_of([Fraction(1, 3), 2, Fraction(1, 6)]).exact_value() == Fraction(5, 2)

    def test_a_repeated_term_is_read_once(self):
        asked_x, asked_y = [], []
        x, y = recording(Fraction(1, 2), asked_x), recording(Fraction(2, 3), asked_y)
        s = sum_of([x, y, x, x])
        assert s.approx(10) == 3 * x.approx(40) + y.approx(40)
        assert (asked_x, asked_y) == ([40], [40])

    @given(qs=st.lists(rationals, min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_within_one_over_k(self, qs):
        s = sum_of([drifting(q) for q in qs])
        assert_within(s, sum(qs), (1, 7, 100, 12345))

    @given(pairs=st.one_of(
        # one pair
        st.lists(st.tuples(rationals, counts), min_size=1, max_size=1),
        # one dyadic denominator, as readings of roots at one precision have
        st.integers(1, 40).flatmap(lambda e: st.lists(
            st.tuples(st.integers(-10 ** 15, 10 ** 15).map(
                lambda m: Fraction(2 * m + 1, 1 << e)), counts),
            min_size=2, max_size=12)),
        # pairwise coprime denominators
        st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.sampled_from(PRIMES),
                           counts),
                 min_size=2, max_size=8, unique_by=lambda t: t[1]).map(
            lambda ts: [(Fraction(n, p), c) for n, p, c in ts]),
        # anything
        st.lists(st.tuples(rationals, counts), min_size=2, max_size=12),
    ))
    @settings(max_examples=150, deadline=None)
    def test_sum_of_multiples_is_the_fraction_sum(self, pairs):
        value = _sum_of_multiples(pairs)
        assert type(value) is Fraction
        assert value == sum(c * q for q, c in pairs)


class TestProductOf:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_each_factor_is_read_at_n_k_l_power(self, n):
        logs = [[] for _ in range(n)]
        factors = [recording(Fraction(3 * i - 5, 2), log) for i, log in enumerate(logs)]
        scale = max(x.bound() for x in factors)
        for log in logs:
            log.clear()
        p = product_of(factors)
        # (k = 1 with n = 1 asks for precision 1, which bound() has read)
        for k in (2, 3, 10, 97):
            value = p.approx(k)
            m = n * k * scale ** (n - 1)
            assert logs == [[m]] * n
            expected = 1
            for x in factors:
                expected *= x.approx(m)
            assert value == expected
            for log in logs:
                log.clear()

    def test_bounds_are_taken_once_on_the_first_approx(self):
        asked = []
        x = recording(Fraction(7, 2), asked)
        p = product_of([x, x, Fraction(1, 2)])
        assert asked == []
        p.approx(1)
        assert asked[0] == 1
        asked.clear()
        p.approx(2)
        assert asked == [3 * 2 * x.bound() ** 2]

    def test_exact_factors_count_and_are_folded(self):
        asked = []
        x = recording(Fraction(1, 2), asked)
        p = product_of([3, x, Fraction(1, 3)])
        # L = max(bound(3), bound(x), bound(1/3)) = 5
        assert p.approx(7) == x.approx(3 * 7 * 25)
        assert product_of([3, Fraction(1, 3), 5]).exact_value() == 5
        assert product_of([3, 0, 5]).exact_value() == 0
        assert product_of([x, 0]).approx(9) == 0

    @given(qs=st.lists(rationals, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_within_one_over_k(self, qs):
        p = product_of([drifting(q) for q in qs])
        expected = 1
        for q in qs:
            expected *= q
        assert_within(p, expected, (1, 7, 100, 12345))


class TestFindApartness:
    def test_separated_rational(self):
        w = find_apartness(from_rational(Fraction(1, 2)), 64)
        assert isinstance(w, ApartnessWitness)
        assert Fraction(1, w.k0) <= Fraction(1, 2)
        assert w.check(from_rational(Fraction(1, 2)))

    def test_zero_not_separated(self):
        assert find_apartness(ZERO, 64) is NOT_SEPARATED

    def test_vanishing_sequence_not_separated(self):
        assert find_apartness(harmonic_to_zero(), 64) is NOT_SEPARATED

    def test_not_separated_bound(self):
        # |x| = 1/100 <= 3/64 is allowed to be missed at budget 64 ...
        x = from_rational(Fraction(1, 100))
        result = find_apartness(x, 64)
        if result is NOT_SEPARATED:
            assert Fraction(1, 100) <= Fraction(3, 64)
        # ... but must be found once the budget passes 3/|x|
        w = find_apartness(x, 1024)
        assert isinstance(w, ApartnessWitness)
        assert Fraction(1, w.k0) <= Fraction(1, 100)

    def test_budget_need_not_be_power_of_two(self):
        assert find_apartness(ZERO, 100) is NOT_SEPARATED


class TestReciprocal:
    def test_rational_examples(self):
        two = from_rational(Fraction(2))
        w = find_apartness(two, 64)
        assert_within(reciprocal(two, w), Fraction(1, 2), LADDER)

        neg_third = from_rational(Fraction(-1, 3))
        w = find_apartness(neg_third, 64)
        assert_within(reciprocal(neg_third, w), -3, LADDER)

    def test_requests_witness_scaled_precision(self):
        x = drifting(Fraction(7, 3))
        w = find_apartness(x, 256)
        r = reciprocal(x, w)
        for k in (1, 10, 100):
            m = max(2 * w.k0, 2 * k * w.k0 * w.k0)
            assert r.approx(k) == 1 / x.approx(m)

    @settings(max_examples=40, deadline=None)
    @given(q=rationals.filter(lambda q: abs(q) >= Fraction(1, 8)))
    def test_inverse_law(self, q):
        x = drifting(q)
        w = find_apartness(x, 64)
        assert isinstance(w, ApartnessWitness)
        product = x * reciprocal(x, w)
        for k in (10, 100, 1000, 10 ** 4):
            assert abs(product.approx(k) - 1) <= Fraction(2, k)

    def test_forged_witness_detected(self):
        w = ApartnessWitness(k0=1)  # claims |x| >= 1 about a tiny number
        bad = reciprocal(from_rational(Fraction(1, 1000)), w)
        with pytest.raises(WitnessInvalid):
            bad.approx(1)


class TestDivide:
    def test_exact_quotient(self):
        x = divide(ONE, from_rational(3))
        assert_within(x, Fraction(1, 3), LADDER)

    def test_operator_form(self):
        assert_within(SQRT2 / SQRT2, 1, (1, 10, 100), slack=2)

    def test_zero_denominator_not_separated(self):
        with pytest.raises(DivisionNotSeparated):
            divide(ONE, ZERO, sep_budget=64)

    def test_vanishing_denominator_not_separated(self):
        with pytest.raises(DivisionNotSeparated):
            divide(ONE, harmonic_to_zero(), sep_budget=64)


class TestSeparate:
    def test_clear_gap(self):
        assert separate(ZERO, ONE, 10) is Verdict.LESS
        assert separate(ONE, ZERO, 10) is Verdict.GREATER

    def test_self_is_close(self):
        for k in (1, 10, 1000):
            assert separate(SQRT2, SQRT2, k) is Verdict.CLOSE

    def test_equivalent_representations_are_close(self):
        x = harmonic_to_zero()
        for k in (1, 10, 100, 10 ** 4):
            assert separate(ZERO, x, k) is Verdict.CLOSE

    def test_close_verdict_bound(self):
        pairs = [(ZERO, harmonic_to_zero()),
                 (from_rational(Fraction(1, 3)), drifting(Fraction(1, 3))),
                 (SQRT2, SQRT2)]
        for x, y in pairs:
            for k in (1, 10, 100):
                if separate(x, y, k) is Verdict.CLOSE:
                    d = y.approx(4 * k) - x.approx(4 * k)
                    assert abs(d) <= Fraction(1, 2 * k)

    def test_verdicts_are_sound(self):
        # exact distances known: 1/3 < 1/2
        a, b = from_rational(Fraction(1, 3)), from_rational(Fraction(1, 2))
        assert separate(a, b, 10) is Verdict.LESS
        assert separate(b, a, 10) is Verdict.GREATER
        assert separate(a, b, 2) is Verdict.CLOSE  # gap 1/6 < 1/(2*2)... not visible


class TestLtWitness:
    def test_certificate_for_true_gap(self):
        a, b = from_rational(Fraction(1, 3)), from_rational(Fraction(1, 2))
        cert = lt_witness(a, b, 64)
        assert isinstance(cert, GapCertificate)
        assert cert.gap <= Fraction(1, 6)  # never overstates the exact gap
        assert cert.check(a, b)

    def test_self_comparison_indistinguishable(self):
        assert lt_witness(SQRT2, SQRT2, 64) is INDISTINGUISHABLE

    def test_reverse_direction_reported(self):
        a, b = from_rational(Fraction(1, 2)), from_rational(Fraction(1, 3))
        result = lt_witness(a, b, 64)
        assert isinstance(result, GreaterGap)
        assert result.certificate.check(b, a)

    def test_certificates_verify_freshly(self):
        rng = random.Random(3)
        for _ in range(25):
            qa = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            qb = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            if qa == qb:
                continue
            x, y = drifting(qa), drifting(qb)
            result = lt_witness(x, y, 2 ** 16)
            if isinstance(result, GapCertificate):
                assert qa < qb
                assert result.check(x, y)
                assert result.gap <= qb - qa
            elif isinstance(result, GreaterGap):
                assert qb < qa
                assert result.certificate.check(y, x)
                assert result.certificate.gap <= qa - qb

    def test_indistinguishable_bound(self):
        x = from_rational(Fraction(1, 2 ** 10))
        result = lt_witness(ZERO, x, 64)
        if result is INDISTINGUISHABLE:
            assert Fraction(1, 2 ** 10) <= Fraction(1, 64)


class TestOrderingAxioms:
    def test_translation_preserves_half_the_certified_gap(self):
        rng = random.Random(5)
        for _ in range(25):
            qa = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            gap = Fraction(rng.randint(1, 40), rng.randint(40, 400))
            qz = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            x, y = drifting(qa), drifting(qa + gap)
            z = drifting(qz, wobble=2)
            cert = lt_witness(x, y, 2 ** 16)
            assert isinstance(cert, GapCertificate)
            shifted = lt_witness(x + z, y + z, 2 ** 20)
            assert isinstance(shifted, GapCertificate)
            assert shifted.gap >= cert.gap / 2

    def test_product_of_positives_is_positive(self):
        rng = random.Random(6)
        for _ in range(15):
            qa = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            qb = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            x, y = drifting(qa), drifting(qb)
            assert isinstance(lt_witness(ZERO, x, 2 ** 16), GapCertificate)
            assert isinstance(lt_witness(ZERO, y, 2 ** 16), GapCertificate)
            product = lt_witness(ZERO, x * y, 2 ** 20)
            assert isinstance(product, GapCertificate)
            assert product.gap <= qa * qb


class TestLattice:
    def test_abs(self):
        assert_within(abs(from_rational(Fraction(-2, 3))), Fraction(2, 3), LADDER)

    def test_max_idempotent(self):
        x = drifting(Fraction(5, 7))
        m = maximum(x, x)
        for k in (1, 10, 100):
            assert m.approx(k) == x.approx(k)

    def test_min_orders_rationals(self):
        m = minimum(from_rational(Fraction(1, 3)), from_rational(Fraction(1, 2)))
        assert_within(m, Fraction(1, 3), LADDER)

    def test_componentwise_at_same_precision(self):
        x, y = drifting(Fraction(2, 5)), drifting(Fraction(3, 5), wobble=2)
        for k in (1, 10, 100):
            assert maximum(x, y).approx(k) == max(x.approx(k), y.approx(k))
            assert minimum(x, y).approx(k) == min(x.approx(k), y.approx(k))
            assert abs(x).approx(k) == abs(x.approx(k))


def _sample_pool():
    return [
        from_rational(Fraction(1, 2)),
        from_rational(Fraction(-7, 3)),
        drifting(Fraction(2, 3)),
        drifting(Fraction(-1, 5), wobble=3),
        harmonic_to_zero(),
        geometric_to_two(),
        SQRT2,
    ]


class TestWeakFieldAxioms:
    KS = (10, 100, 1000)

    def test_associativity_commutativity_distributivity(self):
        pool = _sample_pool()
        rng = random.Random(42)
        for _ in range(30):
            x, y, z = (rng.choice(pool) for _ in range(3))
            for k in self.KS:
                assert abs(((x + y) + z).approx(k)
                           - (x + (y + z)).approx(k)) <= Fraction(2, k)
                assert abs((x + y).approx(k) - (y + x).approx(k)) <= Fraction(2, k)
                assert abs((x * y).approx(k) - (y * x).approx(k)) <= Fraction(2, k)
                assert abs((x * (y + z)).approx(k)
                           - (x * y + x * z).approx(k)) <= Fraction(2, k)

    def test_neutral_elements(self):
        for x in _sample_pool():
            for k in self.KS:
                assert abs((x + ZERO).approx(k) - x.approx(k)) <= Fraction(2, k)
                assert abs((x * ONE).approx(k) - x.approx(k)) <= Fraction(2, k)


class TestCongruence:
    def _representations(self, q):
        return [from_rational(q), drifting(q), drifting(q, wobble=2)]

    def test_operations_respect_closeness(self):
        qa, qb = Fraction(3, 4), Fraction(-2, 7)
        xs, ys = self._representations(qa), self._representations(qb)
        for x in xs:
            for y in ys:
                for k in (1, 10, 100, 1000):
                    assert abs((x + y).approx(k) - (qa + qb)) <= Fraction(1, k)
                    assert abs((x * y).approx(k) - (qa * qb)) <= Fraction(1, k)

    def test_separate_never_contradicts_across_representations(self):
        qa, qb = Fraction(1, 3), Fraction(2, 5)
        xs, ys = self._representations(qa), self._representations(qb)
        for k in (1, 10, 100):
            verdicts = {separate(x, y, k) for x in xs for y in ys}
            assert not (Verdict.LESS in verdicts and Verdict.GREATER in verdicts)

    def test_order_congruence_at_sufficient_precision(self):
        # 1/3 < 2/5: every representation pair certifies LESS once k is large
        xs = self._representations(Fraction(1, 3))
        ys = self._representations(Fraction(2, 5))
        for x in xs:
            for y in ys:
                assert separate(x, y, 1000) is Verdict.LESS


class TestRegularityOfConstructions:
    @pytest.mark.parametrize("build", [
        lambda: from_rational(Fraction(22, 7)),
        harmonic_to_zero,
        geometric_to_two,
        lambda: drifting(Fraction(-5, 3)),
        lambda: drifting(Fraction(1, 2)) + geometric_to_two(),
        lambda: drifting(Fraction(1, 2)) * drifting(Fraction(-7, 5)),
        lambda: -geometric_to_two(),
        lambda: abs(drifting(Fraction(-1, 9))),
        lambda: maximum(harmonic_to_zero(), drifting(Fraction(1, 7))),
        lambda: SQRT2,
        lambda: SQRT2 * SQRT2,
        lambda: reciprocal(geometric_to_two(),
                           find_apartness(geometric_to_two(), 64)),
    ])
    def test_regular_on_ladder(self, build):
        assert_regular(build())


class TestRepr:
    def test_exact_and_lazy(self):
        assert repr(from_rational(Fraction(1, 2))) == "Real(1/2)"
        assert repr(SQRT2) == "Real(<procedure>)"


class TestPositiveIntegerArguments:
    """Every precision, budget, tolerance and index argument is an int >= 1:
    bool, zero and floats are refused alike."""

    ENTRY_POINTS = {
        "approx": lambda n: SQRT2.approx(n),
        "separate": lambda n: separate(ONE, ZERO, n),
        "find_apartness": lambda n: find_apartness(SQRT2, n),
        "lt_witness": lambda n: lt_witness(ONE, SQRT2, n),
        "finite_set_oracle": lambda n: finite_set_oracle([ONE], n),
        "from_sequence": lambda n: from_sequence(lambda m: ONE.approx(1),
                                                 lambda k: n).approx(1),
        "grid": lambda n: RationalDomain(0, 1).grid(n),
        "uc_modulus": lambda n: UCFunction(RationalDomain(0, 1), lambda q: q,
                                           lambda k: n).modulus(1),
        "eps_minimizer": lambda n: eps_minimizer(
            UCFunction(RationalDomain(0, 1), lambda q: q, lambda k: k), n),
        "close_to_witness": lambda n: close_to_witness(
            RationalDomain(0, 2), SQRT2).select(n),
    }

    @pytest.mark.parametrize("value", [True, 0, 1.0])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_refused(self, entry, value):
        with pytest.raises(ValueError):
            self.ENTRY_POINTS[entry](value)
