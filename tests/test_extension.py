"""Uniformly continuous functions: extension along witnesses, grid extrema."""

import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyreals import (
    BudgetExceeded,
    ClosenessWitness,
    DomainError,
    OutOfDomain,
    RationalDomain,
    UCFunction,
    Verdict,
    close_to_witness,
    eps_maximizer,
    eps_minimizer,
    extend,
    from_rational,
    infimum,
    lub_bisection,
    separate,
    sqrt_oracle,
    supremum,
)

from support import assert_regular, assert_within, drifting

SQRT2 = lub_bisection(sqrt_oracle(2), 2)


def unit_interval(lo=0, hi=2):
    return RationalDomain(Fraction(lo), Fraction(hi))


def square_fn():
    """x^2 on [0,2]; |u^2 - v^2| <= 4|u - v| there, so modulus 4k works."""
    return UCFunction(unit_interval(), fn=lambda q: q * q, modulus=lambda k: 4 * k)


def brute_grid(lo, hi, mesh):
    """Independent grid oracle: s = ceil((hi - lo)*mesh) equal steps."""
    s = math.ceil((hi - lo) * mesh)
    if s == 0:
        return [lo]
    return [lo + j * (hi - lo) / s for j in range(s + 1)]


def brute_extremes(points, fn):
    """Leftmost argmin and argmax of exact values over a plain point list."""
    values = [fn(q) for q in points]
    low, high = min(values), max(values)
    return (low, points[values.index(low)], high, points[values.index(high)])


def well_fn():
    """(x^2-2)^2 on [0,2]; |f'| <= 16 there, modulus 32k is comfortable."""
    return UCFunction(unit_interval(),
                      fn=lambda q: (q * q - 2) ** 2,
                      modulus=lambda k: 32 * k)


class TestRationalDomain:
    def test_rejects_empty_interval(self):
        with pytest.raises(DomainError):
            RationalDomain(Fraction(1), Fraction(0))

    def test_contains(self):
        dom = unit_interval()
        assert dom.contains(Fraction(1, 3))
        assert dom.contains(Fraction(0)) and dom.contains(Fraction(2))
        assert not dom.contains(Fraction(-1, 10 ** 9))

    @pytest.mark.parametrize("mesh", [1, 3, 7, 100])
    def test_grid_invariants(self, mesh):
        dom = RationalDomain(Fraction(-1, 3), Fraction(5, 2))
        points = dom.grid(mesh)
        assert all(dom.contains(p) for p in points)
        assert points[0] == dom.lo and points[-1] == dom.hi
        for a, b in zip(points, points[1:]):
            assert Fraction(0) < b - a <= Fraction(1, mesh)

    def test_degenerate_interval(self):
        dom = RationalDomain(Fraction(1, 2), Fraction(1, 2))
        assert dom.grid(10) == [Fraction(1, 2)]

    def test_grid_cap(self):
        with pytest.raises(BudgetExceeded):
            unit_interval().grid(10 ** 7)

    def test_membership_thins_grid(self):
        dom = RationalDomain(Fraction(0), Fraction(1),
                             membership=lambda q: q.denominator <= 4)
        points = dom.grid(4)
        assert points and all(q.denominator <= 4 for q in points)


    @settings(max_examples=60, deadline=None)
    @given(lo=st.fractions(min_value=-50, max_value=50, max_denominator=1000),
           width=st.fractions(min_value=0, max_value=5, max_denominator=1000),
           mesh=st.integers(1, 300))
    def test_grid_matches_brute_force(self, lo, width, mesh):
        dom = RationalDomain(lo, lo + width)
        assert dom.grid(mesh) == brute_grid(lo, lo + width, mesh)


class TestUCFunction:
    def test_rejects_points_outside_domain(self):
        with pytest.raises(DomainError):
            square_fn().eval(Fraction(5, 2))

    def test_eval_is_memoized(self):
        f = square_fn()
        assert f.eval(Fraction(1, 3)) is f.eval(Fraction(1, 3))

    def test_uniform_continuity_contract_spot_check(self):
        f = well_fn()
        rng = random.Random(2)
        for k in (1, 5, 25):
            m = f.modulus(k)
            for _ in range(20):
                u = Fraction(rng.randint(0, 2 * m), m) / 2
                v = min(u + Fraction(rng.randint(0, 1), m), Fraction(2))
                fu = f.eval(u).approx(4 * k)
                fv = f.eval(v).approx(4 * k)
                assert abs(fu - fv) <= Fraction(1, k) + Fraction(1, 2 * k)

    def test_bad_modulus_rejected(self):
        f = UCFunction(unit_interval(), fn=lambda q: q, modulus=lambda k: 0)
        with pytest.raises(ValueError):
            f.modulus(1)


class TestCloseToWitness:
    def test_rational_point_is_returned_exactly(self):
        w = close_to_witness(unit_interval(), from_rational(Fraction(1, 2)))
        for k in (1, 10, 1000):
            assert w.select(k) == Fraction(1, 2)

    def test_sqrt2_selection_tracks_the_root(self):
        w = close_to_witness(unit_interval(), SQRT2)
        lo = Fraction(math.isqrt(2 * 10 ** 24), 10 ** 12)  # sqrt2 in [lo, lo+1e-12]
        for k in (1, 10, 100, 10 ** 4):
            q = w.select(k)
            assert unit_interval().contains(q)
            assert abs(q - lo) <= Fraction(1, k) + Fraction(1, 10 ** 12)

    def test_selection_is_itself_regular(self):
        w = close_to_witness(unit_interval(), SQRT2)
        ks = (1, 2, 4, 16, 64, 256)
        vals = {k: w.select(k) for k in ks}
        for j in ks:
            for k in ks:
                assert abs(vals[j] - vals[k]) <= Fraction(1, j) + Fraction(1, k)

    def test_outside_point_raises(self):
        w = close_to_witness(RationalDomain(Fraction(0), Fraction(1)),
                             from_rational(3))
        with pytest.raises(OutOfDomain):
            w.select(1)

    def test_boundary_point_is_clamped_not_rejected(self):
        # a real equal to the endpoint wobbles around it; selection must clamp
        w = close_to_witness(RationalDomain(Fraction(0), Fraction(1)),
                             drifting(Fraction(0)))
        for k in (1, 10, 100):
            q = w.select(k)
            assert Fraction(0) <= q <= Fraction(1)
            assert abs(q) <= Fraction(1, k)


class TestExtend:
    def test_identity(self):
        dom = unit_interval()
        ident = UCFunction(dom, fn=lambda q: q, modulus=lambda k: k)
        x = drifting(Fraction(2, 3))
        y = extend(ident, close_to_witness(dom, x))
        for k in (1, 10, 100, 1000):
            assert abs(y.approx(k) - Fraction(2, 3)) <= Fraction(2, k)

    def test_square_of_sqrt2(self):
        f = square_fn()
        y = extend(f, close_to_witness(f.domain, SQRT2))
        # oracle: exact rational squaring makes every eval exact, so the
        # extension must land within its stated budget of 2
        for k in (10, 100, 1000):
            assert abs(y.approx(k) - 2) <= Fraction(2, k)
        assert_regular(y, ladder=(1, 2, 4, 8, 16, 64, 256))

    def test_witness_independence(self):
        f = square_fn()
        w1 = close_to_witness(f.domain, SQRT2)
        # a second witness approaching from below through coarser rationals
        def from_below(k):
            a = SQRT2.approx(2 * k) - Fraction(1, 2 * k)
            return min(max(a, f.domain.lo), f.domain.hi)
        w2 = ClosenessWitness(select=from_below)
        y1, y2 = extend(f, w1), extend(f, w2)
        for k in (1, 10, 100, 1000):
            assert abs(y1.approx(k) - y2.approx(k)) <= Fraction(2, k)

    def test_select_outside_domain_is_rejected(self):
        f = square_fn()
        bad = ClosenessWitness(select=lambda k: Fraction(-1))
        with pytest.raises(DomainError):
            extend(f, bad).approx(1)


class TestExtrema:
    def test_well_function_extrema(self):
        f = well_fn()
        # calculus oracle: minimum 0 at sqrt2 (interior), maximum 4 at x = 2
        assert abs(infimum(f).approx(10)) <= Fraction(2, 10)
        assert abs(supremum(f).approx(10) - 4) <= Fraction(2, 10)

    def test_constant_function(self):
        c = Fraction(5, 7)
        f = UCFunction(unit_interval(), fn=lambda q: c, modulus=lambda k: 1)
        assert_within(infimum(f), c, (1, 5, 20), slack=1)
        assert_within(supremum(f), c, (1, 5, 20), slack=1)

    def test_monotone_identity(self):
        dom = RationalDomain(Fraction(-3, 2), Fraction(7, 3))
        f = UCFunction(dom, fn=lambda q: q, modulus=lambda k: k)
        assert_within(infimum(f), Fraction(-3, 2), (1, 5, 20), slack=1)
        assert_within(supremum(f), Fraction(7, 3), (1, 5, 20), slack=1)

    def test_lower_bound_property(self):
        f = well_fn()
        k = 5
        inf_at_3k = infimum(f).approx(3 * k)
        for g in f.domain.grid(f.modulus(3 * k)):
            assert inf_at_3k <= f.eval(g).approx(3 * k) + Fraction(2, 3 * k)

    def test_grid_cap_surfaces(self):
        f = UCFunction(unit_interval(), fn=lambda q: q, modulus=lambda k: 10 ** 9)
        with pytest.raises(BudgetExceeded):
            infimum(f).approx(1)

    def test_extrema_are_regular(self):
        f = well_fn()
        assert_regular(infimum(f), ladder=(1, 2, 4, 8, 16))
        assert_regular(supremum(f), ladder=(1, 2, 4, 8, 16))


class TestEpsExtremizers:
    def test_near_minimizer_of_well(self):
        f = well_fn()
        k = 25
        q = eps_minimizer(f, k)
        assert f.domain.contains(q)
        # exact rational evaluation: the value must be within 1/k of the inf (0)
        assert (q * q - 2) ** 2 <= Fraction(1, k)

    def test_certificate_against_infimum(self):
        f = well_fn()
        k = 10
        q = eps_minimizer(f, k)
        assert f.eval(q).approx(3 * k) <= infimum(f).approx(3 * k) + Fraction(1, 3 * k)

    def test_constant_function_any_point_qualifies(self):
        c = Fraction(1, 3)
        f = UCFunction(unit_interval(), fn=lambda q: c, modulus=lambda k: 1)
        q = eps_minimizer(f, 10)
        assert f.domain.contains(q)

    def test_identity_minimizer_near_left_end(self):
        dom = RationalDomain(Fraction(0), Fraction(1))
        f = UCFunction(dom, fn=lambda q: q, modulus=lambda k: k)
        for k in (5, 50):
            assert eps_minimizer(f, k) <= Fraction(1, k)

    def test_maximizer_of_well(self):
        f = well_fn()
        q = eps_maximizer(f, 25)
        assert (q * q - 2) ** 2 >= 4 - Fraction(1, 25)


class TestSandwich:
    def test_extension_between_extrema(self):
        # no precision may certify the extension below the infimum or above
        # the supremum: both approximations sit within their 1/k budgets of
        # values that are truly ordered
        f = well_fn()
        lo, hi = infimum(f), supremum(f)
        for x in (from_rational(Fraction(1, 3)), SQRT2, from_rational(2)):
            y = extend(f, close_to_witness(f.domain, x))
            for k in (1, 5, 10):
                assert separate(y, lo, k) is not Verdict.LESS
                assert separate(hi, y, k) is not Verdict.LESS


class TestSharedScan:
    """infimum, supremum and eps_* share one grid scan per (f, k)."""

    def test_one_grid_and_one_call_per_point(self, monkeypatch):
        meshes, calls = [], Counter()
        grid = RationalDomain.grid

        def counting_grid(self, mesh):
            meshes.append(mesh)
            return grid(self, mesh)

        def fn(q):
            calls[q] += 1
            return (q * q - 2) ** 2

        monkeypatch.setattr(RationalDomain, "grid", counting_grid)
        f = UCFunction(unit_interval(), fn=fn, modulus=lambda k: 32 * k)
        k = 4
        for _ in range(2):
            infimum(f).approx(k)
            supremum(f).approx(k)
            eps_minimizer(f, k)
            eps_maximizer(f, k)
            infimum(f).approx(3 * k)
            supremum(f).approx(3 * k)
        # one grid at modulus(3k) for precision k, one at modulus(9k) for 3k
        assert meshes == [32 * 3 * k, 32 * 9 * k]
        fine = brute_grid(Fraction(0), Fraction(2), 32 * 9 * k)
        assert set(calls) == set(fine)
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("k", [2, 4, 10])
    def test_leftmost_extremizers_win_ties(self, k):
        # flat at 0 on [1/2, 3/2], equal maxima 1/2 at both ends of [0, 2]
        fn = lambda q: max(Fraction(0), abs(q - 1) - Fraction(1, 2))
        f = UCFunction(unit_interval(), fn=fn, modulus=lambda j: j)
        oracle = brute_extremes(
            brute_grid(Fraction(0), Fraction(2), f.modulus(9 * k)), fn)
        assert oracle[1] == Fraction(1, 2) and oracle[3] == Fraction(0)
        assert (infimum(f).approx(3 * k), eps_minimizer(f, k),
                supremum(f).approx(3 * k), eps_maximizer(f, k)) == oracle

    def test_membership_thinned_domain(self):
        member = lambda q: (q * 3).denominator == 1
        fn = lambda q: (q - Fraction(7, 10)) ** 2
        dom = RationalDomain(Fraction(-1), Fraction(2), membership=member)
        f = UCFunction(dom, fn=fn, modulus=lambda j: j)
        k = 1
        points = [q for q in brute_grid(Fraction(-1), Fraction(2), 9 * k)
                  if member(q)]
        low, argmin, high, argmax = brute_extremes(points, fn)
        assert eps_minimizer(f, k) == argmin == Fraction(2, 3)
        assert eps_maximizer(f, k) == argmax
        assert infimum(f).approx(3 * k) == low
        assert supremum(f).approx(3 * k) == high

    def test_threads_share_one_scan(self):
        f = well_fn()
        k = 6
        start = threading.Barrier(8)
        results = [None] * 8

        def work(i):
            start.wait(timeout=30)
            results[i] = (infimum(f).approx(k), supremum(f).approx(k),
                          eps_minimizer(f, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        fn = lambda q: (q * q - 2) ** 2
        low, _, high, _ = brute_extremes(
            brute_grid(Fraction(0), Fraction(2), f.modulus(3 * k)), fn)
        argmin = brute_extremes(
            brute_grid(Fraction(0), Fraction(2), f.modulus(9 * k)), fn)[1]
        assert results == [(low, high, argmin)] * 8
