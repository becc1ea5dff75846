"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines
and per-criterion timings.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from cauchyreals import (
    RationalDomain,
    UCFunction,
    Verdict,
    close_to_witness,
    eps_minimizer,
    extend,
    find_apartness,
    finite_set_oracle,
    from_rational,
    from_sequence,
    infimum,
    lub_bisection,
    reciprocal,
    run_harmonic_lub,
    separate,
    sqrt_oracle,
    supremum,
)
from cauchyreals.cli import main

from support import drifting, geometric_to_two, harmonic_to_zero


@contextmanager
def criterion(number, name, limit_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s")
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_01_sqrt2_thirty_digits(capsys):
    with criterion(1, "sqrt 2 --digits 30 --mode fast", limit_seconds=5):
        code, out, _ = cli(capsys, "sqrt", "2", "--digits", "30", "--mode", "fast")
        assert code == 0
        printed = out.strip()
        assert printed.startswith("1.") and len(printed) == 32
        oracle = math.isqrt(2 * 10 ** 60)  # floor(sqrt2 * 10^30), independent
        assert abs(int(printed.replace(".", "")) - oracle) <= 1


def test_criterion_02_reference_loop_fidelity(capsys):
    with criterion(2, "harmonic loop fidelity at --digits 2", limit_seconds=60):
        run = run_harmonic_lub(sqrt_oracle(2), 2, precision=200)

        first = run.steps[0]
        assert first.upper == Fraction(2) and first.step == Fraction(1)

        uppers = [s.upper for s in run.steps]
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))

        for before, after in zip(run.steps, run.steps[1:]):
            if before.answer:
                assert after.step == before.step
            else:
                assert after.step == 1 / (1 + 1 / before.step)
        for i, refusal in enumerate(run.refusals, start=1):
            assert refusal.step == Fraction(1, i)

        assert run.bracket_ok()

        code, out, err = cli(capsys, "lub-demo", "sqrt2",
                             "--mode", "paper", "--digits", "2")
        assert code == 0
        assert "bracket-ok=yes" in err
        truth = Fraction(math.isqrt(2 * 10 ** 12), 10 ** 6)
        assert abs(Fraction(out.strip()) - truth) <= Fraction(1, 100) + Fraction(1, 10 ** 6)


def _axiom_pool():
    return [
        from_rational(Fraction(1, 2)),
        from_rational(Fraction(-7, 3)),
        from_rational(5),
        drifting(Fraction(2, 3)),
        drifting(Fraction(-9, 4), wobble=2),
        harmonic_to_zero(),
        geometric_to_two(),
        lub_bisection(sqrt_oracle(2), 2),
        lub_bisection(sqrt_oracle(3), 2),
        lub_bisection(sqrt_oracle(Fraction(1, 2)), 1),
    ]


def test_criterion_03_weak_field_axioms():
    with criterion(3, "field axioms, 1000 random triples", limit_seconds=60):
        pool = _axiom_pool()
        rng = random.Random(20260810)
        for _ in range(1000):
            x, y, z = (rng.choice(pool) for _ in range(3))
            for k in (10, 100, 1000, 10 ** 4):
                tolerance = Fraction(2, k)
                assert abs(((x + y) + z).approx(k)
                           - (x + (y + z)).approx(k)) <= tolerance
                assert abs((x + y).approx(k) - (y + x).approx(k)) <= tolerance
                assert abs((x * y).approx(k) - (y * x).approx(k)) <= tolerance
                assert abs((x * (y + z)).approx(k)
                           - (x * y + x * z).approx(k)) <= tolerance
                assert abs((x + from_rational(0)).approx(k) - x.approx(k)) <= tolerance
                assert abs((x * from_rational(1)).approx(k) - x.approx(k)) <= tolerance


def test_criterion_04_inverse_law():
    with criterion(4, "inverse law for 200 separated reals", limit_seconds=60):
        rng = random.Random(4)
        count = 0
        while count < 200:
            q = Fraction(rng.randint(-400, 400), rng.randint(1, 50))
            if abs(q) < Fraction(1, 8):
                continue
            count += 1
            x = drifting(q) if count % 2 else from_rational(q)
            witness = find_apartness(x, 64)
            product = x * reciprocal(x, witness)
            for k in (10, 100, 1000, 10 ** 4):
                assert abs(product.approx(k) - 1) <= Fraction(2, k)


def test_criterion_05_congruence():
    with criterion(5, "operations respect closeness across representations",
                   limit_seconds=60):
        rng = random.Random(5)
        ks = (10, 100, 1000)
        for _ in range(100):
            q = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            reps = [from_rational(q), drifting(q), drifting(q, wobble=2)]
            partner = drifting(Fraction(rng.randint(-60, 60), rng.randint(1, 60)))
            for k in ks:
                tolerance = Fraction(2, k)
                sums = [(r + partner).approx(k) for r in reps]
                prods = [(r * partner).approx(k) for r in reps]
                negs = [(-r).approx(k) for r in reps]
                for group in (sums, prods, negs):
                    assert max(group) - min(group) <= tolerance
                verdicts = {separate(r, partner, k) for r in reps}
                assert not (Verdict.LESS in verdicts and Verdict.GREATER in verdicts)


def test_criterion_06_weak_trichotomy_totality():
    with criterion(6, "separate is total and CLOSE is quantitative"):
        sqrt2 = lub_bisection(sqrt_oracle(2), 2)
        pairs = [
            (from_rational(0), harmonic_to_zero()),
            (sqrt2, sqrt2),
            (from_rational(Fraction(1, 3)), drifting(Fraction(1, 3))),
            (geometric_to_two(), from_rational(2)),
            (from_rational(Fraction(1, 3)), from_rational(Fraction(1, 2))),
            (sqrt2, from_rational(Fraction(3, 2))),
        ]
        for x, y in pairs:
            for k in (1, 10, 100, 1000):
                verdict = separate(x, y, k)
                assert verdict in (Verdict.LESS, Verdict.GREATER, Verdict.CLOSE)
                if verdict is Verdict.CLOSE:
                    d = y.approx(4 * k) - x.approx(4 * k)
                    assert abs(d) <= Fraction(1, 2 * k) + Fraction(1, 2 * k)


def test_criterion_07_extension():
    with criterion(7, "extension of x^2 along sqrt2 witnesses"):
        domain = RationalDomain(Fraction(0), Fraction(2))
        f = UCFunction(domain, fn=lambda q: q * q, modulus=lambda k: 4 * k)
        sqrt2 = lub_bisection(sqrt_oracle(2), 2)

        w1 = close_to_witness(domain, sqrt2)
        y1 = extend(f, w1)
        for k in (10, 100, 1000):
            # oracle: evaluations are exact rational squares
            assert abs(y1.approx(k) - 2) <= Fraction(2, k)

        from cauchyreals import ClosenessWitness

        def from_below(k):
            a = sqrt2.approx(2 * k) - Fraction(1, 2 * k)
            return min(max(a, domain.lo), domain.hi)

        y2 = extend(f, ClosenessWitness(select=from_below))
        for k in (10, 100, 1000):
            assert abs(y1.approx(k) - y2.approx(k)) <= Fraction(2, k)


def test_criterion_08_min_max():
    with criterion(8, "extrema of (x^2-2)^2 on [0,2]", limit_seconds=60):
        domain = RationalDomain(Fraction(0), Fraction(2))
        f = UCFunction(domain, fn=lambda q: (q * q - 2) ** 2,
                       modulus=lambda k: 32 * k)
        assert abs(infimum(f).approx(100)) <= Fraction(2, 100)
        assert abs(supremum(f).approx(100) - 4) <= Fraction(2, 100)
        q = eps_minimizer(f, 100)
        assert domain.contains(q)
        assert (q * q - 2) ** 2 <= Fraction(1, 100)  # exact rational evaluation


def test_criterion_09_finite_set_lub():
    with criterion(9, "finite-set lub at tolerance 1e-6"):
        elements = [from_rational(Fraction(1, 3)), from_rational(Fraction(2, 5)),
                    from_rational(Fraction(1, 2))]
        oracle = finite_set_oracle(elements, 10 ** 6)
        x = lub_bisection(oracle, 1)
        assert abs(x.approx(10 ** 6) - Fraction(1, 2)) <= Fraction(2, 10 ** 6)


def test_criterion_10_sqrt2_times_sqrt2_prints_two(capsys):
    with criterion(10, 'eval "sqrt(2)*sqrt(2)" --digits 9'):
        code, out, _ = cli(capsys, "eval", "sqrt(2)*sqrt(2)", "--digits", "9")
        assert code == 0
        printed = out.strip()
        assert abs(int(printed.replace(".", "")) - 2 * 10 ** 9) <= 1


def test_criterion_11_sqrt2_three_thousand_digits(capsys):
    with criterion(11, "sqrt 2 --digits 3000", limit_seconds=2):
        code, out, _ = cli(capsys, "sqrt", "2", "--digits", "3000")
        assert code == 0
        printed = out.strip()
        assert printed.startswith("1.") and len(printed) == 3002
        oracle = math.isqrt(2 * 10 ** 6000)  # floor(sqrt2 * 10^3000), independent
        assert abs(int(printed.replace(".", "")) - oracle) <= 1


def test_criterion_12_long_chains_of_roots(capsys):
    # the first 100 non-squares: their product is sqrt(P), P the product
    radicands = [n for n in range(2, 200) if math.isqrt(n) ** 2 != n][:100]
    product = math.prod(radicands)
    with criterion(12, "product of 100 distinct roots --digits 10", limit_seconds=2):
        code, out, _ = cli(capsys, "eval", "*".join(f"sqrt({n})" for n in radicands),
                           "--digits", "10")
        assert code == 0
        oracle = math.isqrt(product * 10 ** 20)  # floor(sqrt(P) * 10^10)
        assert abs(int(out.strip().replace(".", "")) - oracle) <= 1
    with criterion(12, "sum of 2000 sqrt(2) --digits 10", limit_seconds=2):
        code, out, _ = cli(capsys, "eval", "+".join(["sqrt(2)"] * 2000), "--digits", "10")
        assert code == 0
        oracle = math.isqrt(2000 ** 2 * 2 * 10 ** 20)  # floor(2000*sqrt(2) * 10^10)
        # the last line: the verdict line of the product precedes it
        assert abs(int(out.splitlines()[-1].replace(".", "")) - oracle) <= 1
