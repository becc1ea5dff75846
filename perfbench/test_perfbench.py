"""Self-tests of the benchmark: reference checker, failure accounting,
seeded generation and repeatable traced counts.

    python3 -m unittest discover -s perfbench
"""

import math
import types
import unittest
from fractions import Fraction

import reference as ref
import run
import workloads as wl

SQRT2_PREFIX = "1.41421356237309504880168872420969807856967187537694807317667973799"


def sqrt_digits(n, digits):
    """sqrt(n) truncated to `digits` fractional digits, by math.isqrt."""
    root = str(math.isqrt(n * 10 ** (2 * digits))).rjust(digits + 1, "0")
    return f"{root[:-digits]}.{root[-digits:]}"


def long_division(num, den, digits):
    """num/den truncated to `digits` fractional digits, digit by digit."""
    whole, rem = divmod(num, den)
    out = []
    for _ in range(digits):
        digit, rem = divmod(rem * 10, den)
        out.append(str(digit))
    return f"{whole}.{''.join(out)}"


SQRT2 = ("sqrt", ("lit", Fraction(2)))


class ReferenceTest(unittest.TestCase):
    def test_sqrt2_to_1000_digits(self):
        text = sqrt_digits(2, 1000)
        self.assertTrue(text.startswith(SQRT2_PREFIX))
        self.assertTrue(ref.check_decimal(SQRT2, text, 1000))

    def test_one_seventh_by_long_division(self):
        text = long_division(1, 7, 600)
        self.assertEqual(text, "0." + "142857" * 100)
        node = ("div", ("lit", Fraction(1)), ("lit", Fraction(7)))
        self.assertTrue(ref.check_decimal(node, text, 600))

    def test_wrong_digit_is_rejected(self):
        text = sqrt_digits(2, 1000)
        digit = str((int(text[500]) + 5) % 10)
        wrong = text[:500] + digit + text[501:]
        self.assertFalse(ref.check_decimal(SQRT2, wrong, 1000))

    def test_digit_count_must_match(self):
        self.assertFalse(ref.check_decimal(SQRT2, sqrt_digits(2, 30), 31))

    def test_compare_verdicts(self):
        a = ("sum", [("sqrt", ("lit", Fraction(2))), ("sqrt", ("lit", Fraction(3)))])
        b = ("sqrt", ("sum", [("lit", Fraction(5)),
                              ("prod", [("lit", Fraction(2)),
                                        ("sqrt", ("lit", Fraction(6)))])]))
        self.assertTrue(ref.check_verdict(a, b, "CLOSE", 10 ** 6))
        self.assertFalse(ref.check_verdict(a, b, "LESS", 10 ** 6))
        c = ("lit", Fraction(1414213, 10 ** 6))
        self.assertTrue(ref.check_verdict(SQRT2, c, "GREATER", 10 ** 6))
        self.assertFalse(ref.check_verdict(SQRT2, c, "LESS", 10 ** 6))


class AccountingTest(unittest.TestCase):
    def test_wrong_output_counts_as_failure(self):
        op = wl.Op("cli", ("eval", "sqrt(2)", "--digits", "1000"),
                    ("decimal", SQRT2, 1000))
        text = sqrt_digits(2, 1000)
        wrong = text[:-1] + str((int(text[-1]) + 3) % 10)
        tally = run.Tally()
        for out in (text, wrong):
            outcome = wl.Outcome(code=0, out=out + "\n")
            tally.record(op, wl.verify(None, op, outcome), outcome)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_crash_is_counted_not_propagated(self):
        def boom(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        prog = types.SimpleNamespace(
            cli=types.SimpleNamespace(main=boom),
            lub=types.SimpleNamespace(run_harmonic_lub=boom, sqrt_oracle=boom))
        for op in (wl.Op("cli", ("eval", "1"), ("decimal", ("lit", Fraction(1)), 10)),
                   wl.Op("harmonic", (2, 20))):
            outcome = wl.execute(prog, op, {})
            self.assertTrue(outcome.raised.startswith("RecursionError"))
            self.assertFalse(wl.verify(prog, op, outcome))


class GenerationTest(unittest.TestCase):
    def digest(self, workload, seed):
        return [op.describe() for r in range(3)
                for op in wl.make_round(workload, seed, r)]

    def test_same_seed_same_operations(self):
        for workload in wl.WORKLOADS:
            self.assertEqual(self.digest(workload, 7), self.digest(workload, 7))
            self.assertNotEqual(self.digest(workload, 7), self.digest(workload, 8))

    def test_ladder_rungs_ascend(self):
        rungs = [op.call[-1] for op in wl.make_round("certify", 3, 0)
                 if op.kind == "ladder"]
        self.assertEqual(rungs, sorted(rungs))


class TracedCountsTest(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        prog = wl.Program(run.fresh_import())
        ops = [op for w in wl.WORKLOADS for op in wl.make_round(w, 5, 0)
               if op.kind in ("cli", "ladder", "lt_witness", "harmonic")
               and "1000" not in op.call and "300" not in op.call][:24]
        results = []
        for _ in range(2):
            tally, tracer, *_ = run.traced_replay(prog, ops, len(ops))
            self.assertEqual(tally.failed, 0, tally.examples)
            metrics = tracer.layer_metrics()
            results.append({k: v for k, v in metrics.items()
                            if not k.endswith("ms")})
        self.assertEqual(results[0], results[1])
        self.assertGreater(results[0]["real.approx_calls"], 0)
        self.assertGreater(results[0]["lub.oracle_queries"], 0)


if __name__ == "__main__":
    unittest.main()
