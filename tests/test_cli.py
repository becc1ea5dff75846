"""Command-line surface: commands, output channels, exit codes."""

import argparse
import contextlib
import io
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyreals.cli import MAX_DIGITS, MAX_K, build_parser, main
from cauchyreals.expr import MAX_DEPTH

from support import DivisorMeetsZero, digits_to_int, tree_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    """`run` without the capsys fixture, which hypothesis tests cannot take."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestEvalCommand:
    def test_prints_decimal_on_stdout(self, capsys):
        code, out, err = run(capsys, "eval", "1/2 + 1/3", "--digits", "6")
        assert code == 0
        assert out.strip() == "0.833333"

    def test_default_digits(self, capsys):
        code, out, _ = run(capsys, "eval", "1/3")
        assert code == 0
        assert out.strip() == "0.3333333333"

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "eval", "1 +")
        assert code == 2
        assert out == ""
        assert "offset 3" in err

    def test_evaluation_error_exit_code(self, capsys):
        code, out, err = run(capsys, "eval", "1/(1/3 - 1/3)")
        assert code == 3
        assert out == ""
        assert "denominator" in err

    def test_negative_radicand_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "sqrt(0-4)")
        assert code == 3
        assert "negative" in err

    def test_unicode_digit_is_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "\u00b9")
        assert (code, out) == (2, "")
        assert "offset 0" in err

    def test_digits_past_int_to_str_limit(self, capsys):
        code, out, _ = run(capsys, "eval", "1/3", "--digits", "5000")
        assert (code, out.strip()) == (0, "0." + "3" * 5000)
        code, out, _ = run(capsys, "eval", "0-2/3", "--digits", "4500")
        assert (code, out.strip()) == (0, "-0." + "6" * 4499 + "7")

    def test_literal_past_the_str_to_int_limit(self, capsys):
        ones = "1" * 5000
        code, out, _ = run(capsys, "eval", ones, "--digits", "0")
        assert (code, digits_to_int(out.strip())) == (0, (10 ** 5000 - 1) // 9)
        code, out, _ = run(capsys, "eval", f"{ones}/{'3' * 5000} + 0.{ones}",
                           "--digits", "3")
        assert (code, out.strip()) == (0, "0.444")

    def test_radicand_just_below_zero_exit_code(self, capsys):
        # -1/128 = -1/(2K) at K = 64: not certified by separate(), but a
        # reading below -1/p at the printing precision proves it negative
        code, out, err = run(capsys, "eval", "sqrt(sqrt(2) - sqrt(2) - 1/128)",
                             "--sep-budget", "64")
        assert (code, out) == (3, "")
        assert "negative" in err

    def test_lub_flags_are_usage_errors(self, capsys):
        for flag in ("--lub-steps", "--descent-budget"):
            with pytest.raises(SystemExit) as info:
                main(["eval", "sqrt(sqrt(2))", flag, "1"])
            assert info.value.code == 2
        code, out, _ = run(capsys, "eval", "sqrt(sqrt(2))", "--digits", "30")
        assert code == 0
        oracle = math.isqrt(math.isqrt(2 * 10 ** 120))
        assert abs(int(out.strip().replace(".", "")) - oracle) <= 1

    def test_sep_budget_flag(self, capsys):
        code, _, err = run(capsys, "eval", "1 / 0.0001", "--sep-budget", "64")
        assert code == 3
        code, out, _ = run(capsys, "eval", "1 / 0.0001", "--sep-budget", "1048576",
                           "--digits", "2")
        assert code == 0
        assert out.strip() == "10000.00"


class TestCompareCommand:
    def test_less(self, capsys):
        code, out, _ = run(capsys, "compare", "1/3", "1/2", "--k", "100")
        assert (code, out.strip()) == (0, "LESS")

    def test_greater(self, capsys):
        code, out, _ = run(capsys, "compare", "sqrt(2)", "sqrt(2) - 1", "--k", "100")
        assert (code, out.strip()) == (0, "GREATER")

    def test_close_reports_tolerance(self, capsys):
        code, out, _ = run(capsys, "compare", "sqrt(2)*sqrt(2)", "2", "--k", "1000")
        assert (code, out.strip()) == (0, "CLOSE(1/1000)")


class TestSqrtCommand:
    def test_fast_mode_thirty_digits(self, capsys):
        code, out, _ = run(capsys, "sqrt", "2", "--digits", "30", "--mode", "fast")
        assert code == 0
        oracle = math.isqrt(2 * 10 ** 60)
        assert abs(int(out.strip().replace(".", "")) - oracle) <= 1

    def test_paper_mode_coarse(self, capsys):
        code, out, _ = run(capsys, "sqrt", "2", "--digits", "2", "--mode", "paper")
        assert code == 0
        value = Fraction(out.strip())
        assert abs(value - Fraction(math.isqrt(2 * 10 ** 12), 10 ** 6)) \
            <= Fraction(1, 100) + Fraction(1, 10 ** 6)

    def test_fast_mode_five_thousand_digits(self, capsys):
        code, out, _ = run(capsys, "sqrt", "2", "--digits", "5000")
        assert code == 0
        whole, frac = out.strip().split(".")
        assert (whole, len(frac)) == ("1", 5000)
        oracle = math.isqrt(2 * 10 ** 10000)
        assert abs(digits_to_int(whole + frac) - oracle) <= 1

    def test_fast_mode_rational_radicands(self, capsys):
        for text, c in (("22/7", Fraction(22, 7)), ("0.0002", Fraction(2, 10 ** 4)),
                        ("123456789", Fraction(123456789))):
            code, out, _ = run(capsys, "sqrt", text, "--digits", "200")
            assert code == 0
            oracle = math.isqrt(c.numerator * 10 ** 400 // c.denominator)
            assert abs(int(out.strip().replace(".", "")) - oracle) <= 1

    def test_rational_argument_forms(self, capsys):
        code, out, _ = run(capsys, "sqrt", "9/4", "--digits", "3")
        assert (code, out.strip()) == (0, "1.500")
        code, out, _ = run(capsys, "sqrt", "1.21", "--digits", "2")
        assert (code, out.strip()) == (0, "1.10")

    def test_negative_radicand(self, capsys):
        code, _, err = run(capsys, "sqrt", "-2")
        assert code == 3

    def test_malformed_radicand_is_parse_error(self, capsys):
        for text in ("two", "\u0662"):  # ARABIC-INDIC DIGIT TWO
            code, out, _ = run(capsys, "sqrt", text)
            assert (code, out) == (2, "")

    def test_budget_exit_code(self, capsys):
        # paper mode needs 4*10^6 refusals for 6 digits; 100 steps cannot
        code, _, err = run(capsys, "sqrt", "2", "--digits", "6",
                           "--mode", "paper", "--lub-steps", "100")
        assert code == 4
        assert "budget" in err.lower()


class TestLubDemoCommand:
    def test_paper_mode_reports_invariants(self, capsys):
        code, out, err = run(capsys, "lub-demo", "sqrt2", "--digits", "2",
                             "--mode", "paper")
        assert code == 0
        assert abs(Fraction(out.strip()) - Fraction(math.isqrt(2 * 10 ** 12), 10 ** 6)) \
            <= Fraction(1, 100) + Fraction(1, 10 ** 6)
        assert "bracket-ok=yes" in err
        assert "refusals=400" in err

    def test_fast_mode(self, capsys):
        code, out, err = run(capsys, "lub-demo", "sqrt2", "--digits", "12",
                             "--mode", "fast")
        assert code == 0
        oracle = math.isqrt(2 * 10 ** 24)
        assert abs(int(out.strip().replace(".", "")) - oracle) <= 1
        assert "queries=" in err


class TestPrecisionCaps:
    @pytest.mark.parametrize("argv", [
        ("eval", "1/3"), ("sqrt", "2"), ("lub-demo", "sqrt2")])
    def test_digits_over_the_cap_is_budget_exit(self, capsys, argv):
        for digits in (MAX_DIGITS + 1, 10 ** 8):
            code, out, err = run(capsys, *argv, "--digits", str(digits))
            assert (code, out) == (4, "")
            assert "--digits" in err

    def test_digits_at_the_cap_run(self, capsys):
        code, out, _ = run(capsys, "eval", "1/3", "--digits", str(MAX_DIGITS))
        assert (code, out.strip()) == (0, "0." + "3" * MAX_DIGITS)

    def test_k_over_the_cap_is_budget_exit(self, capsys):
        code, out, err = run(capsys, "compare", "1/3", "1/2", "--k", str(MAX_K + 1))
        assert (code, out) == (4, "")
        assert "--k" in err

    def test_k_at_the_cap_runs(self, capsys):
        code, out, _ = run(capsys, "compare", "1/3", "1/3", "--k", str(MAX_K))
        assert (code, out.strip()) == (0, f"CLOSE(1/{MAX_K})")


class TestNestingCap:
    @pytest.mark.parametrize("src,offset", [
        ("(" * 1000 + "1" + ")" * 1000, MAX_DEPTH),
        ("abs(" * 300 + "1" + ")" * 300, 4 * MAX_DEPTH),
        ("(" + "-" * 1000 + "1)", MAX_DEPTH),
        ("(" + "-(" * 500 + "1" + ")" * 501, MAX_DEPTH),
    ], ids=["parentheses", "abs", "unary-minus", "mixed"])
    def test_too_deep_is_parse_error_at_the_opener(self, capsys, src, offset):
        code, out, err = run(capsys, "eval", src)
        assert (code, out) == (2, "")
        assert f"nesting deeper than {MAX_DEPTH} levels (at offset {offset})" in err

    def test_at_the_cap_runs(self, capsys):
        # MAX_DEPTH - 2 calls of abs, one unary minus and one sqrt
        depth = MAX_DEPTH - 2
        src = "abs(" * depth + "-sqrt(2)" + ")" * depth
        code, out, _ = run(capsys, "eval", src, "--digits", "30")
        assert code == 0
        oracle = math.isqrt(2 * 10 ** 60)
        assert abs(int(out.strip().replace(".", "")) - oracle) <= 1
        # one more level makes sqrt, the innermost opener, the one past the cap
        code, out, err = run(capsys, "eval", "(" + src + ")")
        assert (code, out) == (2, "")
        assert f"(at offset {src.index('sqrt') + 1})" in err

    def test_quotient_of_root_of_sum_at_the_cap_runs(self, capsys):
        # Each level builds a product, a reciprocal, a root and a sum, and a
        # reading passes through two frames of each: eight per level.
        src = "1/sqrt(1+" * MAX_DEPTH + "1" + ")" * MAX_DEPTH
        code, out, _ = run(capsys, "eval", src, "--digits", "10")
        assert code == 0
        with localcontext() as ctx:
            ctx.prec = 50
            value = Decimal(1)
            for _ in range(MAX_DEPTH):
                value = 1 / (1 + value).sqrt()
            assert abs(Decimal(out.strip()) - value) <= Decimal(10) ** -10 + Decimal(10) ** -40

    def test_too_deep_to_read_is_budget_exit(self, capsys):
        # Inside the cap, but each level of this shape costs a reading more
        # frames than the Python stack holds at this depth.
        src = "2-1/sqrt(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH
        code, out, err = run(capsys, "eval", src)
        assert (code, out) == (4, "")
        assert err.startswith("budget exceeded: ")


def within_ulp(out, value, digits):
    """The printed decimal is within 10^-digits of the exact value."""
    return abs(Fraction(out.strip()) - value) <= Fraction(1, 10 ** digits)


class TestLongChains:
    """Chains far longer than the nesting cap print digits: they are
    evaluated flat, without recursion."""

    def test_sum_of_2000_literals(self, capsys):
        rng = random.Random(2000)
        terms = [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(2000)]
        src = "+".join(f"{q.numerator}/{q.denominator}" for q in terms)
        code, out, _ = run(capsys, "eval", src, "--digits", "10")
        assert code == 0 and within_ulp(out, sum(terms), 10)

    def test_difference_of_2000_terms(self, capsys):
        rng = random.Random(2001)
        terms = [rng.randint(1, 99) for _ in range(2000)]
        code, out, _ = run(capsys, "eval", " - ".join(map(str, terms)), "--digits", "10")
        assert code == 0 and within_ulp(out, terms[0] - sum(terms[1:]), 10)

    def test_2000_divisions(self, capsys):
        code, out, _ = run(capsys, "eval", "1" + " / 2" * 2000, "--digits", "610")
        assert code == 0 and within_ulp(out, Fraction(1, 2 ** 2000), 610)
        assert out.strip() != "0." + "0" * 610

    def test_product_of_1000_literals(self, capsys):
        rng = random.Random(1000)
        factors = [rng.randint(1, 9) for _ in range(1000)]
        product = 1
        for f in factors:
            product *= f
        code, out, _ = run(capsys, "eval", "*".join(map(str, factors)), "--digits", "3")
        assert code == 0 and within_ulp(out, product, 3)


# -- random expression trees against an independent evaluator -----------------

SEP_BUDGET = 2 ** 20
leaves = st.one_of(
    st.fractions(min_value=0, max_value=99, max_denominator=99).map(lambda q: ("lit", q)),
    st.fractions(min_value=Fraction(1, 99), max_value=99,
                 max_denominator=99).map(lambda q: ("sqrt", q)))


@st.composite
def chains(draw, pool, max_size):
    kind = draw(st.sampled_from("+*"))
    ops = "+-" if kind == "+" else "*/"
    items = draw(st.lists(st.tuples(st.sampled_from(ops), st.sampled_from(pool)),
                          min_size=1, max_size=max_size))
    return ("chain", kind, [(kind, items[0][1])] + items[1:])


@st.composite
def trees(draw):
    """Chains over a small pool of leaves and shorter chains, so that
    subtrees repeat; the top chain has up to 30 operands."""
    pool = draw(st.lists(leaves, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        pool.append(draw(chains(pool, 6)))
    return draw(chains(pool, 30))


def render(tree):
    tag = tree[0]
    if tag == "chain":
        _, kind, items = tree
        text = render(items[0][1]) + "".join(f" {op} {render(sub)}" for op, sub in items[1:])
        return f"({text})"
    q = tree[1]
    text = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return f"sqrt({text})" if tag == "sqrt" else f"({text})"


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(tree=trees())
    def test_digits_match_the_interval_evaluator(self, tree):
        code, out, err = run_captured("eval", render(tree), "--digits", "20")
        try:
            lo, hi, divisors = tree_reference(tree)
        except DivisorMeetsZero:
            # a divisor within 10^-25 of zero cannot be separated at 2^20
            assert (code, out) == (3, ""), err
            return
        # a divisor at least 2/budget away from zero always is separated
        near = any(min(abs(a), abs(b)) < Fraction(2, SEP_BUDGET) for a, b in divisors)
        assert code == 0 or (near and code == 3), err
        if code == 0:
            printed = Fraction(out.strip())
            slack = Fraction(1, 10 ** 20)
            assert lo - slack <= printed <= hi + slack

    @pytest.mark.parametrize("src", ["1 / (2/3 - 2/3)", "sqrt(2) / (1 - 1) * 3",
                                     "1 + 2 / (sqrt(3) * 0)"])
    def test_division_by_an_exact_zero_exits_3(self, capsys, src):
        code, out, err = run(capsys, "eval", src)
        assert (code, out) == (3, "")
        assert "denominator" in err


class TestTotality:
    @settings(max_examples=150, deadline=None)
    @given(src=st.text(max_size=40), digits=st.integers(0, 50))
    def test_eval_ends_in_a_documented_code(self, src, digits):
        code, _, _ = run_captured("eval", "--digits", str(digits), "--", src)
        assert code in (0, 2, 3, 4)

    @settings(max_examples=100, deadline=None)
    @given(a=st.text(max_size=40), b=st.text(max_size=40),
           k=st.integers(1, 10 ** 30))
    def test_compare_ends_in_a_documented_code(self, a, b, k):
        code, _, _ = run_captured("compare", "--k", str(k), "--", a, b)
        assert code in (0, 2, 3, 4)


class TestUsage:
    def test_each_command_has_only_the_flags_it_reads(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        flags = {name: {flag for action in command._actions
                        for flag in action.option_strings} - {"-h", "--help"}
                 for name, command in sub.choices.items()}
        assert flags == {
            "eval": {"--digits", "--sep-budget"},
            "compare": {"--k", "--sep-budget"},
            "sqrt": {"--digits", "--mode", "--lub-steps"},
            "lub-demo": {"--digits", "--mode", "--lub-steps", "--descent-budget"},
        }

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
