"""Parser and evaluator: grammar, positioned errors, budget semantics."""

import gc
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchyreals import (
    Abs,
    Add,
    Div,
    DivisionNotSeparated,
    Error,
    Max,
    Min,
    Mul,
    Neg,
    NegativeRadicand,
    ParseError,
    RationalLit,
    Sqrt,
    Sub,
    evaluate,
    parse,
    sqrt_real,
    to_decimal,
)
from cauchyreals import Real, find_apartness, from_rational, lub_bisection, sqrt_oracle
from cauchyreals import expr as expr_module
from cauchyreals.expr import MAX_DEPTH, _tokenize
from cauchyreals.rational import int_from_digits

from support import assert_regular, assert_within, drifting


def lit(n, d=1):
    return RationalLit(Fraction(n, d))


class TestParse:
    def test_fraction_literals(self):
        assert parse("1/2 + 1/3") == Add(lit(1, 2), lit(1, 3))

    def test_sqrt_product(self):
        assert parse("sqrt(2) * sqrt(2)") == Mul(Sqrt(lit(2)), Sqrt(lit(2)))

    def test_decimal_literal_is_exact_power_of_ten(self):
        assert parse("2.71828") == lit(271828, 100000)

    def test_fraction_literal_binds_tighter_than_division(self):
        assert parse("1/2") == lit(1, 2)
        assert parse("1 / 2") == Div(lit(1), lit(2))
        # both denote the same value
        a = evaluate("1/2").approx(10 ** 6)
        b = evaluate("1 / 2").approx(10 ** 6)
        assert abs(a - b) <= Fraction(2, 10 ** 6)

    def test_left_associativity(self):
        assert parse("1 - 2 - 3") == Sub(Sub(lit(1), lit(2)), lit(3))
        assert parse("8 / 4 / 2") == Div(Div(lit(8), lit(4)), lit(2))

    def test_precedence(self):
        assert parse("2 + 3 * 4") == Add(lit(2), Mul(lit(3), lit(4)))
        assert parse("(2 + 3) * 4") == Mul(Add(lit(2), lit(3)), lit(4))

    def test_unary_minus(self):
        assert parse("-2") == Neg(lit(2))
        assert parse("--2") == Neg(Neg(lit(2)))
        assert parse("2 * -3") == Mul(lit(2), Neg(lit(3)))

    def test_two_argument_functions(self):
        assert parse("min(1, 2)") == Min(lit(1), lit(2))
        assert parse("max(1/3, 0.25)") == Max(lit(1, 3), lit(1, 4))

    def test_whitespace_insensitive(self):
        assert parse(" sqrt( 2 )*sqrt (2) ") == parse("sqrt(2)*sqrt(2)")


class TestParseErrors:
    def test_dangling_operator(self):
        with pytest.raises(ParseError) as info:
            parse("1 +")
        assert info.value.offset == 3
        assert info.value.expected  # the acceptable-token set is reported

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse("1 % 2")
        assert info.value.offset == 2

    def test_unknown_function(self):
        with pytest.raises(ParseError) as info:
            parse("log(2)")
        assert info.value.offset == 0
        assert "sqrt" in info.value.expected

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("min(1)")
        with pytest.raises(ParseError):
            parse("sqrt(1, 2)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError) as info:
            parse("(1 + 2")
        assert info.value.offset == 6

    def test_trailing_input(self):
        with pytest.raises(ParseError) as info:
            parse("1 2")
        assert info.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert info.value.offset == 0

    def test_double_slash(self):
        with pytest.raises(ParseError):
            parse("1//2")

    def test_dangling_decimal_point(self):
        with pytest.raises(ParseError):
            parse("1.")

    def test_zero_denominator_literal(self):
        with pytest.raises(ParseError):
            parse("1/0")

    @pytest.mark.parametrize("src", ["\u00b9", "1\u00b2", "\u0661", "2/\u0663", "1.\u0665"])
    def test_digits_are_ascii(self, src):
        # superscripts and other scripts' digits are not number tokens
        with pytest.raises(ParseError):
            parse(src)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_parser_is_total(self, src):
        # anything either parses or raises a positioned ParseError; no crashes
        try:
            parse(src)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(src)


def reference_tokenize(src):
    """The lexer as it was before it took one regular expression: a loop
    over characters (`str.isspace`, ASCII digits, `str.isalpha`)."""
    digits = "0123456789"
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c in digits:
            while i < n and src[i] in digits:
                i += 1
            if i + 1 < n and src[i] in "./" and src[i + 1] in digits:
                i += 1
                while i < n and src[i] in digits:
                    i += 1
            tokens.append(("number", src[start:i], start))
        elif c.isalpha():
            while i < n and src[i].isalpha():
                i += 1
            tokens.append(("name", src[start:i], start))
        elif c in "+-*/(),":
            tokens.append((c, c, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", offset=i)
    tokens.append(("end", "", n))
    return tokens


def token_stream(tokenize, src):
    try:
        return [tuple(token) for token in tokenize(src)]
    except ParseError as exc:
        return (str(exc), exc.offset)


class TestLexer:
    # ASCII digits, operators, letters and spaces, plus a digit of another
    # script, a superscript, a vulgar fraction, an accented letter, a
    # control character that is whitespace and an ideographic space
    ALPHABET = ("0123456789" + "+-*/(),." + "sqrtabminxyz_QW" + " \t\n"
                + "\u0662\u00b9\u00bd\u00e9\x1c\u3000")

    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=30))
    def test_matches_the_character_loop(self, src):
        assert token_stream(_tokenize, src) == token_stream(reference_tokenize, src)

    @pytest.mark.parametrize("src", [
        "", "  ", "1/2/3", "1./2", "1.5.5", "sqrt\u00bd", "ab\u00e9cd", "\u00bdab",
        "x_y", "1\u3000+\x1c2", "12/ 3", "\u0662", "sqrt(2)*abs(1.25)",
    ])
    def test_examples_match_the_character_loop(self, src):
        assert token_stream(_tokenize, src) == token_stream(reference_tokenize, src)


def reference_literal_value(token):
    """`expr._literal_value` as it was before literals had one reader."""
    text = token.text
    if "/" in text:
        num, den = text.split("/")
        den = int_from_digits(den)
        if den == 0:
            raise ParseError("zero denominator in rational literal",
                             offset=token.offset)
        return Fraction(int_from_digits(num), den)
    if "." in text:
        whole, frac = text.split(".")
        return Fraction(int_from_digits(whole + frac), 10 ** len(frac))
    return Fraction(int_from_digits(text))


class ReferenceParser:
    """The parser as it was before it became one function: a class with one
    method per grammar rule and a nesting counter."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind, expected):
        token = self.peek()
        if token.kind != kind:
            got = repr(token.text) if token.kind != "end" else "end of input"
            raise ParseError(f"expected {' or '.join(expected)}, got {got}",
                             offset=token.offset, expected=expected)
        return self.advance()

    def nested(self, rule, opener):
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                             offset=opener.offset)
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            right = self.parse_factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def parse_factor(self):
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return RationalLit(reference_literal_value(token))
        if token.kind == "(":
            self.advance()
            node = self.nested(self.parse_expr, token)
            self.expect(")", ("')'",))
            return node
        if token.kind == "-":
            self.advance()
            return Neg(self.nested(self.parse_factor, token))
        if token.kind == "name":
            return self.nested(self.parse_call, token)
        expected = ("number", "'('", "'-'", "function name")
        got = repr(token.text) if token.kind != "end" else "end of input"
        raise ParseError(f"expected {' or '.join(expected)}, got {got}",
                         offset=token.offset, expected=expected)

    def parse_call(self):
        functions = {"sqrt": Sqrt, "abs": Abs, "min": Min, "max": Max}
        name_token = self.advance()
        name = name_token.text
        if name not in functions:
            raise ParseError(f"unknown function {name!r}",
                             offset=name_token.offset,
                             expected=tuple(sorted(functions)))
        self.expect("(", ("'('",))
        first = self.parse_expr()
        if name in ("sqrt", "abs"):
            self.expect(")", ("')'",))
            return functions[name](first)
        self.expect(",", ("','",))
        second = self.parse_expr()
        self.expect(")", ("')'",))
        return functions[name](first, second)


def reference_parse(src):
    parser = ReferenceParser(_tokenize(src))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         offset=trailing.offset,
                         expected=("'+'", "'-'", "'*'", "'/'", "end of input"))
    return node


def parse_outcome(parse_fn, src):
    try:
        return parse_fn(src)
    except ParseError as exc:
        return (str(exc), exc.offset, exc.expected)


# token-ish pieces: every token kind, names known and unknown, calls and
# argument lists, literals of each form (zero denominators too), spacing and
# characters the lexer refuses
PIECES = ["0", "1", "7", "12", "1/2", "3/0", "0/5", "2.5", "0.0", "10/4",
          "+", "-", "*", "/", "(", ")", ",", "sqrt", "abs", "min", "max",
          "sqrt(", "abs(", "min(", "max(", "log(", "1,2)", "3)",
          "log", "x", " ", "  ", ".", "%", "\u00bd"]


class TestParserOracle:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=25).map("".join))
    def test_matches_the_reference_parser(self, src):
        assert parse_outcome(parse, src) == parse_outcome(reference_parse, src)

    @pytest.mark.parametrize("src", [
        "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
        "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1),
        "(" * 1000 + "1" + ")" * 1000,
        "-" * MAX_DEPTH + "1",
        "-" * (MAX_DEPTH + 1) + "1",
        "sqrt(" * MAX_DEPTH + "2" + ")" * MAX_DEPTH,
        "sqrt(" * (MAX_DEPTH - 1) + "log(2" + ")" * MAX_DEPTH,
        "sqrt(" * MAX_DEPTH + "log(2" + ")" * (MAX_DEPTH + 1),
        "min(" * MAX_DEPTH + "1" + ",2)" * MAX_DEPTH,
        "+".join(["sqrt(2)"] * 192),
        # dataclass == recurses, so these chains stay well below 500 nodes
        "*".join(["1/3"] * 150) + "-" + "/".join(["2.5"] * 150),
    ], ids=["parens-at-cap", "parens-past-cap", "parens-1000", "minus-at-cap",
            "minus-past-cap", "sqrt-at-cap", "unknown-at-cap",
            "unknown-past-cap", "min-at-cap", "sum-of-roots", "chains"])
    def test_examples_match_the_reference_parser(self, src):
        assert parse_outcome(parse, src) == parse_outcome(reference_parse, src)

    def test_parsing_leaves_no_reference_cycles(self):
        # garbage left in cycles would hold every token of the source until
        # the next full collection
        gc.collect()
        gc.disable()
        try:
            for src in ("+".join(["sqrt(1/3)"] * 50), "(1+", "sqrt(" * 101):
                parse_outcome(parse, src)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEvaluate:
    def test_rational_arithmetic(self):
        x = evaluate("1/2 + 1/3")
        assert x.exact_value() == Fraction(5, 6)

    def test_sqrt2_squared(self):
        x = evaluate("sqrt(2) * sqrt(2)")
        for k in (10, 100, 1000, 10 ** 4):
            assert abs(x.approx(k) - 2) <= Fraction(2, k)

    def test_division_of_vanishing_denominator(self):
        with pytest.raises(DivisionNotSeparated):
            evaluate("1/(1/3 - 1/3)")

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            evaluate("sqrt(0 - 4)")

    def test_division_budget_is_configurable(self):
        with pytest.raises(DivisionNotSeparated):
            # |den| = 1/1000 < 3/64 is below the budget
            evaluate("1 / 0.001", sep_budget=64)
        x = evaluate("1 / 0.001", sep_budget=2 ** 14)
        assert_within(x, 1000, (1, 10, 100))

    def test_min_max_abs(self):
        assert evaluate("min(1/3, 1/2)").exact_value() == Fraction(1, 3)
        assert evaluate("max(1/3, 1/2)").exact_value() == Fraction(1, 2)
        assert evaluate("abs(0 - 2/3)").exact_value() == Fraction(2, 3)

    def test_perfect_square_root_is_exact(self):
        assert evaluate("sqrt(4)").exact_value() == 2
        assert evaluate("sqrt(9/16)").exact_value() == Fraction(3, 4)

    def test_nested_square_roots(self):
        x = evaluate("sqrt(sqrt(2))")
        # independent digits: floor(2^(1/4) * 10^6) via two integer sqrts
        oracle = math.isqrt(math.isqrt(2 * 10 ** 24))
        for k in (10, 100, 1000):
            assert abs(x.approx(k) - Fraction(oracle, 10 ** 6)) \
                <= Fraction(1, k) + Fraction(2, 10 ** 6)

    def test_sqrt_of_vanishing_value_is_zero(self):
        x = evaluate("sqrt(sqrt(2) - sqrt(2))")
        for k in (1, 10, 100):
            assert abs(x.approx(k)) <= Fraction(1, k)

    def test_sqrt_real_rejects_certified_negative(self):
        with pytest.raises(NegativeRadicand):
            sqrt_real(drifting(Fraction(-1, 2)))

    def test_compound_expression(self):
        # (1 + sqrt(2)) * (sqrt(2) - 1) = 1 exactly
        x = evaluate("(1 + sqrt(2)) * (sqrt(2) - 1)")
        for k in (10, 100, 1000):
            assert abs(x.approx(k) - 1) <= Fraction(2, k)


class TestChains:
    def test_repeated_subtree_is_built_once(self, monkeypatch):
        calls = []

        def counting(x, sep_budget):
            calls.append(x)
            return sqrt_real(x, sep_budget)

        monkeypatch.setattr(expr_module, "sqrt_real", counting)
        x = evaluate("+".join(["sqrt(2)"] * 50))
        assert len(calls) == 1
        # 50*sqrt(2) = sqrt(5000): floor(sqrt(5000) * 10^10) by isqrt
        printed = x.decimal(10)
        assert abs(int(printed.replace(".", "")) - math.isqrt(5000 * 10 ** 20)) <= 1

    def test_repeated_chains_are_shared(self, monkeypatch):
        calls = []

        def counting(x, sep_budget):
            calls.append(x)
            return sqrt_real(x, sep_budget)

        monkeypatch.setattr(expr_module, "sqrt_real", counting)
        evaluate("sqrt(1 + 2*sqrt(3)) - sqrt(1 + 2*sqrt(3)) * (1 + 2*sqrt(3))")
        # sqrt(3) once, then sqrt(1 + 2*sqrt(3)) once
        assert len(calls) == 2

    @pytest.mark.parametrize("src,error", [
        ("1/(sqrt(2)-sqrt(2)) + sqrt(0-1)", DivisionNotSeparated),
        ("sqrt(0-1) + 1/(sqrt(2)-sqrt(2))", NegativeRadicand),
        ("2 * 3/(1/3-1/3) * sqrt(0-1)", DivisionNotSeparated),
        ("2 * sqrt(0-1) / (1/3-1/3)", NegativeRadicand),
        ("1/(1-1) / sqrt(0-1)", DivisionNotSeparated),
    ])
    def test_errors_come_left_to_right(self, src, error):
        with pytest.raises(error):
            evaluate(src)

    def test_division_message_is_the_one_of_divide(self):
        from cauchyreals import divide
        with pytest.raises(DivisionNotSeparated) as chain:
            evaluate("1/2 * 3 / (sqrt(2) - sqrt(2)) * 5", sep_budget=64)
        with pytest.raises(DivisionNotSeparated) as binary:
            divide(from_rational(1), evaluate("sqrt(2) - sqrt(2)"), 64)
        assert str(chain.value) == str(binary.value)

    @pytest.mark.parametrize("src,value", [
        ("1 - 2 + 3 - 4 + 5", 3),
        ("2 - (3 - 4) - -5", 8),
        ("1/2 * 3 / 4 * 5 / 6", Fraction(5, 16)),
        ("2 / (3 / 4) / (5 * 6)", Fraction(4, 45)),
        ("(1 + 2) * 3 - 4 / 2 * (5 - 1)", 1),
        ("3 * 0 * 5", 0),
        ("1/2 - 1/2 + 1/3 - 1/3", 0),
    ])
    def test_exact_chains(self, src, value):
        assert evaluate(src).exact_value() == value

    def test_mixed_chain_digits(self):
        # (sqrt(2) + sqrt(2) - sqrt(8)/2) * sqrt(2) / 2 * 3 = 3
        x = evaluate("(sqrt(2) + sqrt(2) - sqrt(8)/2) * sqrt(2) / 2 * 3")
        assert abs(x.approx(10 ** 12) - 3) <= Fraction(2, 10 ** 12)
        assert_regular(x)


class TestPrintedAccuracy:
    def test_rational_digits(self):
        assert evaluate("1/3").decimal(5) == "0.33333"

    def test_sqrt2_ten_digits(self):
        printed = evaluate("sqrt(2)").decimal(10)
        oracle = math.isqrt(2 * 10 ** 20)  # floor of sqrt2 * 10^10
        assert abs(int(printed.replace(".", "")) - oracle) <= 1

    def test_decimal_literal_round_trip(self):
        assert evaluate("2.71828").decimal(5) == "2.71828"

    @given(q=st.fractions(min_value=-99, max_value=99, max_denominator=999),
           digits=st.integers(0, 8))
    def test_round_trip_through_printer(self, q, digits):
        printed = to_decimal(q, digits)
        again = evaluate(printed if q >= 0 else f"0 - {printed.lstrip('-')}")
        assert abs(again.approx(10 ** 9) - q) <= Fraction(1, 10 ** digits)

    def test_sqrt_command_matches_eval(self):
        a = evaluate("sqrt(7)").decimal(15)
        b = lub_bisection(sqrt_oracle(7), 3).decimal(15)
        assert abs(int(a.replace(".", "")) - int(b.replace(".", ""))) <= 1


# Independent oracles for square-root digits: floor(sqrt(c) * 10^d) is
# isqrt(floor(c * 10^(2d))), because isqrt(floor(y)) = floor(sqrt(y)).

def root_digits(c, digits):
    c = Fraction(c)
    return math.isqrt(c.numerator * 10 ** (2 * digits) // c.denominator)


def printed_units(text):
    return int(text.replace(".", ""))


integer_radicands = st.integers(0, 10 ** 12).map(lambda n: (str(n), Fraction(n)))
ratio_radicands = st.tuples(st.integers(0, 10 ** 6), st.integers(1, 10 ** 6)).map(
    lambda t: (f"{t[0]}/{t[1]}", Fraction(*t)))
decimal_radicands = st.tuples(st.integers(0, 10 ** 6), st.integers(1, 8)).flatmap(
    lambda t: st.integers(0, 10 ** t[1] - 1).map(
        lambda frac: (f"{t[0]}.{frac:0{t[1]}d}",
                      t[0] + Fraction(frac, 10 ** t[1]))))


class TestIntegerSquareRoot:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(integer_radicands, ratio_radicands, decimal_radicands))
    def test_rational_radicand_digits(self, radicand):
        text, c = radicand
        x = evaluate(f"sqrt({text})")
        for digits in (10, 1000):
            assert abs(printed_units(x.decimal(digits)) - root_digits(c, digits)) <= 1

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 10 ** 6))
    def test_fourth_root_digits(self, n):
        # isqrt(isqrt(N)) = floor(N^(1/4)), so the oracle is exact
        digits = 1000
        oracle = math.isqrt(math.isqrt(n * 10 ** (4 * digits)))
        printed = evaluate(f"sqrt(sqrt({n}))").decimal(digits)
        assert abs(printed_units(printed) - oracle) <= 1

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000), st.integers(2, 10 ** 6))
    def test_nested_radical_digits(self, a, b):
        # s = floor(sqrt(b) * 10^(2d)) brackets sqrt(a + sqrt(b)) * 10^d
        # between isqrt(a*10^(2d) + s) and isqrt(a*10^(2d) + s + 1)
        digits = 1000
        s = math.isqrt(b * 10 ** (4 * digits))
        lo = math.isqrt(a * 10 ** (2 * digits) + s)
        hi = math.isqrt(a * 10 ** (2 * digits) + s + 1)
        printed = printed_units(evaluate(f"sqrt({a} + sqrt({b}))").decimal(digits))
        assert lo - 1 <= printed <= hi + 1

    @pytest.mark.parametrize("radicand", [
        evaluate("1 + sqrt(2)"),
        evaluate("sqrt(2) - sqrt(2)"),  # within 3/budget of zero: no witness
        drifting(Fraction(3, 7)),
        drifting(Fraction(1, 10 ** 9)),
    ], ids=["witnessed", "vanishing", "drifting", "drifting-near-zero"])
    def test_real_radicand_root_is_regular(self, radicand):
        assert_regular(sqrt_real(radicand))

    def test_witnessed_radicand_precision_request(self):
        # The radicand records every precision it is asked for; its values
        # 1/50 + (-1)^k/(2k) are within 1/k of 1/50.
        asked = []

        def compute(k):
            asked.append(k)
            return Fraction(1, 50) + Fraction((-1) ** k, 2 * k)

        x = Real(compute)
        k0 = find_apartness(x).k0
        root = sqrt_real(x)
        # sqrt(1/50) lies in [lo, lo + 10^-40)
        lo = Fraction(root_digits(Fraction(1, 50), 40), 10 ** 40)
        for k in (10, 1000, 10 ** 6, 10 ** 12):
            asked.clear()
            value = root.approx(k)
            assert asked and max(asked) <= 2 * k * (math.isqrt(k0) + 1) < 4 * k * k
            assert lo - Fraction(1, k) <= value <= lo + Fraction(1, 10 ** 40) + Fraction(1, k)

    @pytest.mark.parametrize("value", [Fraction(-1, 128), Fraction(-5, 512),
                                       Fraction(-47, 4096)])
    def test_radicand_just_below_zero_is_rejected(self, value):
        # budget K = 64: value lies in (-3/(4K), -1/(2K)], where separate()
        # alone may answer CLOSE
        for x in (drifting(value), evaluate("sqrt(2) - sqrt(2)") + value):
            with pytest.raises(NegativeRadicand):
                sqrt_real(x, sep_budget=64).approx(10 ** 4)

    def test_shared_root_across_threads(self):
        root = evaluate("sqrt(1 + sqrt(2)) + sqrt(3)")
        ladder = [10 ** e for e in range(1, 60, 3)]
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def work(i):
            barrier.wait(timeout=60)
            results[i] = [root.approx(k) for k in ladder]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        fresh = evaluate("sqrt(1 + sqrt(2)) + sqrt(3)")
        assert all(r == results[0] for r in results)
        assert results[0] == [fresh.approx(k) for k in ladder]
