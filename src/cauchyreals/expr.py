"""Arithmetic expressions over exact rationals with sqrt, abs, min, max.

Every square root is computed by `math.isqrt` on a scaled approximation of
its radicand (`sqrt_real`); the oracle-driven `lub` engines are not used here.

Grammar (whitespace between tokens is ignored, operators are
left-associative):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := NUMBER | '(' expr ')' | '-' factor
             | FUNC '(' expr (',' expr)? ')'
    NUMBER  := digits | digits '/' digits | digits '.' digits
    FUNC    := 'sqrt' | 'abs' | 'min' | 'max'

Digits are ASCII 0-9 only.  A '/' directly between digits forms a single
rational literal ("1/2"); with whitespace around it ("1 / 2") it is the
division operator.  The two parse differently but denote the same value.
Decimal literals are exact powers of ten ("2.71828" is 271828/100000), never
binary floats.

Syntax errors carry the byte offset of the offending position and the set of
tokens that would have been acceptable there.

Nesting is capped at MAX_DEPTH levels, where each '(', function call and
unary '-' opens one level.  The token that opens a level beyond the cap is
a parse error, so that nesting cannot exhaust the Python stack of the parser
or of the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import NegativeRadicand, ParseError
from .rational import Rational, int_from_digits
from .real import (DEFAULT_SEPARATION_BUDGET, NOT_SEPARATED, Real, Verdict,
                   ZERO, divide, find_apartness, from_rational, maximum,
                   minimum, separate)

__all__ = [
    "Expr",
    "RationalLit", "Neg", "Add", "Sub", "Mul", "Div",
    "Sqrt", "Abs", "Min", "Max",
    "parse",
    "evaluate",
    "sqrt_real",
]


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class RationalLit:
    value: Rational


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Abs:
    operand: "Expr"


@dataclass(frozen=True)
class Sqrt:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Min:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Max:
    left: "Expr"
    right: "Expr"


Expr = Union[RationalLit, Neg, Abs, Sqrt, Add, Sub, Mul, Div, Min, Max]

_FUNCTIONS = {"sqrt": Sqrt, "abs": Abs, "min": Min, "max": Max}
_UNARY = {"sqrt", "abs"}


# -- tokenizer ----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "name", one of "+-*/(),", "end"
    text: str
    offset: int


_DIGITS = frozenset("0123456789")


def _tokenize(src):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c in _DIGITS:
            while i < n and src[i] in _DIGITS:
                i += 1
            if i + 1 < n and src[i] in "./" and src[i + 1] in _DIGITS:
                i += 1
                while i < n and src[i] in _DIGITS:
                    i += 1
            tokens.append(_Token("number", src[start:i], start))
        elif c.isalpha():
            while i < n and src[i].isalpha():
                i += 1
            tokens.append(_Token("name", src[start:i], start))
        elif c in "+-*/(),":
            tokens.append(_Token(c, c, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", offset=i)
    tokens.append(_Token("end", "", n))
    return tokens


def _literal_value(token):
    text = token.text
    if "/" in text:
        num, den = text.split("/")
        den = int_from_digits(den)
        if den == 0:
            raise ParseError("zero denominator in rational literal",
                             offset=token.offset)
        return Rational(int_from_digits(num), den)
    if "." in text:
        whole, frac = text.split(".")
        return Rational(int_from_digits(whole + frac), 10 ** len(frac))
    return Rational(int_from_digits(text))


# -- parser -------------------------------------------------------------------

_FACTOR_EXPECTED = ("number", "'('", "'-'", "function name")

MAX_DEPTH = 100


class _Parser:
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
        """Run the parse method `rule` one nesting level deeper."""
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
            return RationalLit(_literal_value(token))
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
        got = repr(token.text) if token.kind != "end" else "end of input"
        raise ParseError(f"expected {' or '.join(_FACTOR_EXPECTED)}, got {got}",
                         offset=token.offset, expected=_FACTOR_EXPECTED)

    def parse_call(self):
        name_token = self.advance()
        name = name_token.text
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}",
                             offset=name_token.offset,
                             expected=tuple(sorted(_FUNCTIONS)))
        self.expect("(", ("'('",))
        first = self.parse_expr()
        if name in _UNARY:
            self.expect(")", ("')'",))
            return _FUNCTIONS[name](first)
        self.expect(",", ("','",))
        second = self.parse_expr()
        self.expect(")", ("')'",))
        return _FUNCTIONS[name](first, second)


def parse(src: str) -> Expr:
    """Parse a source string into an Expr, or raise a positioned ParseError."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         offset=trailing.offset,
                         expected=("'+'", "'-'", "'*'", "'/'", "end of input"))
    return node


# -- evaluation ---------------------------------------------------------------


def _root_midpoint(a: Rational, k: int) -> Rational:
    """Rational within 1/(4k) of sqrt(a), for a >= 0.

    With 2^n >= 2k and m = isqrt(floor(a*4^n)), the root lies in the dyadic
    bracket [m/2^n, (m+1)/2^n]; its midpoint is within 2^-(n+1) <= 1/(4k).
    """
    n = k.bit_length() + 1
    m = math.isqrt((a.numerator << 2 * n) // a.denominator)
    return Rational(2 * m + 1, 1 << (n + 1))


def sqrt_real(x: Real, sep_budget: int = DEFAULT_SEPARATION_BUDGET) -> Real:
    """Square root of a nonnegative real, by integer square roots.

    approx(k) reads the radicand at a precision p, clamps the reading a at
    zero and returns `_root_midpoint(a, k)`, within 1/(4k) of sqrt(a).  p is
    chosen so that |sqrt(a) - sqrt(x)| <= 1/(2k):

    * an exactly-rational radicand is read exactly (perfect squares
      short-circuit to their exact roots);
    * a radicand with an apartness witness x >= 1/k0 is read at
      p = 2k*(isqrt(k0) + 1), since there |sqrt(a) - sqrt(x)| <= |a - x|*sqrt(k0);
    * a radicand within 3/sep_budget of zero, where no witness exists,
      is read at p = 4k^2, since |sqrt(a) - sqrt(x)| <= sqrt(|a - x|).

    A radicand certified negative raises NegativeRadicand: at construction
    when `separate` at sep_budget or the witness's sign says so, during
    approx(k) when a reading falls below -1/p.
    """
    exact = x.exact_value()
    if exact is not None:
        if exact < 0:
            raise NegativeRadicand(f"radicand {exact} is negative")
        root_num = math.isqrt(exact.numerator)
        root_den = math.isqrt(exact.denominator)
        if root_num ** 2 == exact.numerator and root_den ** 2 == exact.denominator:
            return from_rational(Rational(root_num, root_den))
        return Real(lambda k: _root_midpoint(exact, k))
    if separate(x, ZERO, sep_budget) is Verdict.LESS:
        raise NegativeRadicand(
            f"radicand certified negative at precision {sep_budget}")
    witness = find_apartness(x, sep_budget)
    scale = None
    if witness is not NOT_SEPARATED:
        if x.approx(2 * witness.k0) < 0:
            raise NegativeRadicand(
                f"radicand certified at most -1/{witness.k0}")
        scale = 2 * (math.isqrt(witness.k0) + 1)

    def compute(k):
        p = 4 * k * k if scale is None else scale * k
        a = x.approx(p)
        if a < Rational(-1, p):
            raise NegativeRadicand(f"radicand certified negative at precision {p}")
        return _root_midpoint(a, k) if a > 0 else Rational(0)

    return Real(compute)


def evaluate(expr: "Expr | str",
             sep_budget: int = DEFAULT_SEPARATION_BUDGET) -> Real:
    """Evaluate an Expr (or source string) to a Real.

    Division separates the denominator from zero within sep_budget and
    raises DivisionNotSeparated when it cannot; a certified-negative sqrt
    radicand raises NegativeRadicand; exhausted search budgets raise
    BudgetExceeded.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    return _eval(expr, sep_budget)


def _eval(node, sep_budget):
    if isinstance(node, RationalLit):
        return from_rational(node.value)
    if isinstance(node, Neg):
        return -_eval(node.operand, sep_budget)
    if isinstance(node, Abs):
        return abs(_eval(node.operand, sep_budget))
    if isinstance(node, Sqrt):
        return sqrt_real(_eval(node.operand, sep_budget), sep_budget)
    if isinstance(node, Add):
        return _eval(node.left, sep_budget) + _eval(node.right, sep_budget)
    if isinstance(node, Sub):
        return _eval(node.left, sep_budget) - _eval(node.right, sep_budget)
    if isinstance(node, Mul):
        return _eval(node.left, sep_budget) * _eval(node.right, sep_budget)
    if isinstance(node, Div):
        return divide(_eval(node.left, sep_budget),
                      _eval(node.right, sep_budget), sep_budget)
    if isinstance(node, Min):
        return minimum(_eval(node.left, sep_budget), _eval(node.right, sep_budget))
    if isinstance(node, Max):
        return maximum(_eval(node.left, sep_budget), _eval(node.right, sep_budget))
    raise TypeError(f"not an expression node: {node!r}")
