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
a parse error, so that nesting cannot exhaust the Python stack of the
parser, and bounds the depth of the evaluation.  Chains of '+'/'-' or
'*'/'/' open no level: the parser builds them in loops, and `evaluate` walks
each as one n-ary node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import neg
from typing import NamedTuple, Union

from .errors import NegativeRadicand, ParseError
from .rational import Rational, rational_from_digits
from .real import (DEFAULT_SEPARATION_BUDGET, NOT_SEPARATED, Real, Verdict,
                   ZERO, find_apartness, from_rational, invert, maximum,
                   minimum, product_of, separate, sum_of)

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


# -- tokenizer ----------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "number", "name", one of "+-*/(),", "end"
    text: str
    offset: int


# Whitespace (`\s` is exactly `str.isspace`), then one of: a number, an
# operator, a run of word characters other than digits and '_' (a superset
# of `str.isalpha`), or any other character but whitespace.  A '/' or '.'
# joins two digit runs into one number only when a digit follows it.
_TOKEN = re.compile(r"\s*(?:([0-9]+(?:[./][0-9]+)?)|([-+*/(),])|([^\W\d_]+)|(\S))")


def _tokenize(src):
    tokens = []
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        text = m[group]
        offset = m.start(group)
        if group == 1:
            kind = "number"
        elif group == 2:
            kind = text
        elif group == 3 and text.isalpha():
            kind = "name"
        else:
            if group == 3:
                # a numeral such as '½' ends the letters of a name
                while text[0].isalpha():
                    text = text[1:]
                    offset += 1
            raise ParseError(f"unexpected character {text[0]!r}", offset=offset)
        tokens.append(_Token(kind, text, offset))
    tokens.append(_Token("end", "", len(src)))
    return tokens


def _literal_value(token):
    whole, _, den = token.text.partition("/")
    whole, _, frac = whole.partition(".")
    try:
        return rational_from_digits(whole, frac, den)
    except ZeroDivisionError:
        raise ParseError("zero denominator in rational literal",
                         offset=token.offset) from None


# -- parser -------------------------------------------------------------------

_FACTOR_EXPECTED = ("number", "'('", "'-'", "function name")

MAX_DEPTH = 100


def _unexpected(token, expected):
    got = repr(token.text) if token.kind != "end" else "end of input"
    return ParseError(f"expected {' or '.join(expected)}, got {got}",
                      offset=token.offset, expected=expected)


def parse(src: str) -> Expr:
    """Parse a source string into an Expr, or raise a positioned ParseError."""
    tokens = _tokenize(src)
    pos = 0

    def expect(kind, expected):
        nonlocal pos
        if tokens[pos].kind != kind:
            raise _unexpected(tokens[pos], expected)
        pos += 1

    def expr(depth):
        nonlocal pos
        node = term(depth)
        while tokens[pos].kind in ("+", "-"):
            op = tokens[pos].kind
            pos += 1
            right = term(depth)
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(depth):
        nonlocal pos
        node = factor(depth)
        while tokens[pos].kind in ("*", "/"):
            op = tokens[pos].kind
            pos += 1
            right = factor(depth)
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def factor(depth):
        """A factor at nesting level depth; '(', '-' and a function name
        each open one more level."""
        nonlocal pos
        token = tokens[pos]
        kind = token.kind
        if kind == "number":
            pos += 1
            return RationalLit(_literal_value(token))
        if kind not in ("(", "-", "name"):
            raise _unexpected(token, _FACTOR_EXPECTED)
        if depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                             offset=token.offset)
        pos += 1
        if kind == "-":
            return Neg(factor(depth + 1))
        if kind == "(":
            node = expr(depth + 1)
            expect(")", ("')'",))
            return node
        make = _FUNCTIONS.get(token.text)
        if make is None:
            raise ParseError(f"unknown function {token.text!r}",
                             offset=token.offset,
                             expected=tuple(sorted(_FUNCTIONS)))
        expect("(", ("'('",))
        args = [expr(depth + 1)]
        if make is Min or make is Max:
            expect(",", ("','",))
            args.append(expr(depth + 1))
        expect(")", ("')'",))
        return make(*args)

    try:
        node = expr(0)
    finally:
        # The rules reach each other through their closures, a reference
        # cycle that would keep the tokens alive until a full collection.
        del expr, term, factor
    trailing = tokens[pos]
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

    Every left-leaning run of '+'/'-' is one `sum_of` and every run of
    '*'/'/' one `product_of`, walked without recursion.  Identical subtrees
    are built once: a node is keyed on the function that builds it and the
    identities of the Reals it is built from (a literal on its value).

    Division separates the denominator from zero within sep_budget and
    raises DivisionNotSeparated when it cannot; a certified-negative sqrt
    radicand raises NegativeRadicand; exhausted search budgets raise
    BudgetExceeded.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    return _eval(expr, sep_budget, {})


def _eval(node, sep_budget, built):
    """The Real of node; `built` maps the key of every node built so far to
    its Real."""
    kind = type(node)
    if kind is RationalLit:
        q = node.value
        # not keyed on q itself: hashing a Fraction takes a modular inverse
        key = (q.numerator, q.denominator)
        real = built.get(key)
        if real is None:
            real = built[key] = from_rational(q)
        return real
    if kind is Add or kind is Sub:
        return _chain(node, (Add, Sub), sum_of, sep_budget, built)
    if kind is Mul or kind is Div:
        return _chain(node, (Mul, Div), product_of, sep_budget, built)
    if kind is Sqrt:
        x = _eval(node.operand, sep_budget, built)
        return _build(built, (sqrt_real, id(x)), sqrt_real, x, sep_budget)
    if kind is Neg or kind is Abs:
        x = _eval(node.operand, sep_budget, built)
        make = neg if kind is Neg else abs
        return _build(built, (make, id(x)), make, x)
    if kind is Min or kind is Max:
        x = _eval(node.left, sep_budget, built)
        y = _eval(node.right, sep_budget, built)
        make = minimum if kind is Min else maximum
        return _build(built, (make, id(x), id(y)), make, x, y)
    raise TypeError(f"not an expression node: {node!r}")


def _chain(node, kinds, make, sep_budget, built):
    """make over the operands of the run of `kinds` nodes through node,
    leftmost first, walked without recursion: the operand of a '-' is
    negated, that of a '/' inverted (after `invert` separates it from
    zero)."""
    links = []
    while type(node) in kinds:
        links.append(node)
        node = node.left
    x = _eval(node, sep_budget, built)
    operands, key = [x], [make, id(x)]
    for link in reversed(links):
        y = _eval(link.right, sep_budget, built)
        kind = type(link)
        if kind is Sub:
            y = _build(built, (neg, id(y)), neg, y)
        elif kind is Div:
            y = _build(built, (invert, id(y)), invert, y, sep_budget)
        operands.append(y)
        key.append(id(y))
    return _build(built, tuple(key), make, operands)


def _build(built, key, make, *args):
    """The Real built before under key, or make(*args), kept under key.

    A key is the function that builds the node and the identities of the
    Reals it is built from, so equal keys denote equal values."""
    real = built.get(key)
    if real is None:
        real = built[key] = make(*args)
    return real
