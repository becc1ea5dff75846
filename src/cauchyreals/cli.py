"""creal: exact-arithmetic calculator on the command line.

Every printed decimal is guaranteed accurate: with --digits N the true value
of the expression lies within 10^-N of the printed number.  Results go to
stdout, diagnostics to stderr.

Exit codes: 0 success, 2 parse error, 3 evaluation error (failed separation,
negative radicand, invalid operand), 4 budget exhausted (the Python stack
included).

Precision requests are capped: --digits at MAX_DIGITS and --k at MAX_K.  A
request beyond a cap raises BudgetExceeded (exit 4) instead of running for
as long as the digits take.

Each search budget is a flag of the commands that spend it, and only of
those: --sep-budget of eval and compare, --lub-steps of sqrt and lub-demo
(their --mode paper), --descent-budget of lub-demo (its --mode fast).
"""

import argparse
import math
import sys

from . import __version__
from .errors import BudgetExceeded, Error, NegativeRadicand, ParseError
from .expr import evaluate, parse, sqrt_real
from .lub import (DEFAULT_DESCENT_BUDGET, DEFAULT_STEP_LIMIT, UpperBoundOracle,
                  lub_bisection, lub_harmonic, run_harmonic_lub, sqrt_oracle)
from .rational import parse_rational, to_decimal
from .real import DEFAULT_SEPARATION_BUDGET, Verdict, from_rational, separate

__all__ = ["main", "console", "build_parser"]

# Caps on the precision a command line may ask for.  Evaluation cost grows
# faster than linearly in the digits asked for (lub-demo --mode fast takes
# over a minute at MAX_DIGITS).  MAX_K asks compare for 4000 digits and stays
# below CPython's 4300-digit int() limit, so the cap, not the flag parser,
# refuses a larger --k.
MAX_DIGITS = 10_000
MAX_K = 10 ** 4000


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="creal",
        description="exact real arithmetic calculator; printed decimals are "
                    "correct to the last digit shown (within one ulp)")
    parser.add_argument("--version", action="version", version=f"creal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to decimals")
    p_eval.add_argument("expr", help='expression, e.g. "sqrt(2) * sqrt(2)"')
    p_eval.add_argument("--digits", type=_nonneg_int, default=10,
                        help="fractional digits to print (default 10, "
                             f"at most {MAX_DIGITS})")

    p_cmp = sub.add_parser("compare", help="order two expressions at tolerance 1/K")
    p_cmp.add_argument("expr1")
    p_cmp.add_argument("expr2")
    p_cmp.add_argument("--k", type=_positive_int, default=10 ** 6,
                       help="comparison precision index (default 10^6, "
                            "at most 10^4000)")

    p_sqrt = sub.add_parser("sqrt", help="square root of a rational")
    p_sqrt.add_argument("value", help="rational literal, e.g. 2 or 22/7 or 1.21")
    p_sqrt.add_argument("--digits", type=_nonneg_int, default=10)
    p_sqrt.add_argument("--mode", choices=("paper", "fast"), default="fast",
                        help="paper = slow harmonic-step reference loop, "
                             "fast = integer square root (default)")

    p_demo = sub.add_parser("lub-demo",
                            help="run the least-upper-bound procedure on a "
                                 "demo set and report its invariants")
    p_demo.add_argument("target", choices=("sqrt2",),
                        help="demo set: rationals with square below 2")
    p_demo.add_argument("--digits", type=_nonneg_int, default=2)
    p_demo.add_argument("--mode", choices=("paper", "fast"), default="paper")

    for p in (p_eval, p_cmp):
        p.add_argument("--sep-budget", type=_positive_int,
                       default=DEFAULT_SEPARATION_BUDGET,
                       help="separation budget for denominators and sqrt "
                            "radicands (default 2^20)")
    for p in (p_sqrt, p_demo):
        p.add_argument("--lub-steps", type=_positive_int,
                       default=DEFAULT_STEP_LIMIT,
                       help="step cap for the harmonic loop of --mode paper "
                            "(default 2^24)")
    p_demo.add_argument("--descent-budget", type=_positive_int,
                        default=DEFAULT_DESCENT_BUDGET,
                        help="query cap for the bisection bracket search of "
                             "--mode fast (default 2^20)")
    return parser


def _cmd_eval(args):
    x = evaluate(parse(args.expr), args.sep_budget)
    print(x.decimal(args.digits))
    return 0


def _cmd_compare(args):
    x = evaluate(parse(args.expr1), args.sep_budget)
    y = evaluate(parse(args.expr2), args.sep_budget)
    verdict = separate(x, y, args.k)
    if verdict is Verdict.LESS:
        print("LESS")
    elif verdict is Verdict.GREATER:
        print("GREATER")
    else:
        print(f"CLOSE(1/{args.k})")
    return 0


def _cmd_sqrt(args):
    c = parse_rational(args.value)
    if args.mode == "fast":
        x = sqrt_real(from_rational(c))
    else:
        if c < 0:
            raise NegativeRadicand(f"radicand {c} is negative")
        x = lub_harmonic(sqrt_oracle(c), max(1, math.ceil(c)), args.lub_steps)
    print(x.decimal(args.digits))
    return 0


def _cmd_lub_demo(args):
    oracle = sqrt_oracle(2)
    precision = 2 * 10 ** args.digits
    if args.mode == "paper":
        run = run_harmonic_lub(oracle, 2, precision, args.lub_steps)
        refusals = run.refusals
        print(to_decimal(run.result, args.digits))
        print(f"steps={len(run.steps)} refusals={len(refusals)} "
              f"final-step=1/{len(refusals)} "
              f"bracket-ok={'yes' if run.bracket_ok() else 'NO'}",
              file=sys.stderr)
        return 0
    queries = 0
    inner = oracle.query

    def counting(q):
        nonlocal queries
        queries += 1
        return inner(q)

    x = lub_bisection(UpperBoundOracle(counting, oracle.description), 2,
                      args.descent_budget)
    print(x.decimal(args.digits))
    print(f"queries={queries} bracket-width<=1/{to_decimal(precision, 0)}",
          file=sys.stderr)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "sqrt": _cmd_sqrt,
    "lub-demo": _cmd_lub_demo,
}


def _check_caps(args):
    digits = getattr(args, "digits", 0)
    if digits > MAX_DIGITS:
        raise BudgetExceeded(
            f"--digits {digits} exceeds the cap of {MAX_DIGITS}")
    if getattr(args, "k", 1) > MAX_K:
        raise BudgetExceeded("--k exceeds the cap of 10^4000")


def main(argv=None):
    """Run one command; returns the exit code instead of raising SystemExit."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_caps(args)
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        if exc.expected:
            print(f"expected: {', '.join(sorted(exc.expected))}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        # a reading descends the expression through a few frames per node,
        # so an expression inside the nesting cap can still be too deep
        print("budget exceeded: evaluation nested deeper than the Python "
              "stack allows", file=sys.stderr)
        return 4
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console():
    sys.exit(main())


if __name__ == "__main__":
    console()
