"""Exact real arithmetic with verifiable error budgets.

A real number here is a procedure: ask it for precision k and it returns a
rational within 1/k of the value.  Arithmetic, integer square roots, order
certificates, oracle-driven least upper bounds, uniformly continuous extension
and grid extrema are built on that single guarantee, and every operation
documents the precision it requests to keep its own budget.

Quick tour::

    from cauchyreals import evaluate, from_rational, separate

    x = evaluate("sqrt(2) * sqrt(2)")
    x.decimal(9)                    # '2.000000000'
    separate(x, from_rational(2), 10 ** 6)   # Verdict.CLOSE

The `creal` command line exposes the same machinery; see the README.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    DivisionNotSeparated,
    DomainError,
    Error,
    NegativeRadicand,
    OutOfDomain,
    ParseError,
    WitnessInvalid,
)
from .rational import Rational, parse_rational, to_decimal
from .real import (
    INDISTINGUISHABLE,
    NOT_SEPARATED,
    ONE,
    ZERO,
    ApartnessWitness,
    GapCertificate,
    GreaterGap,
    Real,
    Verdict,
    as_real,
    divide,
    find_apartness,
    from_rational,
    from_sequence,
    lt_witness,
    maximum,
    minimum,
    reciprocal,
    separate,
)
from .lub import (
    HarmonicRun,
    HarmonicStep,
    UpperBoundOracle,
    finite_set_oracle,
    lub_bisection,
    lub_harmonic,
    run_harmonic_lub,
    sqrt_oracle,
)
from .extension import (
    ClosenessWitness,
    RationalDomain,
    UCFunction,
    close_to_witness,
    eps_maximizer,
    eps_minimizer,
    extend,
    infimum,
    supremum,
)
from .expr import (
    Abs,
    Add,
    Div,
    Expr,
    Max,
    Min,
    Mul,
    Neg,
    RationalLit,
    Sqrt,
    Sub,
    evaluate,
    parse,
    sqrt_real,
)

__all__ = [
    "__version__",
    # errors
    "Error", "DomainError", "WitnessInvalid", "BudgetExceeded", "OutOfDomain",
    "DivisionNotSeparated", "NegativeRadicand", "ParseError",
    # rationals
    "Rational", "parse_rational", "to_decimal",
    # reals
    "Real", "Verdict", "GapCertificate", "GreaterGap", "ApartnessWitness",
    "NOT_SEPARATED", "INDISTINGUISHABLE", "ZERO", "ONE",
    "as_real", "from_rational", "from_sequence", "separate", "find_apartness",
    "reciprocal", "divide", "lt_witness", "minimum", "maximum",
    # least upper bounds
    "UpperBoundOracle", "lub_harmonic", "lub_bisection",
    "sqrt_oracle", "finite_set_oracle", "run_harmonic_lub",
    "HarmonicRun", "HarmonicStep",
    # extension
    "RationalDomain", "UCFunction", "ClosenessWitness", "extend",
    "close_to_witness", "infimum", "supremum", "eps_minimizer", "eps_maximizer",
    # expressions
    "Expr", "RationalLit", "Neg", "Abs", "Sqrt", "Add", "Sub", "Mul", "Div",
    "Min", "Max", "parse", "evaluate", "sqrt_real",
]
