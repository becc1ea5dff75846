"""Real numbers as precision-indexed rational approximation procedures.

A `Real` wraps a total procedure ``approx(k) -> Rational`` that is *regular*:
the value returned for precision index k is within 1/k of the number being
represented, so any two approximations satisfy

    |approx(j) - approx(k)| <= 1/j + 1/k.

Every operation below states the precision it requests from its operands;
those requests are exactly what make the 1/k budget of the result hold.
Requesting more precision than stated is always sound, requesting less never
is.

Equality of two reals is not decidable from finitely many approximations, so
there is no ``==`` on values.  Comparisons are three-valued (`separate`) or
witness-producing (`lt_witness`, `find_apartness`): a LESS/GREATER verdict is
backed by a checkable finite certificate, while CLOSE / NOT_SEPARATED /
INDISTINGUISHABLE only say that a gap, if any, is smaller than the budget
allowed us to see.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

from .errors import DivisionNotSeparated, DomainError, WitnessInvalid
from .rational import Rational, to_decimal

__all__ = [
    "Real",
    "Verdict",
    "GapCertificate",
    "GreaterGap",
    "ApartnessWitness",
    "NOT_SEPARATED",
    "INDISTINGUISHABLE",
    "DEFAULT_SEPARATION_BUDGET",
    "as_real",
    "from_rational",
    "from_sequence",
    "sum_of",
    "product_of",
    "separate",
    "find_apartness",
    "reciprocal",
    "invert",
    "divide",
    "lt_witness",
    "minimum",
    "maximum",
    "ZERO",
    "ONE",
]

DEFAULT_SEPARATION_BUDGET = 2 ** 20

RationalLike = Union[Rational, int]


def _check_positive(n, what):
    """n, if it is an int >= 1 (bool is refused); else ValueError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    return n


class Real:
    """A number given by a regular approximation procedure.

    Instances are immutable values.  ``approx`` memoizes per precision index,
    so repeated calls return identical rationals, and it is safe to call from
    several threads at once.  Use the module constructors (`from_rational`,
    `from_sequence`, arithmetic on existing reals) rather than building
    compute procedures by hand.
    """

    __slots__ = ("_compute", "_cache", "_lock", "_exact")

    def __init__(self, compute: Optional[Callable[[int], Rational]],
                 exact: Optional[Rational] = None):
        if compute is None and exact is None:
            raise ValueError("a Real needs a compute procedure or an exact value")
        self._compute = compute
        self._exact = exact
        self._cache = {}
        # RLock so that a pathological compute procedure touching its own
        # Real degrades to recursion instead of deadlock.
        self._lock = threading.RLock()

    def approx(self, k: int) -> Rational:
        """Rational within 1/k of this number; deterministic per k."""
        if type(k) is not int or k < 1:
            _check_positive(k, "precision index")
        if self._exact is not None:
            return self._exact
        with self._lock:
            try:
                return self._cache[k]
            except KeyError:
                pass
            value = Rational(self._compute(k))
            self._cache[k] = value
            return value

    def exact_value(self) -> Optional[Rational]:
        """The exact rational value if this real is known to be one."""
        return self._exact

    def bound(self) -> int:
        """Integer l with |approx(k)| <= l for every k.

        Regularity gives |approx(k)| <= |approx(1)| + 2, so
        ceil(|approx(1)|) + 2 works.
        """
        return math.ceil(abs(self.approx(1))) + 2

    def decimal(self, digits: int) -> str:
        """Decimal string within 10^-digits of this number.

        Asks for precision 2*10^digits, leaving half the error budget to
        rounding and half to the approximation.
        """
        if digits < 0:
            raise ValueError("digits must be >= 0")
        return to_decimal(self.approx(2 * 10 ** digits), digits)

    # -- arithmetic ---------------------------------------------------------
    # Component-wise on approximations, with the precision requests that
    # keep the result regular.

    def __add__(self, other):
        return sum_of((self, other))

    __radd__ = __add__

    def __neg__(self):
        exact = None if self._exact is None else -self._exact
        return Real(lambda k: -self.approx(k), exact)

    def __sub__(self, other):
        return self + (-as_real(other))

    def __rsub__(self, other):
        return as_real(other) + (-self)

    def __mul__(self, other):
        return product_of((self, other))

    __rmul__ = __mul__

    def __abs__(self):
        exact = None if self._exact is None else abs(self._exact)
        return Real(lambda k: abs(self.approx(k)), exact)

    def __truediv__(self, other):
        return divide(self, as_real(other))

    def __rtruediv__(self, other):
        return divide(as_real(other), self)

    def __repr__(self):
        if self._exact is not None:
            return f"Real({self._exact})"
        return "Real(<procedure>)"


def as_real(value) -> Real:
    """Coerce a Rational or int to a Real; pass Reals through."""
    if isinstance(value, Real):
        return value
    return from_rational(value)


def from_rational(q: RationalLike) -> Real:
    """Embed a rational as the constant approximation procedure."""
    if type(q) is Rational:
        return Real(None, exact=q)
    if isinstance(q, float):
        raise DomainError("binary floats are inexact; pass a Rational or int")
    return Real(None, exact=Rational(q))


ZERO = from_rational(0)
ONE = from_rational(1)


def from_sequence(seq: Callable[[int], Rational],
                  modulus: Callable[[int], int]) -> Real:
    """Real from a rational sequence with an explicit convergence modulus.

    Contract (trusted, spot-checked in tests): for all m, n >= modulus(k),
    |seq(m) - seq(n)| <= 1/k.  Taking the limit in that inequality gives
    |seq(modulus(2k)) - limit| <= 1/(2k), so evaluating the sequence at
    modulus(2k) is within the 1/k budget with room to spare.
    """

    def compute(k):
        return Rational(seq(_check_positive(modulus(2 * k), "modulus value")))

    return Real(compute)


# -- sums and products of n operands --------------------------------------
# One rule each; `x + y` and `x * y` are their n = 2 case.  Operands are
# grouped by identity, so an operand that occurs c times is read once.


def _group(operands):
    """The distinct operands, as Reals, with their numbers of occurrences;
    the (value, count) pairs of the exact ones; the (Real, count) pairs of
    the others."""
    counts = {}
    for x in operands:
        if not isinstance(x, Real):
            x = from_rational(x)
        counts[x] = counts.get(x, 0) + 1
    exact, rest = [], []
    for x, c in counts.items():
        if x._exact is None:
            rest.append((x, c))
        else:
            exact.append((x._exact, c))
    return counts, exact, rest


def _sum_of_multiples(pairs):
    """The sum of c*q over the (q, c) pairs, of which there is at least one.

    The numerators are summed per distinct denominator (readings at one
    precision of square roots share one), then over the lcm of those
    denominators, and the sum is normalised once.
    """
    if len(pairs) == 1:
        q, c = pairs[0]
        return q if c == 1 else c * q
    sums = {}
    for q, c in pairs:
        den = q.denominator
        sums[den] = sums.get(den, 0) + c * q.numerator
    den = math.lcm(*sums)
    return Rational(sum([num * (den // d) for d, num in sums.items()]), den)


def _product_of_powers(pairs, value):
    """value (None for 1) times the product of q**c over the (q, c) pairs."""
    for q, c in pairs:
        if c != 1:
            q = q ** c
        value = q if value is None else value * q
    return value


# The compute procedures below read their operands in plain loops: a
# comprehension is a frame of its own, and every frame on the path of a
# reading is paid once per nesting level of the expression.


def sum_of(terms) -> Real:
    """x1 + ... + xn, reading every term at n*k.

    n counts every occurrence, exact terms too, so the n readings are each
    within 1/(nk) and their sum is within 1/k.  The exact terms are added
    once, at construction.
    """
    counts, exact, rest = _group(terms)
    n = sum(counts.values())
    exact = _sum_of_multiples(exact) if exact else None
    if not rest:
        return Real(None, Rational(0) if exact is None else exact)

    def compute(k):
        m = n * k
        readings = []
        for x, c in rest:
            readings.append((x.approx(m), c))
        value = _sum_of_multiples(readings)
        return value if exact is None else value + exact

    return Real(compute)


def product_of(factors) -> Real:
    """x1 * ... * xn, reading every factor at n*k*L^(n-1).

    L is the largest `bound()` of the factors, so every value and every
    reading is at most L in magnitude, and the error telescopes:
    |prod xi - prod ai| <= sum_i L^(n-1)*|xi - ai| <= n*L^(n-1)/(n*k*L^(n-1)).
    The bounds are taken once, on the first `approx`.  The exact factors are
    multiplied once, at construction.
    """
    counts, exact, rest = _group(factors)
    n = sum(counts.values())
    exact = _product_of_powers(exact, None)
    if not rest:
        return Real(None, Rational(1) if exact is None else exact)
    scale = None

    def compute(k):
        nonlocal scale
        if scale is None:
            bound = 0
            for x in counts:
                bound = max(bound, x.bound())
            scale = n * bound ** (n - 1)
        m = scale * k
        readings = []
        for x, c in rest:
            readings.append((x.approx(m), c))
        return _product_of_powers(readings, exact)

    return Real(compute)


# -- order and separation ---------------------------------------------------


class Verdict(Enum):
    """Outcome of a three-valued comparison at a given precision."""

    LESS = "less"
    GREATER = "greater"
    CLOSE = "close"


def separate(x: Real, y: Real, k: int) -> Verdict:
    """Totalized comparison at tolerance 1/k.

    With d = y.approx(4k) - x.approx(4k):
      d >  1/(2k)  ->  LESS     (certifies x < y: the true gap exceeds d - 1/(2k) > 0)
      d < -1/(2k)  ->  GREATER  (certifies y < x)
      otherwise    ->  CLOSE    (certifies |x - y| <= 1/k; says nothing about equality)
    """
    _check_positive(k, "precision index")
    d = y.approx(4 * k) - x.approx(4 * k)
    half = Rational(1, 2 * k)
    if d > half:
        return Verdict.LESS
    if d < -half:
        return Verdict.GREATER
    return Verdict.CLOSE


@dataclass(frozen=True)
class GapCertificate:
    """Finite witness that x < y with gap greater than 1/k.

    Sound because approximations at precision p are within 1/p of the values:
    if y.approx(p) - x.approx(p) > 1/k + 2/p then y - x > 1/k.
    """

    k: int
    p: int

    def check(self, x: Real, y: Real) -> bool:
        """Re-verify against fresh approximation calls."""
        return (y.approx(self.p) - x.approx(self.p)
                > Rational(1, self.k) + Rational(2, self.p))

    @property
    def gap(self) -> Rational:
        return Rational(1, self.k)


@dataclass(frozen=True)
class GreaterGap:
    """lt_witness found the opposite order: certificate proves y < x."""

    certificate: GapCertificate


class _NotSeparated:
    """Budget exhausted: |x| <= 3/budget.  Not a proof that x is zero."""

    __slots__ = ()

    def __repr__(self):
        return "NOT_SEPARATED"


NOT_SEPARATED = _NotSeparated()


class _Indistinguishable:
    """Budget exhausted: |x - y| <= 1/budget.  Not a proof of equality."""

    __slots__ = ()

    def __repr__(self):
        return "INDISTINGUISHABLE"


INDISTINGUISHABLE = _Indistinguishable()


def _budget_ladder(budget):
    """1, 2, 4, ... ending exactly at budget, so the final probe is at the
    advertised tolerance even when budget is not a power of two."""
    _check_positive(budget, "budget")
    k = 1
    while k < budget:
        yield k
        k *= 2
    yield budget


@dataclass(frozen=True)
class ApartnessWitness:
    """Finite witness that |x| >= 1/k0, the precondition for reciprocals."""

    k0: int

    def check(self, x: Real) -> bool:
        """Acceptance test: any x with |x| >= 1/k0 must pass it, so failing
        it refutes the witness.  (Passing alone does not prove the bound;
        validity is the producer's responsibility.)"""
        return abs(x.approx(2 * self.k0)) >= Rational(1, 2 * self.k0)


def find_apartness(x: Real, budget: int = DEFAULT_SEPARATION_BUDGET):
    """Search for an apartness witness for x.

    At each ladder rung k it tests |x.approx(2k)| >= 1/k + 1/(2k), which
    proves |x| >= 1/k and yields the witness k0 = 2k.  NOT_SEPARATED means
    every rung failed, hence |x| <= 3/budget; it never means x is zero.
    """
    for k in _budget_ladder(budget):
        if abs(x.approx(2 * k)) >= Rational(1, k) + Rational(1, 2 * k):
            return ApartnessWitness(k0=2 * k)
    return NOT_SEPARATED


def reciprocal(x: Real, witness: ApartnessWitness) -> Real:
    """Multiplicative inverse of x, given |x| >= 1/k0.

    approx(k) inverts x.approx(max(2*k0, 2*k*k0^2)): at that precision the
    approximation keeps the sign of x and magnitude >= 1/(2*k0), so

        |1/a - 1/x| = |x - a| / (|a||x|) <= (1/(2k*k0^2)) * (2*k0^2) = 1/k.

    The witness acceptance test runs on every evaluation; a failing witness
    raises WitnessInvalid.  If the approximation is exactly zero (impossible
    for a valid witness) the inverse of that term is taken to be zero to keep
    the procedure total.
    """
    k0 = witness.k0
    exact = None
    # The exact shortcut must not skip witness validation: only take it when
    # the acceptance check passes on the exact value itself.
    if x._exact is not None and abs(x._exact) >= Rational(1, 2 * k0):
        exact = 1 / x._exact

    def compute(k):
        if not witness.check(x):
            raise WitnessInvalid(
                f"witness |x| >= 1/{k0} fails its acceptance check")
        a = x.approx(max(2 * k0, 2 * k * k0 * k0))
        if a == 0:
            return Rational(0)
        return 1 / a

    return Real(compute, exact)


def invert(y: Real, sep_budget: int = DEFAULT_SEPARATION_BUDGET) -> Real:
    """1 / y, after separating y from zero within sep_budget."""
    witness = find_apartness(y, sep_budget)
    if witness is NOT_SEPARATED:
        raise DivisionNotSeparated(
            f"denominator within 3/{sep_budget} of zero; "
            "its inverse cannot be bounded at this budget")
    return reciprocal(y, witness)


def divide(x: Real, y: Real, sep_budget: int = DEFAULT_SEPARATION_BUDGET) -> Real:
    """x / y, after separating y from zero within sep_budget."""
    return x * invert(y, sep_budget)


def _certificate_at(x: Real, y: Real, k: int) -> Optional[GapCertificate]:
    """Certificate from the observation at ladder level k, or None if the
    data at this level proves nothing."""
    d = y.approx(4 * k) - x.approx(4 * k)
    margin = d - Rational(1, 2 * k)
    if margin <= 0:
        return None
    cert_k = math.floor(1 / margin) + 1
    return GapCertificate(k=cert_k, p=4 * k)


def _refined_certificate(x: Real, y: Real, k: int) -> GapCertificate:
    """Build the gap certificate after separate() said LESS at level k.

    The first observation proves a gap of margin = d - 1/(2k), which may be
    a sliver of the true gap g when d barely clears the threshold.  One
    refinement at K ~ 2/margin pins the gap to within margin/2, so the
    certificate is for at least g/2.  That floor is what makes certified
    gaps stable under operations such as adding the same real to both sides.
    """
    first = _certificate_at(x, y, k)
    margin = Rational(1, first.k)
    refine_k = max(2 * k, math.ceil(2 / margin))
    second = _certificate_at(x, y, refine_k)
    if second is not None and second.k < first.k:
        return second
    return first


def lt_witness(x: Real, y: Real, budget: int = DEFAULT_SEPARATION_BUDGET):
    """Search for an order certificate between x and y.

    Returns a GapCertificate proving x < y, a GreaterGap wrapping the
    certificate proving y < x, or INDISTINGUISHABLE (|x - y| <= 1/budget).
    """
    for k in _budget_ladder(budget):
        verdict = separate(x, y, k)
        if verdict is Verdict.LESS:
            return _refined_certificate(x, y, k)
        if verdict is Verdict.GREATER:
            return GreaterGap(_refined_certificate(y, x, k))
    return INDISTINGUISHABLE


def minimum(x: Real, y: Real) -> Real:
    """Pointwise min of approximations; 1-Lipschitz, so regularity is kept."""
    x, y = as_real(x), as_real(y)
    exact = None
    if x._exact is not None and y._exact is not None:
        exact = min(x._exact, y._exact)
    return Real(lambda k: min(x.approx(k), y.approx(k)), exact)


def maximum(x: Real, y: Real) -> Real:
    """Pointwise max of approximations; 1-Lipschitz, so regularity is kept."""
    x, y = as_real(x), as_real(y)
    exact = None
    if x._exact is not None and y._exact is not None:
        exact = max(x._exact, y._exact)
    return Real(lambda k: max(x.approx(k), y.approx(k)), exact)
