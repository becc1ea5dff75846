"""Uniformly continuous functions on rational intervals and their machinery.

Uniform continuity only becomes computational once a modulus is supplied:
``modulus(k)`` is a positive integer m such that arguments within 1/m produce
values within 1/k.  Everything here is modulus composition:

* `extend` evaluates f at rational points converging to a real x; the
  modulus says how close the point must be for the value to be within budget.
* `infimum` / `supremum` scan a grid fine enough (mesh 1/modulus(3k)) that no
  value between grid points can escape by more than 1/(3k).
* `eps_minimizer` / `eps_maximizer` return the argmin / argmax of the scan
  at 3k.

There is one scan per (f, k): it records min, argmin, max and argmax, is
cached on the UCFunction, and all four functions read it.  Grid scans are
linear in the grid size, which grows with both the interval length and the
requested precision; a grid of more than GRID_LIMIT (10^6) points raises
BudgetExceeded instead of being built.  Desk-scale precision only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BudgetExceeded, DomainError, OutOfDomain
from .rational import Rational
from .real import Real, _check_positive, as_real

__all__ = [
    "RationalDomain",
    "UCFunction",
    "ClosenessWitness",
    "extend",
    "close_to_witness",
    "infimum",
    "supremum",
    "eps_minimizer",
    "eps_maximizer",
    "GRID_LIMIT",
]

GRID_LIMIT = 10 ** 6


@dataclass(frozen=True)
class RationalDomain:
    """Closed rational interval [lo, hi], optionally thinned by a membership
    predicate.

    ``grid(mesh)`` returns member points with spacing at most 1/mesh covering
    the interval; with the default (full) membership the endpoints are
    included exactly.  A membership predicate is the caller's tool for
    sub-grids; it must leave the grid spacing meaningful.
    """

    lo: Rational
    hi: Rational
    membership: Optional[Callable[[Rational], bool]] = None

    def __post_init__(self):
        object.__setattr__(self, "lo", Rational(self.lo))
        object.__setattr__(self, "hi", Rational(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, q) -> bool:
        if type(q) is not Rational:
            q = Rational(q)
        if not self.lo <= q <= self.hi:
            return False
        return self.membership is None or bool(self.membership(q))

    def grid(self, mesh: int):
        _check_positive(mesh, "mesh")
        # the fewest equal segments of length at most 1/mesh: ceil(span*mesh)
        span = self.hi - self.lo
        segments = -(-(span.numerator * mesh) // span.denominator)
        if segments + 1 > GRID_LIMIT:
            raise BudgetExceeded(
                f"grid of {segments + 1} points exceeds the cap of {GRID_LIMIT}")
        if segments == 0:
            points = [self.lo]
        else:
            # lo + j*step, built over one common denominator so that each
            # point costs one normalisation.
            step = span / segments
            den = math.lcm(self.lo.denominator, step.denominator)
            base = self.lo.numerator * (den // self.lo.denominator)
            inc = step.numerator * (den // step.denominator)
            points = [Rational(base + j * inc, den) for j in range(segments + 1)]
        if self.membership is not None:
            points = [p for p in points if self.membership(p)]
            if not points:
                raise DomainError("membership predicate rejected every grid point")
        return points


class UCFunction:
    """A uniformly continuous function on a rational domain.

    ``fn`` maps a member rational to a Real (a plain Rational return value is
    wrapped).  ``modulus`` is the modulus of uniform continuity described in
    the module docstring; it is trusted and spot-checked in tests.

    Evaluations are memoized per point, so repeated grid scans and the
    certificates built on top of them see the same Real objects.  ``fn`` must
    therefore be pure.
    """

    def __init__(self, domain: RationalDomain,
                 fn: Callable[[Rational], "Real | Rational"],
                 modulus: Callable[[int], int]):
        self.domain = domain
        self._fn = fn
        self._modulus = modulus
        self._memo = {}
        self._scans = {}  # precision k -> _Scan
        self._memo_lock = threading.Lock()

    def modulus(self, k: int) -> int:
        return _check_positive(self._modulus(k), "modulus value")

    def eval(self, q) -> Real:
        q = Rational(q)
        with self._memo_lock:
            value = self._memo.get(q)
            if value is None:
                value = self._memo[q] = self._value_at(q)
            return value

    def _value_at(self, q: Rational) -> Real:
        """fn at a point not yet memoized; the caller holds the memo lock."""
        if not self.domain.contains(q):
            raise DomainError(f"{q} is outside the function's domain")
        return as_real(self._fn(q))


@dataclass(frozen=True)
class ClosenessWitness:
    """Access to a real through in-domain rationals: select(k) is a domain
    point within 1/k of the real.  Any two selections are therefore within
    1/j + 1/k of each other."""

    select: Callable[[int], Rational]


def close_to_witness(domain: RationalDomain, x: Real) -> ClosenessWitness:
    """Witness for a real lying in the (closed) interval.

    select(k) clamps x.approx(2k) into [lo, hi]; for x inside the interval
    clamping only moves the point closer, so the result is within 1/(2k) of
    x.  If an approximation lands more than 3/(2k) outside the interval, x
    is certifiably outside [lo - 1/k, hi + 1/k] and OutOfDomain is raised.
    """

    def select(k):
        _check_positive(k, "precision index")
        a = x.approx(2 * k)
        slack = Rational(3, 2 * k)
        if a > domain.hi + slack or a < domain.lo - slack:
            raise OutOfDomain(
                f"approximation {a} at precision {2 * k} puts the point "
                f"outside [{domain.lo}, {domain.hi}] beyond tolerance")
        clamped = min(max(a, domain.lo), domain.hi)
        if domain.contains(clamped):
            return clamped
        # Membership-thinned domain: snap to the nearest member grid point,
        # at most 1/(4k) away, keeping the total within 3/(4k) < 1/k.
        points = domain.grid(4 * k)
        return min(points, key=lambda p: abs(p - clamped))

    return ClosenessWitness(select=select)


def extend(f: UCFunction, witness: ClosenessWitness) -> Real:
    """Value of f at the real the witness converges to.

    approx(k) evaluates f at select(modulus(2k)): the argument error turns
    into at most 1/(2k) of value error via the modulus, and the value itself
    is approximated to 1/(2k), totalling 1/k.  The result is independent (up
    to closeness) of which witness is used.
    """

    def compute(k):
        point = witness.select(f.modulus(2 * k))
        return f.eval(point).approx(2 * k)

    return Real(compute)


@dataclass(frozen=True)
class _Scan:
    min_value: Rational
    argmin: Rational
    max_value: Rational
    argmax: Rational


def _grid_scan(f: UCFunction, k: int) -> _Scan:
    """Evaluate f on the mesh-1/modulus(3k) grid at value precision 3k.

    Any domain point has a grid point within 1/modulus(3k), whose value is
    within 1/(3k) by uniform continuity; with 1/(3k) more for the value
    approximation, the scanned min/max are within 2/(3k) of the true
    infimum/supremum.  Ties go to the leftmost point, deterministically.

    The scan is cached on f per k, so infimum, supremum and the eps_*
    functions share it.
    """
    with f._memo_lock:
        scan = f._scans.get(k)
    if scan is None:
        points = f.domain.grid(f.modulus(3 * k))
        with f._memo_lock:
            memo = f._memo
            values = []
            for g in points:
                value = memo.get(g)
                if value is None:
                    value = memo[g] = f._value_at(g)
                values.append(value)
        p = 3 * k
        argmin = argmax = points[0]
        min_value = max_value = values[0].approx(p)
        for g, value in zip(points, values):
            v = value.approx(p)
            if v < min_value:
                min_value, argmin = v, g
            elif v > max_value:
                max_value, argmax = v, g
        scan = _Scan(min_value, argmin, max_value, argmax)
        with f._memo_lock:
            scan = f._scans.setdefault(k, scan)
    return scan


def infimum(f: UCFunction) -> Real:
    """Greatest lower bound of f over its domain, as a Real."""
    return Real(lambda k: _grid_scan(f, k).min_value)


def supremum(f: UCFunction) -> Real:
    """Least upper bound of f over its domain, as a Real."""
    return Real(lambda k: _grid_scan(f, k).max_value)


def eps_minimizer(f: UCFunction, k: int) -> Rational:
    """Domain point whose value is within 1/k of the infimum.

    Returns the argmin of the same scan that infimum(f).approx(3k) performs,
    so its recorded value *is* that approximation: the certificate
    f.eval(q).approx(3k) <= infimum.approx(3k) + 1/(3k) holds by
    construction, and unwinding the scan error gives f(q) <= inf + 1/(3k).
    """
    _check_positive(k, "precision index")
    return _grid_scan(f, 3 * k).argmin


def eps_maximizer(f: UCFunction, k: int) -> Rational:
    """Domain point whose value is within 1/k of the supremum."""
    _check_positive(k, "precision index")
    return _grid_scan(f, 3 * k).argmax
