"""Least upper bounds driven by caller-supplied upper-bound oracles.

An oracle answers, for any rational q, whether the constant real E(q)
dominates every element of some fixed nonempty set of reals.  Which set is
the oracle's business; the procedures here only need the answers to be sound
and monotone (YES at q implies YES at every q' >= q).

Two procedures share the same bracket invariant (the answer lies between the
last refused query value and the current upper bound):

* `lub_harmonic`: the reference loop.  It walks the upper bound down in
  steps 1/1, 1/2, 1/3, ..., shrinking the step after each refusal, so the
  i-th refusal brackets the answer within 1/i.  Convergence is harmonic;
  use it for auditing, not for digits.
* `lub_bisection`: finds a refused lower bracket by exponential descent,
  then bisects.  This is the procedure that reaches real precision.

Both return `Real`s whose evaluation is lazy, resumable and memoized: asking
for more digits continues the same run instead of restarting it.  Each
search budget is a plain int argument of the procedure that spends it:
`max_steps` of `lub_harmonic` and `run_harmonic_lub`, `descent_budget` of
`lub_bisection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .errors import BudgetExceeded, DomainError
from .rational import Rational
from .real import Real, Verdict, _check_positive, as_real, separate

__all__ = [
    "UpperBoundOracle",
    "lub_harmonic",
    "lub_bisection",
    "sqrt_oracle",
    "finite_set_oracle",
    "run_harmonic_lub",
    "HarmonicRun",
    "HarmonicStep",
    "DEFAULT_STEP_LIMIT",
    "DEFAULT_DESCENT_BUDGET",
]

DEFAULT_STEP_LIMIT = 2 ** 24
DEFAULT_DESCENT_BUDGET = 2 ** 20


@dataclass(frozen=True)
class UpperBoundOracle:
    """Total decidable predicate "is E(q) an upper bound of the set?".

    Contract: sound (YES means q dominates every element, NO means some
    element exceeds E(q)) and monotone in q.  A non-monotone oracle voids
    every guarantee downstream.
    """

    query: Callable[[Rational], bool]
    description: str = ""

    def __call__(self, q) -> bool:
        return bool(self.query(Rational(q)))


def _require_initial_upper(oracle, initial_upper):
    if not isinstance(initial_upper, int) or isinstance(initial_upper, bool):
        raise ValueError("initial_upper must be an integer")
    if not oracle(Rational(initial_upper)):
        raise DomainError(
            f"initial value {initial_upper} is not an upper bound per the oracle")


class _HarmonicEngine:
    """Resumable state of the four-command reference loop.

    State: current upper bound, current step, count of executed commands and
    the upper-bound value recorded at each refusal (the i-th refusal happens
    while the step is 1/i, so the answer lies in (marks[i] - 1/i, marks[i]]).
    Mutated only under the owning Real's lock.
    """

    __slots__ = ("oracle", "upper", "step", "steps", "max_steps", "marks")

    def __init__(self, oracle, initial_upper, max_steps):
        self.oracle = oracle
        self.upper = Rational(initial_upper)
        self.step = Rational(1)
        self.steps = 0
        self.max_steps = max_steps
        self.marks = []

    def value_at(self, k):
        """Run until the (2k)-th refusal; the bracket there has width 1/(2k),
        so its midpoint is within 1/(4k) <= 1/k of the least upper bound."""
        target = 2 * k
        while len(self.marks) < target:
            self.steps += 1
            if self.steps > self.max_steps:
                raise BudgetExceeded(
                    f"harmonic loop exceeded {self.max_steps} steps before "
                    f"refusal {target}; the set may be empty or the "
                    "precision unreachable at harmonic speed")
            if self.oracle(self.upper - self.step):
                self.upper -= self.step
            else:
                self.marks.append(self.upper)
                self.step = 1 / (1 + 1 / self.step)
        return self.marks[target - 1] - Rational(1, 2 * target)


def lub_harmonic(oracle: UpperBoundOracle, initial_upper: int,
                 max_steps: int = DEFAULT_STEP_LIMIT) -> Real:
    """Least upper bound by the harmonic-step reference loop.

    Each approx(k) resumes the loop until the (2k)-th refusal.  The i-th
    refusal costs O(i) queries in the worst case, so digits are exponential
    here; `lub_bisection` computes the same value cheaply.
    """
    _require_initial_upper(oracle, initial_upper)
    engine = _HarmonicEngine(oracle, initial_upper, max_steps)
    return Real(engine.value_at)


@dataclass(frozen=True)
class HarmonicStep:
    """One executed command: the query value was upper - step, and `answer`
    is the oracle's verdict on it."""

    index: int
    upper: Rational
    step: Rational
    answer: bool


@dataclass(frozen=True)
class HarmonicRun:
    """Full trace of a harmonic run, for auditing the loop's invariants."""

    initial_upper: int
    precision: int
    steps: Tuple[HarmonicStep, ...]
    result: Rational

    @property
    def refusals(self) -> Tuple[HarmonicStep, ...]:
        return tuple(s for s in self.steps if not s.answer)

    def bracket_ok(self) -> bool:
        """After the i-th refusal at upper u_i, the final result r must
        satisfy u_i >= r > u_i - 2/i."""
        for i, s in enumerate(self.refusals, start=1):
            if not (s.upper >= self.result > s.upper - Rational(2, i)):
                return False
        return True


def run_harmonic_lub(oracle: UpperBoundOracle, initial_upper: int,
                     precision: int,
                     max_steps: int = DEFAULT_STEP_LIMIT) -> HarmonicRun:
    """Traced harmonic run to precision 1/precision.  Small precisions only:
    the trace keeps every step."""
    _require_initial_upper(oracle, initial_upper)
    steps = []

    def recording(q):
        answer = oracle(q)
        steps.append(HarmonicStep(index=len(steps) + 1, upper=engine.upper,
                                  step=engine.step, answer=answer))
        return answer

    engine = _HarmonicEngine(recording, initial_upper, max_steps)
    result = engine.value_at(precision)
    return HarmonicRun(initial_upper=initial_upper, precision=precision,
                       steps=tuple(steps), result=result)


class _BisectionEngine:
    """Resumable bisection state: oracle(hi) is YES, oracle(lo) is NO.

    The lower bracket is found by probing initial_upper - 1, -2, -4, ...;
    every probe answered YES tightens hi.  Only this descent is budgeted,
    because if the target set is empty the oracle answers YES everywhere and the
    descent would never stop.  Mutated only under the owning Real's lock.
    """

    __slots__ = ("oracle", "hi", "lo", "initial_upper", "budget", "queries")

    def __init__(self, oracle, initial_upper, descent_budget):
        self.oracle = oracle
        self.initial_upper = Rational(initial_upper)
        self.hi = self.initial_upper
        self.lo = None
        self.budget = descent_budget
        self.queries = 0

    def _ensure_bracket(self):
        if self.lo is not None:
            return
        gap = 1
        while True:
            if self.queries >= self.budget:
                raise BudgetExceeded(
                    f"no refused value found within {self.budget} descent "
                    "queries; the set may be empty")
            candidate = self.initial_upper - gap
            self.queries += 1
            if self.oracle(candidate):
                self.hi = candidate
            else:
                self.lo = candidate
                return
            gap *= 2

    def value_at(self, k):
        self._ensure_bracket()
        width = Rational(1, k)
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            if self.oracle(mid):
                self.hi = mid
            else:
                self.lo = mid
        return (self.lo + self.hi) / 2


def lub_bisection(oracle: UpperBoundOracle, initial_upper: int,
                  descent_budget: int = DEFAULT_DESCENT_BUDGET) -> Real:
    """Least upper bound by bracket + bisection.

    approx(k) narrows the bracket to width 1/k and returns its midpoint,
    which is within 1/(2k) of the least upper bound.  Costs about
    log2(initial bracket * k) queries, reusing all previous narrowing.
    """
    _require_initial_upper(oracle, initial_upper)
    engine = _BisectionEngine(oracle, initial_upper, descent_budget)
    return Real(engine.value_at)


def sqrt_oracle(c) -> UpperBoundOracle:
    """Oracle for the rationals whose square is below c (so the sup is the
    square root of c).  Exactly decidable: query(q) = (q >= 0 and q*q >= c)."""
    c = Rational(c)
    if c < 0:
        raise DomainError(f"square-root set needs c >= 0, got {c}")
    return UpperBoundOracle(
        query=lambda q: q >= 0 and q * q >= c,
        description=f"upper bounds of {{q : q^2 < {c}}}")


def finite_set_oracle(elements: Sequence, k_tol: int) -> UpperBoundOracle:
    """Oracle for a concrete finite set of reals, decided up to 1/k_tol.

    Order on reals is not decidable, so the oracle accepts q when every
    element is LESS or CLOSE at precision k_tol.  The resulting lub is
    within 2/k_tol of the true maximum; that slack is the price of making
    the oracle total.
    """
    reals = [as_real(b) for b in elements]
    if not reals:
        raise DomainError("finite_set_oracle needs a nonempty element list")
    _check_positive(k_tol, "k_tol")

    def query(q):
        bound = as_real(q)
        return all(separate(b, bound, k_tol) is not Verdict.GREATER
                   for b in reals)

    return UpperBoundOracle(
        query=query,
        description=f"upper bounds of a {len(reals)}-element set, "
                    f"tolerance 1/{k_tol}")
