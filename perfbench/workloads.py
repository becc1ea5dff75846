"""Seeded workloads: what each operation is, how it runs, how it is checked.

A workload is an endless sequence of rounds.  Round r is generated from
(seed, r) alone, and every round has the same fixed mix of operation shapes;
the seed varies only the numbers inside them.  A run executes whole rounds,
so the latency percentiles and the throughput always see the same mix and
do not depend on where the clock stopped.

Operations only receive generated inputs: `creal` argument vectors for the
calculator workloads, and plain rationals for the library calls of
`certify`.  Each operation carries the reference data (see reference.py)
that its outcome is checked against afterwards.
"""

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

WORKLOADS = ("digits", "wide", "certify")

SEP_BUDGET = 2 ** 20   # creal's default --sep-budget
COMPARE_K = 10 ** 6
WITNESS_BUDGET = 2 ** 40
LADDER = tuple(10 ** (5 * 2 ** j) for j in range(5))   # 1e5 ... 1e80
EXTREMA_K = 16


@dataclass(frozen=True)
class Op:
    """One operation.  `call` is a creal argument vector for kind "cli" and
    the parameters of a library call otherwise; `check` is reference data
    and plays no part in the digest."""

    kind: str
    call: tuple
    check: tuple = ()

    def describe(self):
        return repr((self.kind, self.call))


@dataclass(frozen=True)
class Outcome:
    """How an operation ended: exit code and output for creal, a payload for
    library calls, or the exception that escaped."""

    code: object = None
    out: str = ""
    err: str = ""
    payload: object = None
    raised: str = ""


# -- expression builders: creal source text and reference tree together -------


@dataclass(frozen=True)
class E:
    text: str
    node: tuple
    atomic: bool = True     # usable as a + or * operand without parentheses
    divisible: bool = True  # usable next to '/' without parentheses


def lit(q):
    q = Fraction(q)
    if q.denominator == 1:
        return E(str(q.numerator), ("lit", q))
    return E(f"{q.numerator}/{q.denominator}", ("lit", q), divisible=False)


def sqrt(x):
    return E(f"sqrt({x.text})", ("sqrt", x.node))


def _wrap(x, divisible=False):
    ok = x.divisible if divisible else x.atomic
    return x.text if ok else f"({x.text})"


def add(*xs):
    return E("+".join(_wrap(x) for x in xs), ("sum", [x.node for x in xs]),
             atomic=False, divisible=False)


def mul(*xs):
    return E("*".join(_wrap(x) for x in xs), ("prod", [x.node for x in xs]),
             atomic=False, divisible=False)


def sub(a, b):
    return E(f"{_wrap(a)}-{_wrap(b)}", ("sub", a.node, b.node),
             atomic=False, divisible=False)


def div(a, b):
    return E(f"{_wrap(a, True)}/{_wrap(b, True)}", ("div", a.node, b.node),
             atomic=False, divisible=False)


def _nonsquare(rng, lo=2, hi=99):
    while True:
        n = rng.randint(lo, hi)
        if math.isqrt(n) ** 2 != n:
            return n


def _distinct_nonsquares(rng, count):
    pool = [n for n in range(2, 1000) if math.isqrt(n) ** 2 != n]
    return rng.sample(pool, count)


def _ratio(rng, hi=99):
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def _radicand_literal(rng, r):
    """A rational literal for `creal sqrt`, cycling integer, ratio and
    decimal forms by round."""
    form = r % 3
    if form == 0:
        return lit(_nonsquare(rng))
    if form == 1:
        return lit(Fraction(_nonsquare(rng), rng.randint(2, 9)))
    whole, frac = _nonsquare(rng, 2, 60), rng.randint(1, 99)
    value = Fraction(whole * 100 + frac, 100)
    return E(f"{whole}.{frac:02d}", ("lit", value))


def _eval(x, digits):
    return Op("cli", ("eval", x.text, "--digits", str(digits)),
              ("decimal", x.node, digits))


# -- digits: few nodes, many digits -------------------------------------------

DIGIT_LEVELS = (10, 100, 300, 1000)


def _digits_round(rng, r):
    ops = []
    for d in DIGIT_LEVELS:
        c = _radicand_literal(rng, r)
        ops.append(Op("cli", ("sqrt", c.text, "--digits", str(d)),
                      ("decimal", ("sqrt", c.node), d)))
        # Alternate the two nested forms by round, so every pair of rounds
        # has the same cost mix whatever the seed.
        if r % 2 == 0:
            nested = sqrt(add(lit(rng.randint(1, 9)), sqrt(lit(_nonsquare(rng)))))
        else:
            nested = sqrt(sqrt(lit(_nonsquare(rng))))
        ops.append(_eval(nested, d))
        ops.append(_eval(add(sqrt(lit(_nonsquare(rng))),
                             sqrt(lit(_nonsquare(rng)))), d))
        ops.append(_eval(mul(sqrt(lit(_nonsquare(rng))),
                             sqrt(lit(_nonsquare(rng)))), d))
        ops.append(_eval(div(lit(rng.randint(1, 9)),
                             sqrt(lit(_nonsquare(rng)))), d))
        ops.append(_eval(div(lit(_ratio(rng, 999)), lit(_ratio(rng, 999))), d))
    # One three-radical expression at the lowest level: besides covering
    # that shape, it puts the median inside the 100-digit product tier
    # rather than in the gap below it.
    ops.append(_eval(add(mul(sqrt(lit(_nonsquare(rng))), sqrt(lit(_nonsquare(rng)))),
                         sqrt(lit(_nonsquare(rng)))), DIGIT_LEVELS[0]))
    return ops


# -- wide: many nodes, few digits ---------------------------------------------


def _leaves(rng, count, repeated):
    if repeated:
        return [sqrt(lit(_nonsquare(rng)))] * count
    return [sqrt(lit(n)) for n in _distinct_nonsquares(rng, count)]


def _near_rational(value_num, scale_exp, offset):
    """floor(sqrt(value_num) * 10^e) + offset, over 10^e."""
    scale = 10 ** scale_exp
    return Fraction(math.isqrt(value_num * scale * scale) + offset, scale)


def _compare(x, y):
    return Op("cli", ("compare", x.text, y.text, "--k", str(COMPARE_K)),
              ("verdict", x.node, y.node, COMPARE_K))


WIDE_DIGITS = 10


def _near_zero(rng, variant, digits):
    a = _nonsquare(rng)
    if variant == 0:
        den = sub(sqrt(lit(a)), sqrt(lit(a)))
    elif variant == 1:
        den = sub(mul(sqrt(lit(a)), sqrt(lit(a))), lit(a))
    else:
        q = _ratio(rng)
        den = add(sub(lit(q), lit(q)), lit(Fraction(1, 10 ** rng.randint(7, 9))))
    x = div(lit(rng.randint(1, 99)), den)
    return Op("cli", ("eval", x.text, "--digits", str(digits)),
              ("near_zero", x.node, den.node, SEP_BUDGET, digits))


def _wide_round(rng, r):
    """26 operations at fixed sizes, so each cost tier holds a fixed share of
    the round: the median lands inside the 40-leaf tier and the 90th
    percentile inside the 192-leaf tier, whatever the seed."""
    ops = []
    # Sums of sqrt leaves; within each size, half repeat one radicand and
    # half use distinct radicands.
    for count, times in ((40, 6), (96, 2), (192, 4)):
        for i in range(times):
            ops.append(_eval(add(*_leaves(rng, count, repeated=i % 2 == 0)),
                             WIDE_DIGITS))
    # Products: the precision request grows with the product's bound; 20
    # factors take a tenth of a second, 40 take seconds and 100 take minutes.
    for count in (8, 20):
        for repeated in (True, False):
            ops.append(_eval(mul(*_leaves(rng, count, repeated)), WIDE_DIGITS))
    for count in (100, 200, 400):
        ops.append(_eval(add(*[lit(_ratio(rng)) for _ in range(count)]),
                         WIDE_DIGITS))
    for variant in range(3):
        ops.append(_near_zero(rng, variant, WIDE_DIGITS))
    a, b = _nonsquare(rng), _nonsquare(rng)
    ops.append(_compare(add(sqrt(lit(a)), sqrt(lit(b))),
                        sqrt(add(lit(a + b), mul(lit(2), sqrt(lit(a * b)))))))
    a, b = rng.randint(2, 30), _nonsquare(rng)
    ops.append(_compare(sqrt(lit(a * a * b)), mul(lit(a), sqrt(lit(b)))))
    # Rationals a few units of 10^-5 above one root and of 10^-6 below a
    # sum of roots: near-equal, but far enough apart for LESS and GREATER.
    c = _nonsquare(rng)
    ops.append(_compare(sqrt(lit(c)), lit(_near_rational(c, 5, rng.randint(2, 9)))))
    c = _nonsquare(rng)
    ops.append(_compare(add(*[sqrt(lit(c))] * 40),
                        lit(_near_rational(40 * 40 * c, 6, -rng.randint(3, 9)))))
    return ops


def wide_probes(seed):
    """Malformed and oversize inputs, each with its allowed outcomes: exit
    codes, and whether exit 0 needs checked digits.  Run once per run,
    outside the timed rounds."""
    rng = random.Random(f"wide-probes:{seed}")
    nested = "(" * 1000 + "1" + ")" * 1000
    terms = [lit(_ratio(rng)) for _ in range(2000)]
    long_sum = add(*terms)
    third = lit(Fraction(1, 3))
    return [
        Op("cli", ("eval", "¹"), ("probe", (2,), None, 10)),
        Op("cli", ("eval", nested), ("probe", (0, 2), ("lit", Fraction(1)), 10)),
        Op("cli", ("eval", long_sum.text), ("probe", (0, 2, 4), long_sum.node, 10)),
        Op("cli", ("eval", third.text, "--digits", "5000"),
           ("probe", (0, 4), third.node, 5000)),
    ]


# -- certify: the paper's machinery as a library ------------------------------


def _certify_round(rng, r):
    ops = []
    for kind in ("lt_witness", "lt_witness", "apartness", "apartness"):
        c = _nonsquare(rng, 2, 30)
        q = _near_rational(c, rng.randint(3, 10), rng.randint(-1, 1))
        ops.append(Op(kind, (c, q, WITNESS_BUDGET)))
    ladder = (_nonsquare(rng, 2, 30), _nonsquare(rng, 2, 30), _ratio(rng, 9))
    for rung in range(len(LADDER)):
        ops.append(Op("ladder", ladder + (rung,)))
    for _ in range(2):
        ops.append(Op("harmonic", (_nonsquare(rng, 2, 20), rng.randint(50, 200))))
    ops.append(Op("cli", ("lub-demo", "sqrt2", "--mode", "paper", "--digits", "2"),
                  ("lub_demo", 2)))
    for _ in range(2):
        elements = tuple(("sqrt", _nonsquare(rng, 2, 30)) if i % 2 == 0
                         else ("lit", _ratio(rng, 9)) for i in range(4))
        ops.append(Op("finite_set", (elements, 10 ** 6, 10 ** 6)))
    # Extrema: every function has Lipschitz constant <= 32 on a width-2
    # interval, so grid size depends on k only.  The three of a round are
    # the top latency tier; one k for all keeps the 90th percentile inside
    # it.  The two families alternate so every pair of rounds has the same
    # mix.
    for i in range(3):
        k = EXTREMA_K
        if (i + r) % 2 == 0:
            left = Fraction(rng.randint(-20, 20), 4)
            params = ("shifted_square", left, left + 2,
                      left + Fraction(rng.randint(1, 15), 8),   # minimiser
                      Fraction(rng.randint(4, 32), 4),          # alpha <= 8
                      _ratio(rng) - 1)                          # minimum
        else:
            params = ("double_well", Fraction(0), Fraction(2),
                      Fraction(rng.randint(4, 12), 4))          # c in [1, 3]
        ops.append(Op("extrema", params + (k,)))
    return ops


_ROUNDS = {"digits": _digits_round, "wide": _wide_round, "certify": _certify_round}


def make_round(workload, seed, r):
    """The operations of round r, in a seeded order.  Ladder rungs keep
    ascending order among themselves: they refine one long-lived real."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    ops = _ROUNDS[workload](rng, r)
    rng.shuffle(ops)
    slots = [i for i, op in enumerate(ops) if op.kind == "ladder"]
    rungs = sorted((ops[i] for i in slots), key=lambda op: op.call[-1])
    for i, op in zip(slots, rungs):
        ops[i] = op
    return ops


# Fixed, seed-independent operations run during set-up.
WARMUP = {
    "digits": [Op("cli", ("sqrt", "2", "--digits", "10")),
               Op("cli", ("eval", "sqrt(2)+1/sqrt(3)", "--digits", "10"))],
    "wide": [Op("cli", ("eval", "+".join(["sqrt(2)"] * 20))),
             Op("cli", ("compare", "sqrt(2)", "1414/1000"))],
    "certify": [Op("harmonic", (2, 20)),
                Op("extrema", ("double_well", Fraction(0), Fraction(2),
                               Fraction(2), 2))],
}


# -- execution -----------------------------------------------------------------


class Program:
    """The modules under test, looked up at call time so that a tracer's
    replacements are the functions that run."""

    def __init__(self, modules):
        for name, module in modules.items():
            setattr(self, name, module)


def execute(prog, op, ctx):
    """Run one operation; any exception is captured, never propagated.
    `ctx` holds state shared by the operations of one round."""
    try:
        if op.kind == "cli":
            return _run_cli(prog, op.call)
        return Outcome(payload=_LIBRARY[op.kind](prog, ctx, *op.call))
    except SystemExit as exc:   # argparse rejecting arguments
        return Outcome(code=exc.code)
    except Exception as exc:    # noqa: BLE001 - every escape is a result here
        return Outcome(raised=f"{type(exc).__name__}: {str(exc)[:200]}")


def _run_cli(prog, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = prog.cli.main(list(argv))
    return Outcome(code=code, out=out.getvalue(), err=err.getvalue())


def _sqrt_lub(prog, c):
    return prog.lub.lub_bisection(prog.lub.sqrt_oracle(c), max(1, math.ceil(c)))


def _lt_witness(prog, ctx, c, q, budget):
    x, y = _sqrt_lub(prog, c), prog.real.from_rational(q)
    return x, y, prog.real.lt_witness(x, y, budget)


def _apartness(prog, ctx, c, q, budget):
    z = _sqrt_lub(prog, c) - prog.real.from_rational(q)
    return z, prog.real.find_apartness(z, budget)


def _ladder(prog, ctx, c, d, r, rung):
    """Refine two long-lived reals to the next rung, then re-read every
    earlier rung, which must come back identical from the memo."""
    state = ctx.get(("ladder", c, d, r))
    if state is None:
        x = _sqrt_lub(prog, c)
        y = x * _sqrt_lub(prog, d) + prog.real.from_rational(r)
        state = ctx[("ladder", c, d, r)] = (x, y, {})
    x, y, seen = state
    k = LADDER[rung]
    values = (x.approx(k), y.approx(k))
    stable = all((x.approx(j), y.approx(j)) == v for j, v in seen.items())
    seen[k] = values
    return k, values, stable


def _harmonic(prog, ctx, c, precision):
    run = prog.lub.run_harmonic_lub(prog.lub.sqrt_oracle(c), max(1, math.ceil(c)),
                                    precision)
    return run.result, run.bracket_ok()


def _finite_set(prog, ctx, elements, k_tol, k):
    reals = [_sqrt_lub(prog, v) if kind == "sqrt" else prog.real.from_rational(v)
             for kind, v in elements]
    upper = max(math.isqrt(v) + 1 if kind == "sqrt" else math.floor(v) + 1
                for kind, v in elements)
    oracle = prog.lub.finite_set_oracle(reals, k_tol)
    return prog.lub.lub_bisection(oracle, upper).approx(k)


def _polynomial(params):
    """The function and its exact minimum and maximum on [lo, hi]."""
    family, lo, hi = params[:3]
    if family == "shifted_square":
        m, alpha, beta = params[3:]
        f = lambda q: alpha * (q - m) ** 2 + beta
        return f, beta, max(f(lo), f(hi))
    c, = params[3:]
    f = lambda q: (q * q - c) ** 2
    return f, Fraction(0), max(f(lo), f(hi))


def _extrema(prog, ctx, *params):
    *shape, k = params
    f, _, _ = _polynomial(shape)
    ext = prog.extension
    uc = ext.UCFunction(ext.RationalDomain(shape[1], shape[2]), fn=f,
                        modulus=lambda j: 32 * j)
    return (ext.infimum(uc).approx(k), ext.supremum(uc).approx(k),
            ext.eps_minimizer(uc, k))


_LIBRARY = {
    "lt_witness": _lt_witness,
    "apartness": _apartness,
    "ladder": _ladder,
    "harmonic": _harmonic,
    "finite_set": _finite_set,
    "extrema": _extrema,
}


# -- checking ------------------------------------------------------------------


def verify(prog, op, outcome):
    """True iff the outcome is an allowed result for the operation and every
    value in it is confirmed by the reference."""
    if outcome.raised:
        return False
    try:
        if op.kind == "cli":
            return _verify_cli(op.check, outcome)
        return _VERIFY[op.kind](prog, op.call, outcome.payload)
    except (ArithmeticError, ValueError, TypeError):
        return False


def _verify_cli(check, o):
    kind = check[0]
    text = o.out.strip()
    if kind == "decimal":
        _, node, digits = check
        return o.code == 0 and ref.check_decimal(node, text, digits)
    if kind == "verdict":
        _, left, right, k = check
        verdict = "CLOSE" if text == f"CLOSE(1/{k})" else text
        return o.code == 0 and ref.check_verdict(left, right, verdict, k)
    if kind == "near_zero":
        _, node, den, budget, digits = check
        if o.code == 3:
            return ref.check_abs_at_most(den, Fraction(3, budget))
        return o.code == 0 and ref.check_decimal(node, text, digits)
    if kind == "probe":
        _, allowed, node, digits = check
        if o.code not in allowed:
            return False
        return o.code != 0 or ref.check_decimal(node, text, digits)
    if kind == "lub_demo":
        _, digits = check
        return (o.code == 0 and "bracket-ok=yes" in o.err
                and ref.check_decimal(("sqrt", ("lit", Fraction(2))), text, digits))
    raise ValueError(f"unknown check {kind!r}")


def _sqrt_node(c):
    return ("sqrt", ("lit", Fraction(c)))


def _verify_lt_witness(prog, call, payload):
    c, q, budget = call
    x, y, w = payload
    real = prog.real
    if isinstance(w, real.GapCertificate):
        return w.check(x, y) and ref.check_gap(_sqrt_node(c), ("lit", q), w.gap)
    if isinstance(w, real.GreaterGap):
        cert = w.certificate
        return cert.check(y, x) and ref.check_gap(("lit", q), _sqrt_node(c), cert.gap)
    return (w is real.INDISTINGUISHABLE and ref.check_abs_at_most(
        ("sub", _sqrt_node(c), ("lit", q)), Fraction(1, budget)))


def _verify_apartness(prog, call, payload):
    c, q, budget = call
    z, w = payload
    diff = ("sub", _sqrt_node(c), ("lit", q))
    if isinstance(w, prog.real.ApartnessWitness):
        return w.check(z) and ref.check_abs_at_least(diff, Fraction(1, w.k0))
    return (w is prog.real.NOT_SEPARATED
            and ref.check_abs_at_most(diff, Fraction(3, budget)))


def _verify_ladder(prog, call, payload):
    c, d, r, _ = call
    k, (a, b), stable = payload
    y = ("sum", [("prod", [_sqrt_node(c), _sqrt_node(d)]), ("lit", r)])
    tol = Fraction(1, k)
    return (stable and ref.check_within(_sqrt_node(c), a, tol)
            and ref.check_within(y, b, tol))


def _verify_harmonic(prog, call, payload):
    c, precision = call
    result, bracket_ok = payload
    return bracket_ok and ref.check_within(_sqrt_node(c), result,
                                           Fraction(1, precision))


def _verify_finite_set(prog, call, payload):
    elements, k_tol, k = call
    top = ("max", [_sqrt_node(v) if kind == "sqrt" else ("lit", v)
                   for kind, v in elements])
    return ref.check_within(top, payload, Fraction(1, k) + Fraction(2, k_tol))


def _verify_extrema(prog, call, payload):
    *shape, k = call
    f, low, high = _polynomial(shape)
    inf, sup, q = payload
    tol = Fraction(1, k)
    return (abs(inf - low) <= tol and abs(sup - high) <= tol
            and shape[1] <= q <= shape[2] and f(q) - low <= tol)


_VERIFY = {
    "lt_witness": _verify_lt_witness,
    "apartness": _verify_apartness,
    "ladder": _verify_ladder,
    "harmonic": _verify_harmonic,
    "finite_set": _verify_finite_set,
    "extrema": _verify_extrema,
}
