"""cauchyreals benchmark: seeded workloads through the real program.

    python3 perfbench/run.py --workload digits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one thread, a closed loop with a single caller: an operation
starts when the previous one has returned.  With --trace 0 the run prints
the end-to-end metrics; with --trace 1 it replays a fixed prefix of the
workload twice, untraced and then traced, and prints the per-layer metrics.
--workload all does both for every workload and prints a table.  The last
line of stdout is always one JSON object: correct, attempted, failed,
metrics.  Outputs are checked against reference.py after each round,
outside the timed region.
"""

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "cauchyreals"
MODULES = ("cli", "errors", "expr", "extension", "lub", "rational", "real")
SETUP_REPEATS = 5
# Rounds replayed by a traced run: fixed, so its counts repeat exactly.
TRACE_ROUNDS = 2

# The host's speed drifts by tens of percent within seconds when other
# tenants load it, and the program slows with it.  A fixed pure-Python loop
# is timed between operations, and each time is rescaled to the speed at
# which that loop takes CALIBRATION_REF_S.  The raw wall-clock figures are
# printed beside the rescaled ones.
CALIBRATION_LOOP = 20_000
CALIBRATION_REF_S = 0.001

E2E_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "throughput_ops_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    pass


def fresh_import():
    """Import the package from src/ anew, so set-up pays its import cost."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {SRC}")
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise ProgramMissing(f"{PACKAGE} was imported from {package.__file__}")
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def calibration_time():
    """Wall time of a fixed interpreter loop, for rescaling (see above)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - t0


class Clock:
    """Times a call in wall seconds and rescaled to the reference speed,
    using calibration loops run just before and just after it."""

    def __init__(self):
        self.before = calibration_time()

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        after = calibration_time()
        scaled = raw * CALIBRATION_REF_S * 2 / (self.before + after)
        self.before = after
        return result, raw, scaled


def _set_up_once(workload, seed):
    prog = wl.Program(fresh_import())
    wl.make_round(workload, seed, 0)
    ctx = {}
    for op in wl.WARMUP[workload]:
        wl.execute(prog, op, ctx)
    return prog


def setup(workload, seed, repeats):
    """Import, generate the first round and run the warm-up operations,
    `repeats` times; returns the program and the median rescaled and raw
    set-up times."""
    clock, raw, scaled = Clock(), [], []
    for _ in range(repeats):
        prog, r, s = clock.time(_set_up_once, workload, seed)
        raw.append(r)
        scaled.append(s)
    return prog, statistics.median(scaled), statistics.median(raw)


class Tally:
    """Attempted and failed operations, with a few failures kept for the
    report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def record(self, op, ok, outcome):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append({"op": op.describe()[:300],
                                      "code": outcome.code,
                                      "raised": outcome.raised,
                                      "out": outcome.out[:200]})


def probe_verdict(prog, op, outcome):
    """A malformed input ends allowed, crashed (uncaught exception) or wrong."""
    if outcome.raised:
        return "crashed: " + outcome.raised.split(":")[0]
    if wl.verify(prog, op, outcome):
        return f"allowed: exit {outcome.code}"
    return f"wrong: exit {outcome.code}"


def run_probes(prog, seed):
    """Run wide's malformed inputs once each."""
    return {op.describe()[:60]: probe_verdict(prog, op, wl.execute(prog, op, {}))
            for op in wl.wide_probes(seed)}


def measure(workload, seed, seconds):
    """The untraced run: whole rounds until `seconds` of measured time."""
    prog, setup_s, raw_setup_s = setup(workload, seed, SETUP_REPEATS)
    raw, scaled, tally = [], [], Tally()
    digest = hashlib.sha256()
    r = 0
    clock = Clock()
    while sum(raw) < seconds:
        ops = wl.make_round(workload, seed, r)
        for op in ops:
            digest.update(op.describe().encode())
        ctx, outcomes = {}, []
        for op in ops:
            outcome, wall, rescaled = clock.time(wl.execute, prog, op, ctx)
            outcomes.append(outcome)
            raw.append(wall)
            scaled.append(rescaled)
        for op, outcome in zip(ops, outcomes):
            tally.record(op, wl.verify(prog, op, outcome), outcome)
        del ctx, outcomes
        r += 1
    detail = {"workload": workload, "seed": seed, "rounds": r,
              "ops_digest": digest.hexdigest(),
              "failure_ratio": tally.failed / tally.attempted,
              "wall": _timings(raw, raw_setup_s), "failures": tally.examples}
    probes_ok = True
    if workload == "wide":
        detail["probes"] = run_probes(prog, seed)
        probes_ok = not any(v.startswith("wrong") for v in detail["probes"].values())
    metrics = _timings(scaled, setup_s)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally, probes_ok, metrics, detail


def _timings(latencies, setup_s):
    """Closed loop with one caller: throughput is operations per second of
    back-to-back operation time."""
    return {"latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "throughput_ops_s": len(latencies) / sum(latencies),
            "setup_s": setup_s}


def _replay(prog, ops, tracer=None):
    """Run ops in order (a new round context at each round boundary marker
    None); returns wall seconds and outcomes."""
    outcomes, ctx = [], {}
    t0 = time.perf_counter()
    for op_id, op in enumerate(ops):
        if op is None:
            ctx = {}
            outcomes.append(None)
            continue
        if tracer is not None:
            tracer.begin_op(op_id)
        outcomes.append(wl.execute(prog, op, ctx))
        if tracer is not None:
            tracer.end_op()
    return time.perf_counter() - t0, outcomes


def _same(a, b):
    return (a.code, a.out, a.raised.split(":")[0]) == (b.code, b.out, b.raised.split(":")[0])


def traced_replay(prog, ops, timed):
    """Replay ops untraced, then traced.  ops[:timed] are checked: both
    replays must pass, and creal must print the same in both.  Returns the
    tally, the tracer, the traced/untraced wall-time ratio and both lists
    of outcomes."""
    plain_wall, plain = _replay(prog, ops)
    tracer = Tracer(dict(vars(prog)))
    tracer.install()
    try:
        traced_wall, traced = _replay(prog, ops, tracer)
    finally:
        tracer.uninstall()
    tally = Tally()
    for op, a, b in zip(ops[:timed], plain, traced):
        if op is None:
            continue
        ok = wl.verify(prog, op, a) and wl.verify(prog, op, b)
        tally.record(op, ok and (op.kind != "cli" or _same(a, b)), b)
    return tally, tracer, traced_wall / plain_wall, plain, traced


def trace(workload, seed, spans_path=None):
    """The traced run: a fixed prefix replayed untraced, then traced; wide
    adds its probes after the checked operations.  Returns the tally,
    whether no probe was wrong, and the per-layer metrics."""
    prog = _set_up_once(workload, seed)
    ops = []
    for r in range(TRACE_ROUNDS):
        ops += wl.make_round(workload, seed, r) + [None]
    timed = len(ops)
    if workload == "wide":
        ops += wl.wide_probes(seed)
    tally, tracer, overhead, plain, traced = traced_replay(prog, ops, timed)
    probes_ok = not any(
        probe_verdict(prog, op, outcome).startswith("wrong")
        for op, a, b in zip(ops[timed:], plain[timed:], traced[timed:])
        for outcome in (a, b))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = overhead
    metrics.update(src_lines())
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
    return tally, probes_ok, metrics


def src_lines():
    """Physical lines per module of the package, and in total."""
    files = {p.stem: p for p in (SRC / PACKAGE).glob("*.py")}
    counts = {stem: len(files[stem].read_text().splitlines()) if stem in files else 0
              for stem in ("__init__",) + MODULES}
    lines = {f"{'init' if stem == '__init__' else stem}.src_lines": n
             for stem, n in counts.items()}
    lines["src.lines"] = sum(len(p.read_text().splitlines()) for p in files.values())
    return lines


def unit_of(name):
    """Unit of a metric; `all` prefixes names with the workload."""
    base = name.rsplit(".", 1)[-1]
    if base in E2E_UNITS:
        return E2E_UNITS[base]
    for suffix, unit in (("ms", "ms"), ("ratio", "ratio"), ("bits", "bits"),
                         ("lines", "lines")):
        if name.endswith(suffix):
            return unit
    return "count"


def _with_units(metrics):
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()}


def _result(correct, tally, metrics):
    return json.dumps({"correct": correct, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": _with_units(metrics)})


def run_one(args):
    spans = BENCH_DIR / "out" / f"spans-{args.workload}.csv"
    if args.trace:
        tally, probes_ok, metrics = trace(args.workload, args.seed, spans)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "spans": str(spans.relative_to(ROOT)),
                          "failures": tally.examples}))
        print(_result(tally.failed == 0 and probes_ok, tally, metrics))
        return
    tally, probes_ok, metrics, detail = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(detail))
    print(_result(tally.failed == 0 and probes_ok, tally, metrics))


def run_all(args):
    total, merged, correct = Tally(), {}, True
    for workload in wl.WORKLOADS:
        tally, probes_ok, e2e, detail = measure(workload, args.seed, args.seconds)
        t_tally, t_probes_ok, layers = trace(
            workload, args.seed, BENCH_DIR / "out" / f"spans-{workload}.csv")
        correct &= (tally.failed == 0 and t_tally.failed == 0
                    and probes_ok and t_probes_ok)
        total.attempted += tally.attempted
        total.failed += tally.failed
        print(f"== {workload}: {tally.attempted} ops in {detail['rounds']} rounds, "
              f"failed {tally.failed}, failure_ratio {detail['failure_ratio']:.4f}, "
              f"digest {detail['ops_digest'][:16]}")
        for name, value in e2e.items():
            print(f"  {name:32s} {value:14.4f} {E2E_UNITS[name]}")
        for probe, verdict in detail.get("probes", {}).items():
            print(f"  probe {probe!r}: {verdict}")
        print(f"  -- traced run: {t_tally.attempted} ops, failed {t_tally.failed}")
        for name, value in layers.items():
            print(f"  {name:32s} {value:14.4f}" if isinstance(value, float)
                  else f"  {name:32s} {value:14d}")
        merged.update({f"{workload}.{k}": v for k, v in {**e2e, **layers}.items()})
    print(_result(correct, total, merged))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_one(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
