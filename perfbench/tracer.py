"""Outside-in tracer: spans and counters around the program's public API.

Nothing in the program changes.  `Tracer.install` replaces public functions
and methods of cli, expr, real, lub, extension and rational with wrappers
that record a span (name, start, end, parent span, operation id) and a few
counters, and `uninstall` puts the originals back.  A function that one
module imports from another is replaced in every module that binds it, so
calls through `from .real import separate` are seen too.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children; a layer's inclusive
time counts only spans with no ancestor of the same name, so recursion is
not counted twice.

Two counters read memo state that the program keeps private, without
changing it: a `Real.approx` call is a memo hit when its precision is
already in the real's `_cache`, and a `UCFunction.eval` call is a hit when
its point is already in the function's `_memo`.
"""

import cProfile
import csv
import pstats
import sys
import time
from array import array

class Tracer:
    def __init__(self, modules):
        self.modules = modules          # short name -> module object
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = dict.fromkeys((
            "approx_calls", "approx_memo_calls", "approx_hits", "reals_built",
            "engines_built", "harmonic_steps", "oracle_queries", "uc_evals",
            "uc_hits", "grid_scans", "grid_points", "ast_nodes", "exit_nonzero",
            "uncaught"), 0)
        self.max_k_bits = 0
        self.max_operand_bits = 0
        self.scan_reals = {}            # id -> Real built by infimum/supremum
        self.profiler = cProfile.Profile()
        self._restore = []

    # -- operations ------------------------------------------------------------

    def begin_op(self, op_id):
        """Open the root span of one operation."""
        self.op_id = op_id
        self.stack[1:] = []
        self._open(self._name_id("op"))

    def end_op(self):
        """Close the operation's root span and any span an escaping
        RecursionError left open."""
        now = time.perf_counter()
        while len(self.stack) > 1:
            self.span_end[self.stack.pop()] = now
        self.scan_reals.clear()

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _spanned(self, name, fn, after=None):
        nid = self._name_id(name)
        tracer, clock = self, time.perf_counter
        ends, stack = self.span_end, self.stack

        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------------

    def _replace(self, module_name, attr, make):
        """Replace module.attr, and every binding of the same object in the
        other modules, with make(original)."""
        original = getattr(self.modules[module_name], attr)
        wrapper = make(original)
        for module in list(self.modules.values()) + [sys.modules[
                self.modules["real"].__package__]]:
            if getattr(module, attr, None) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self):
        m = self.modules
        counts = self.counts

        def cli_main(fn):
            inner = self._spanned("cli.main", fn)

            def main(*args, **kwargs):
                try:
                    code = inner(*args, **kwargs)
                except SystemExit as exc:
                    counts["exit_nonzero"] += exc.code != 0
                    raise
                except Exception:
                    counts["exit_nonzero"] += 1
                    counts["uncaught"] += 1
                    raise
                counts["exit_nonzero"] += code != 0
                return code

            return main

        self._replace("cli", "main", cli_main)

        def count_nodes(args, tree):
            counts["ast_nodes"] += _ast_size(tree)

        self._replace("expr", "parse",
                      lambda fn: self._spanned("expr.parse", fn, count_nodes))
        for name in ("evaluate", "sqrt_real"):
            self._replace("expr", name,
                          lambda fn, name=name: self._spanned(f"expr.{name}", fn))
        for name in ("separate", "find_apartness", "lt_witness"):
            self._replace("real", name,
                          lambda fn, name=name: self._spanned(f"real.{name}", fn))
        for name in ("lub_bisection", "lub_harmonic", "run_harmonic_lub"):
            self._replace("lub", name,
                          lambda fn, name=name: self._engine(name, fn))
        self._replace("extension", "extend",
                      lambda fn: self._spanned("extension.extend", fn))
        for name in ("infimum", "supremum"):
            self._replace("extension", name,
                          lambda fn, name=name: self._scan_real(name, fn))
        for name in ("eps_minimizer", "eps_maximizer"):
            self._replace("extension", name,
                          lambda fn: self._spanned("extension.scan", fn))
        for name in ("to_decimal", "parse_rational"):
            self._replace("rational", name,
                          lambda fn, name=name: self._spanned(f"rational.{name}", fn))

        real_cls = m["real"].Real
        self._replace_method(real_cls, "approx", self._approx)
        self._replace_method(real_cls, "__init__",
                             lambda fn: self._counted("reals_built", fn))
        self._replace_method(m["lub"].UpperBoundOracle, "__call__", self._oracle)
        self._replace_method(m["extension"].UCFunction, "eval", self._uc_eval)

        def count_grid(args, points):
            counts["grid_scans"] += 1
            counts["grid_points"] += len(points)

        self._replace_method(
            m["extension"].RationalDomain, "grid",
            lambda fn: self._spanned("extension.grid", fn, count_grid))
        self.profiler.enable()

    def uninstall(self):
        self.profiler.disable()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers that need more than a span -------------------------------------

    def _approx(self, fn):
        tracer, counts, clock = self, self.counts, time.perf_counter
        ends, stack = self.span_end, self.stack
        approx_id = self._name_id("real.approx")
        scan_id = self._name_id("extension.scan")
        scan_reals = self.scan_reals

        def approx(real, k):
            counts["approx_calls"] += 1
            if getattr(real, "_exact", None) is None:
                counts["approx_memo_calls"] += 1
                if k in getattr(real, "_cache", ()):
                    counts["approx_hits"] += 1
            if isinstance(k, int) and k.bit_length() > tracer.max_k_bits:
                tracer.max_k_bits = k.bit_length()
            i = tracer._open(approx_id)
            j = tracer._open(scan_id) if id(real) in scan_reals else None
            try:
                value = fn(real, k)
            finally:
                now = clock()
                if j is not None:
                    ends[j] = now
                    stack.pop()
                ends[i] = now
                stack.pop()
            tracer._operand(value)
            return value

        return approx

    def _operand(self, q):
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        if bits > self.max_operand_bits:
            self.max_operand_bits = bits

    def _oracle(self, fn):
        counts = self.counts

        def operand(args, answer):
            counts["oracle_queries"] += 1
            q = args[1]
            if hasattr(q, "denominator"):
                self._operand(q)

        return self._spanned("lub.oracle", fn, operand)

    def _engine(self, name, fn):
        """lub_bisection, lub_harmonic and run_harmonic_lub each build one
        engine; the harmonic ones get an oracle that also counts steps."""
        counts = self.counts
        oracle_cls = self.modules["lub"].UpperBoundOracle
        spanned = self._spanned(f"lub.{name}", fn)

        def engine(oracle, *args, **kwargs):
            counts["engines_built"] += 1
            if name != "lub_bisection":
                query = oracle.query

                def stepping(q):
                    counts["harmonic_steps"] += 1
                    return query(q)

                oracle = oracle_cls(stepping, oracle.description)
            return spanned(oracle, *args, **kwargs)

        return engine

    def _scan_real(self, name, fn):
        scan_reals = self.scan_reals
        spanned = self._spanned(f"extension.{name}", fn)

        def build(*args, **kwargs):
            real = spanned(*args, **kwargs)
            scan_reals[id(real)] = real
            return real

        return build

    def _uc_eval(self, fn):
        counts = self.counts
        spanned = self._spanned("extension.uc_eval", fn)

        def uc_eval(f, q):
            counts["uc_evals"] += 1
            if q in getattr(f, "_memo", ()):
                counts["uc_hits"] += 1
            return spanned(f, q)

        return uc_eval

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Per-name span count, self time and outermost inclusive time (s)."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls, self_time, inclusive = [0] * k, [0.0] * k, [0.0] * k
        masks = [0] * n
        for i in range(n):
            p, nid = parents[i], names[i]
            mask = (masks[p] | (1 << names[p])) if p >= 0 else 0
            masks[i] = mask
            calls[nid] += 1
            self_time[nid] += dur[i] - child[i]
            if not (mask >> nid) & 1:
                inclusive[nid] += dur[i]
        return {name: (calls[i], self_time[i], inclusive[i])
                for i, name in enumerate(self.names)}

    def fraction_seconds(self):
        """Profiler self time in the fractions module and math.gcd."""
        total = 0.0
        for (filename, _, func), row in pstats.Stats(self.profiler).stats.items():
            if filename.endswith("fractions.py") or "math.gcd" in func:
                total += row[2]
        return total

    def layer_metrics(self):
        t = self.totals()
        c = self.counts
        calls = lambda name: t.get(name, (0, 0.0, 0.0))[0]
        self_ms = lambda name: t.get(name, (0, 0.0, 0.0))[1] * 1e3
        incl_ms = lambda name: t.get(name, (0, 0.0, 0.0))[2] * 1e3
        ratio = lambda a, b: a / b if b else 0.0
        return {
            "rational.fraction_ms": self.fraction_seconds() * 1e3,
            "rational.max_operand_bits": self.max_operand_bits,
            "rational.to_decimal_calls": calls("rational.to_decimal"),
            "rational.to_decimal_ms": incl_ms("rational.to_decimal"),
            "lub.engines_built": c["engines_built"],
            "lub.oracle_queries": c["oracle_queries"],
            "lub.oracle_ms": incl_ms("lub.oracle"),
            "lub.harmonic_steps": c["harmonic_steps"],
            "lub.queries_per_engine": ratio(c["oracle_queries"], c["engines_built"]),
            "real.approx_calls": c["approx_calls"],
            "real.approx_cache_hits": c["approx_hits"],
            "real.approx_hit_ratio": ratio(c["approx_hits"], c["approx_memo_calls"]),
            "real.approx_self_ms": self_ms("real.approx"),
            "real.max_precision_bits": self.max_k_bits,
            "real.reals_built": c["reals_built"],
            "real.separate_calls": calls("real.separate"),
            "real.witness_searches": calls("real.find_apartness") + calls("real.lt_witness"),
            "extension.extend_calls": calls("extension.extend"),
            "extension.uc_evals": c["uc_evals"],
            "extension.uc_memo_hit_ratio": ratio(c["uc_hits"], c["uc_evals"]),
            "extension.grid_scans": c["grid_scans"],
            "extension.grid_points": c["grid_points"],
            "extension.scan_ms": incl_ms("extension.scan"),
            "expr.parse_calls": calls("expr.parse"),
            "expr.parse_ms": incl_ms("expr.parse"),
            "expr.evaluate_calls": calls("expr.evaluate"),
            "expr.evaluate_ms": incl_ms("expr.evaluate"),
            "expr.ast_nodes": c["ast_nodes"],
            "expr.sqrt_real_calls": calls("expr.sqrt_real"),
            "cli.calls": calls("cli.main"),
            "cli.ms": incl_ms("cli.main"),
            "cli.self_ms": self_ms("cli.main"),
            "cli.exit_nonzero": c["exit_nonzero"],
            "cli.uncaught_exceptions": c["uncaught"],
        }

    def write_spans(self, path):
        """One CSV row per span, times in microseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "parent", "op", "name", "start_us", "end_us"))
            for i in range(len(self.span_name)):
                out.writerow((i, self.span_parent[i], self.span_op[i],
                              self.names[self.span_name[i]],
                              round((self.span_start[i] - t0) * 1e6, 1),
                              round((self.span_end[i] - t0) * 1e6, 1)))


def _ast_size(tree):
    """Node count of an expression tree (iterative: trees can be deep)."""
    size, stack = 0, [tree]
    while stack:
        node = stack.pop()
        size += 1
        for field in ("operand", "left", "right"):
            child = getattr(node, field, None)
            if child is not None:
                stack.append(child)
    return size
