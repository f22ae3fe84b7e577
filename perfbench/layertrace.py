"""Tracing from outside the program: spans around each layer's public
functions, self times from the span tree, and per-layer counts.

``Tracer.install`` replaces each target function with a wrapper on every
``dualcheck`` module that bound the name, because several modules import
``solve_lp`` and friends directly.  A wrapper appends a span (id, parent,
name, start, end) to the current instance's list and keeps the arguments
and result only where a count needs them.  When an instance ends, outside
the timed region, its spans are folded into the pass's totals, every LP
outcome is replayed through ``exactlp.verify_certificate`` and the
spans are dropped, unless the pass is the first, the count window, whose
spans are written out when the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from fractions import Fraction
from pathlib import Path

# (module, attribute) of each wrapped public function; the span name is
# "<module>.<function>" unless given.
TARGETS = (
    ("exactlp", "solve_lp"),
    ("polyhedra", "project"),
    ("polyhedra", "zero_in"),
    ("polyhedra", "implicit_rows"),
    ("polyhedra", "minkowski_sum"),
    ("funcexpr", "lower"),
    ("funcexpr", "conjugate_polyfunc"),
    ("funcexpr", "epi_diff_poly"),
    ("engine", "value_report"),
    ("engine", "solve_primal"),
    ("engine", "solve_dual"),
    ("engine", "to_perturbation"),
    ("engine", "recover_dual_via_separation"),
    ("engine", "dual_objective_value"),
    ("conditions", "diagnose"),
    ("conditions", "evaluate_condition"),
    ("conditions", "DiagnosisContext.__init__"),
    ("inference", "Engine.infer"),
    ("setexpr", "normalize"),
    ("setexpr", "attrs"),
    ("probfile", "parse_problem"),
    ("reportfmt", "diagnosis_to_structured"),
    ("reportfmt", "dumps_structured"),
)
SPAN_NAMES = {
    "conditions.DiagnosisContext.__init__": "conditions.context",
    "inference.Engine.infer": "inference.infer",
}
KEEP_IO = {"exactlp.solve_lp", "polyhedra.project", "probfile.parse_problem", "reportfmt.dumps_structured"}
LAYERS = ("exactlp", "polyhedra", "funcexpr", "engine", "conditions", "inference", "setexpr", "probfile", "reportfmt", "perfbench")
ROOT = "perfbench.instance"
RC_INDICES = ("1", "2", "3", "4", "5", "6prime", "6", "7", "8")
PER_INSTANCE_COUNTS = (
    "polyhedra.project.rows_in",
    "polyhedra.project.rows_out",
    "polyhedra.project.lps",
    "polyhedra.implicit_rows.lps",
    "probfile.parse_problem.bytes",
    "reportfmt.bytes",
)

# span fields
SID, PARENT, NAME, START, END, IO = range(6)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover.  ``spans[i][SID] == i``; roots have parent -1."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(s)
    out = []
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s[SID], ()), key=lambda c: c[START]):
            lo, hi = max(c[START], s[START]), min(c[END], s[END])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s[END] - s[START] - covered)
    return out


def _bits(values) -> int:
    best = 0
    for q in values:
        q = Fraction(q)
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def _lp_numbers(program, outcome):
    yield from program.objective
    for r in program.rows:
        yield from r.coeffs
        yield r.rhs
    for pair in program.bounds or ():
        yield from (b for b in pair if b is not None)
    for attr in ("point", "dual", "farkas", "ray"):
        yield from getattr(outcome, attr, ())
    if hasattr(outcome, "value"):
        yield outcome.value


def _merge(into: dict, part: dict):
    for k, v in part.items():
        if k.endswith("_max"):
            into[k] = max(into.get(k, 0), v)
        else:
            into[k] = into.get(k, 0) + v


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = [-1]
        self.passes: list[dict] = []
        self.window_spans: list = []
        self._restore: list = []
        self._verify = None

    # -- installation --------------------------------------------------------

    def install(self):
        import dualcheck.exactlp

        self._verify = dualcheck.exactlp.verify_certificate
        mods = [m for k, m in sys.modules.items() if k == "dualcheck" or k.startswith("dualcheck.")]
        for modname, attr in TARGETS:
            owner = sys.modules[f"dualcheck.{modname}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            name = SPAN_NAMES.get(f"{modname}.{attr}", f"{modname}.{attr}")
            wrapper = self._wrap(name, original)
            if len(path) > 1:  # a method: patch the class only
                self._restore.append((owner, path[-1], original))
                setattr(owner, path[-1], wrapper)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        keep_io = name in KEEP_IO
        condition = name == "conditions.evaluate_condition"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_name = name
            if condition:
                index = args[0] if isinstance(args[0], str) else args[0].index
                span_name = "conditions.rc" + str(index).replace("'", "prime")
            rec = [len(spans), stack[-1], span_name, 0, 0, None]
            spans.append(rec)
            stack.append(rec[SID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if keep_io:
                rec[IO] = (args, result)
            return result

        return wrapper

    # -- per instance --------------------------------------------------------

    def begin_pass(self):
        self.passes.append({})

    def run_instance(self, fn, item):
        """Runs ``fn(item)`` under a root span; call ``end_instance`` after."""
        rec = [0, -1, ROOT, 0, 0, None]
        self.spans.append(rec)
        self.stack.append(0)
        rec[START] = time.perf_counter_ns()
        try:
            return fn(item)
        finally:
            rec[END] = time.perf_counter_ns()
            self.stack.pop()

    def end_instance(self):
        spans = self.spans
        selfs = self_times(spans)
        agg: dict = {"instances": 1, "root_ns": spans[0][END] - spans[0][START]}
        for s, own in zip(spans, selfs):
            name = s[NAME]
            agg[f"{name}.calls"] = agg.get(f"{name}.calls", 0) + 1
            agg[f"{name}.self_ns"] = agg.get(f"{name}.self_ns", 0) + own
            agg[f"{name}.incl_ns"] = agg.get(f"{name}.incl_ns", 0) + s[END] - s[START]
            layer = name.split(".")[0] + ".layer_self_ns"
            agg[layer] = agg.get(layer, 0) + own
            if s[IO] is not None:
                self._count_io(agg, spans, s)
        _merge(self.passes[-1], agg)
        if len(self.passes) == 1:  # the count window
            self.window_spans.append([(s[SID], s[PARENT], s[NAME], s[START], s[END], own) for s, own in zip(spans, selfs)])
        spans.clear()

    def _count_io(self, agg: dict, spans, s):
        args, result = s[IO]
        name = s[NAME]
        if name == "exactlp.solve_lp":
            program = args[0]
            if not self._verify(program, result):
                agg["exactlp.verify_certificate.failed"] = agg.get("exactlp.verify_certificate.failed", 0) + 1
            rows = len(program.rows) + sum(b is not None for pair in program.bounds or () for b in pair)
            _merge(agg, {
                "exactlp.solve_lp.rows_max": rows,
                "exactlp.solve_lp.cols_max": program.n,
                "exactlp.solve_lp.bits_max": _bits(_lp_numbers(program, result)),
            })
            parent = s[PARENT]
            seen = set()
            while parent >= 0:
                seen.add(spans[parent][NAME])
                parent = spans[parent][PARENT]
            for owner in ("polyhedra.project", "polyhedra.implicit_rows"):
                if owner in seen:
                    agg[f"{owner}.lps"] = agg.get(f"{owner}.lps", 0) + 1
        elif name == "polyhedra.project":
            p = args[0]
            agg["polyhedra.project.rows_in"] = agg.get("polyhedra.project.rows_in", 0) + len(p.ineqs) + len(p.eqs)
            agg["polyhedra.project.rows_out"] = agg.get("polyhedra.project.rows_out", 0) + len(result.ineqs) + len(result.eqs)
        elif name == "probfile.parse_problem":
            agg["probfile.parse_problem.bytes"] = agg.get("probfile.parse_problem.bytes", 0) + len(args[0].encode())
        elif name == "reportfmt.dumps_structured":
            agg["reportfmt.bytes"] = agg.get("reportfmt.bytes", 0) + len(result.encode())

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: counts per instance over the count window,
        times per instance over every pass, LP replay failures in total."""
        window, every = self.passes[0], {}
        for r in self.passes:
            _merge(every, r)
        kw, ka = window["instances"], every["instances"]
        names = {ROOT} | {f"conditions.rc{i}" for i in RC_INDICES}
        names |= {SPAN_NAMES.get(f"{m}.{a}", f"{m}.{a}") for m, a in TARGETS}
        names.discard("conditions.evaluate_condition")
        out = {}
        for name in names:
            out[f"{name}.calls"] = window.get(f"{name}.calls", 0) / kw
            out[f"{name}.self_ms"] = every.get(f"{name}.self_ns", 0) / ka / 1e6
            out[f"{name}.ms"] = every.get(f"{name}.incl_ns", 0) / ka / 1e6
        for key in ("exactlp.solve_lp.rows_max", "exactlp.solve_lp.cols_max", "exactlp.solve_lp.bits_max"):
            out[key] = window.get(key, 0)
        for key in PER_INSTANCE_COUNTS:
            out[key] = window.get(key, 0) / kw
        rows_out = window.get("polyhedra.project.rows_out", 0)
        out["polyhedra.project.lps_per_row_out"] = window.get("polyhedra.project.lps", 0) / rows_out if rows_out else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_pct"] = 100.0 * every.get(f"{layer}.layer_self_ns", 0) / every["root_ns"]
        out["exactlp.verify_certificate.failed"] = every.get("exactlp.verify_certificate.failed", 0)
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("instance\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for i, spans in enumerate(self.window_spans):
                for s in spans:
                    fh.write(f"{i}\t" + "\t".join(map(str, s)) + "\n")
