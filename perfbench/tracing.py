"""Tracing from outside the program.

``Tracer.install`` replaces qmult's entry points with wrappers that record
what each call did, and ``Tracer.uninstall`` puts the originals back.
Coarse calls get spans (name, start, end, parent, op id) kept in memory;
hot calls get a timer (count and busy time, no span) or a counter only.
Each layer's self time is the time inside its calls that no inner call
accounts for, so poly, weyl, intervals and roots, which have no spans or
timers, count in their callers' self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.verify.checks", "count", "higher"),
    ("multiplicity.brute.calls", "count", "lower"),
    ("multiplicity.brute.s", "s", "lower"),
    ("multiplicity.brute.terms", "count", "lower"),
    ("multiplicity.altset.calls", "count", "lower"),
    ("multiplicity.altset.s", "s", "lower"),
    ("multiplicity.altset.terms", "count", "lower"),
    ("multiplicity.rank_reduction.calls", "count", "lower"),
    ("multiplicity.rank_reduction.s", "s", "lower"),
    ("multiplicity.closed.calls", "count", "lower"),
    ("multiplicity.closed.s", "s", "lower"),
    ("multiplicity.self_s", "s", "lower"),
    ("altset.sweep.calls", "count", "lower"),
    ("altset.sweep.rows", "count", "lower"),
    ("altset.sweep.s", "s", "lower"),
    ("altset.sweep.rows_per_s", "1/s", "higher"),
    ("altset.sweep.reused", "count", "higher"),
    ("altset.sweep.useful_ratio", "ratio", "higher"),
    ("altset.closed.calls", "count", "lower"),
    ("altset.closed.elements", "count", "lower"),
    ("altset.closed.s", "s", "lower"),
    ("altset.brute.calls", "count", "lower"),
    ("altset.brute.s", "s", "lower"),
    ("altset.self_s", "s", "lower"),
    ("weyl.elements_built", "count", "lower"),
    ("partition.queries", "count", "lower"),
    ("partition.s", "s", "lower"),
    ("partition.queries_per_s", "1/s", "higher"),
    ("partition.nonzero_ratio", "ratio", "higher"),
    ("partition.tables", "count", "lower"),
    ("partition.self_s", "s", "lower"),
    ("poly.mul", "count", "lower"),
    ("poly.add", "count", "lower"),
    ("poly.shift", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("raw.wall_s", "s", "lower"),
    ("raw.ref_s", "s", "lower"),
    ("error_rate", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Spans: (module, attribute, span name, layer).  Every binding of the same
# function inside qmult is replaced, so calls made through ``from ... import``
# names are seen too.
SPANS = [
    ("qmult.cli", "main", "cli", "cli"),
    ("qmult.multiplicity", "m_q_brute", "multiplicity.brute", "multiplicity"),
    ("qmult.multiplicity", "m_q_altset", "multiplicity.altset", "multiplicity"),
    ("qmult.multiplicity", "m_q_rank_reduction", "multiplicity.rank_reduction",
     "multiplicity"),
    ("qmult.multiplicity", "m_q_closed_general", "multiplicity.closed", "multiplicity"),
    ("qmult.multiplicity", "m_q_closed_zero", "multiplicity.closed", "multiplicity"),
    ("qmult.altset", "alt_set_closed", "altset.closed", "altset"),
    ("qmult.altset", "alt_set_brute", "altset.brute", "altset"),
    ("qmult.partition", "kostant_q", "partition.kostant_q", "partition"),
]
# Counters: (module, class, method, counter name).
COUNTERS = [
    ("qmult.poly", "QPolynomial", "__mul__", "poly.mul"),
    ("qmult.poly", "QPolynomial", "__rmul__", "poly.mul"),
    ("qmult.poly", "QPolynomial", "__add__", "poly.add"),
    ("qmult.poly", "QPolynomial", "__radd__", "poly.add"),
    ("qmult.poly", "QPolynomial", "shift", "poly.shift"),
    ("qmult.weyl", "WeylElement", "__init__", "weyl.elements_built"),
]


class Tracer:
    """Spans, timers and counters for one traced run, all held in memory."""

    def __init__(self) -> None:
        self.t0 = perf()
        self.op: int | None = None
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._stack: list[list] = []  # open calls: [start, inner time, span index]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.rows_by_rank: dict[int, list[int]] = {}  # rank -> [sweep calls, rows]
        self._sweeps_open = 0
        self._seen_sweeps: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for module, attr, name, layer in SPANS:
            self._replace_function(module, attr,
                                   self._timed(name, layer, record=True,
                                               after=_AFTER.get(name)))
        self._replace_function("qmult.altset", "signed_root_images", self._sweep)
        for module, cls, method, name in COUNTERS:
            self._replace_method(module, cls, method, lambda fn, name=name: self._counted(name, fn))
        self._replace_method("qmult.partition", "PartitionTable", "kostant_q_coeffs",
                             self._timed("partition.query", "partition", record=False,
                                         after=self._after_query))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace_function(self, module: str, attr: str, make) -> None:
        """Replace every binding of module.attr in qmult's modules.

        An entry point the program no longer has is skipped, so its
        metrics read 0.
        """
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "qmult" and not name.startswith("qmult."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _replace_method(self, module: str, cls_name: str, method: str, make) -> None:
        cls = getattr(sys.modules.get(module), cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if original is None:
            return
        self._undo.append((cls, method, original))
        setattr(cls, method, make(original))

    def run_op(self, op: int, fn):
        """Call fn as operation op: a root span that every span inside shares."""
        self.op = op
        return self._timed("op", "bench", record=True)(fn)()

    # -- wrappers -------------------------------------------------------

    def _timed(self, name: str, layer: str, record: bool, after=None):
        def make(fn):
            tracer = self
            stack = self._stack

            def wrapper(*args, **kwargs):
                if record:
                    index = len(tracer.spans)
                    parent = stack[-1][2] if stack else None
                    tracer.spans.append([name, 0.0, 0.0, parent, tracer.op])
                else:
                    index = stack[-1][2] if stack else None
                frame = [perf(), 0.0, index]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    took = end - frame[0]
                    tracer.self_s[layer] += took - frame[1]
                    if stack:
                        stack[-1][1] += took
                    tracer.calls[name] += 1
                    tracer.busy[name] += took
                    if record:
                        span = tracer.spans[index]
                        span[1] = frame[0] - tracer.t0
                        span[2] = end - tracer.t0
                if after is not None:
                    after(tracer, result)
                return result

            return wrapper

        return make

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _after_query(tracer: "Tracer", result) -> None:
        if result.coeffs:
            tracer.counts["partition.nonzero"] += 1
            if tracer._sweeps_open:
                tracer.counts["altset.sweep.useful"] += 1

    def _sweep(self, fn):
        """The Weyl sweep returns its rows to the caller, which evaluates a
        term between rows; only the time spent producing rows is the
        sweep's, so it is timed row by row."""
        tracer = self

        def wrapper(lam, *args, **kwargs):
            start = perf()
            rows = fn(lam, *args, **kwargs)
            took = perf() - start
            tracer.calls["altset.sweep"] += 1
            tracer.rows_by_rank.setdefault(lam.rank, [0, 0])[0] += 1
            if id(rows) in tracer._seen_sweeps:
                tracer.counts["altset.sweep.reused"] += 1
            else:
                tracer._seen_sweeps[id(rows)] = rows
            return tracer._rows(rows, lam.rank, took)

        return wrapper

    def _rows(self, rows, rank: int, busy: float):
        frame = self._stack[-1] if self._stack else None
        it = iter(rows)
        n = 0
        self._sweeps_open += 1
        try:
            while True:
                start = perf()
                try:
                    row = next(it)
                except StopIteration:
                    busy += perf() - start
                    break
                busy += perf() - start
                n += 1
                yield row
        finally:
            self._sweeps_open -= 1
            self.busy["altset.sweep"] += busy
            self.self_s["altset"] += busy
            if frame is not None:
                frame[1] += busy
            self.rows_by_rank[rank][1] += n

    # -- results --------------------------------------------------------

    def layer_metrics(self, partition_tables: int, verify_checks: int) -> dict[str, float]:
        """Every per-layer metric this run can give (all but trace.overhead,
        raw.* and error_rate, which need the untraced runs and the checks)."""
        c, b = self.calls, self.busy
        rows = sum(n for _, n in self.rows_by_rank.values())
        queries = c["partition.query"]
        m = {
            "cli.s": b["cli"],
            "cli.self_s": self.self_s["cli"],
            "cli.verify.checks": verify_checks,
            "multiplicity.self_s": self.self_s["multiplicity"],
            "altset.sweep.calls": c["altset.sweep"],
            "altset.sweep.rows": rows,
            "altset.sweep.s": b["altset.sweep"],
            "altset.sweep.rows_per_s": _ratio(rows, b["altset.sweep"]),
            "altset.sweep.reused": self.counts["altset.sweep.reused"],
            "altset.sweep.useful_ratio": _ratio(self.counts["altset.sweep.useful"], rows),
            "altset.closed.elements": self.counts["altset.closed.elements"],
            "altset.self_s": self.self_s["altset"],
            "weyl.elements_built": self.counts["weyl.elements_built"],
            "partition.queries": queries,
            "partition.s": b["partition.query"],
            "partition.queries_per_s": _ratio(queries, b["partition.query"]),
            "partition.nonzero_ratio": _ratio(self.counts["partition.nonzero"], queries),
            "partition.tables": partition_tables,
            "partition.self_s": self.self_s["partition"],
        }
        for route in ("brute", "altset", "rank_reduction", "closed"):
            m[f"multiplicity.{route}.calls"] = c[f"multiplicity.{route}"]
            m[f"multiplicity.{route}.s"] = b[f"multiplicity.{route}"]
        for route in ("brute", "altset"):
            m[f"multiplicity.{route}.terms"] = self.counts[f"multiplicity.{route}.terms"]
        for enum in ("closed", "brute"):
            m[f"altset.{enum}.calls"] = c[f"altset.{enum}"]
            m[f"altset.{enum}.s"] = b[f"altset.{enum}"]
        for name in ("poly.mul", "poly.add", "poly.shift"):
            m[name] = self.counts[name]
        return m

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _count_terms(name: str):
    def after(tracer: Tracer, result) -> None:
        tracer.counts[name] += result.terms_evaluated
    return after


def _count_elements(tracer: Tracer, result) -> None:
    tracer.counts["altset.closed.elements"] += len(result.elements)


_AFTER = {
    "multiplicity.brute": _count_terms("multiplicity.brute.terms"),
    "multiplicity.altset": _count_terms("multiplicity.altset.terms"),
    "altset.closed": _count_elements,
}


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a structural count, equal on every run
    of one seed."""
    return UNITS.get(name) == "count"
