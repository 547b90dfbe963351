"""In-memory spans recorded around calls into ffmult, and the layer metrics
derived from them.  Standard library only, so the parent process can derive
metrics without importing ffmult.

A span records name, start, end, parent span and run id.  Per-call
evaluation time (thousands of calls per run) is not one span per call: a
`TimedFunction` charges it to the innermost open span instead, so self time
stays exact without the cost of a span per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# per-layer metrics every workload measures, name -> unit; BENCHMARK.json
# lists these.  Counts are 0 on workloads without that kind of work.
LAYER_UNITS = {
    "fields.build_s": "s",
    "experiments.validate_s": "s",
    "experiments.rows": "count",
    "polys.sieve_s": "s",
    "polys.irreducibles": "count",
    "polys.sieve_marks": "count",
    "polys.factor_calls": "count",
    "multiplicative.evals": "count",
    "multiplicative.reuse_ratio": "ratio",
    "characters.hayes_evals": "count",
    "analytics.self_s": "s",
    "analytics.katai_pairs": "count",
    "analytics.katai_inner_evals": "count",
    "analytics.tk_cofactor_rows": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

# times of layers only some workloads exercise, span name (None: the
# evaluation timer) -> metric, as self time.  Printed and saved for the
# workloads that have the span; left out of the final JSON line, where an
# always-zero time would be indistinguishable from a stuck clock.
WORKLOAD_TIMES = {
    "experiments.resolve": "experiments.resolve_s",
    "polys.factor": "polys.factor_s",
    None: "multiplicative.eval_s",
    "characters.hayes_eval": "characters.hayes_eval_s",
    "phases.array": "phases.array_s",
    "analytics.correlate": "analytics.correlate_self_s",
    "analytics.katai": "analytics.katai_self_s",
    "analytics.distance": "analytics.distance_s",
    "analytics.tk": "analytics.tk_s",
}

# the span around the workload's statistic call, one per row
STATISTICS = ("analytics.correlate", "analytics.katai", "analytics.distance",
              "analytics.tk")

# counters a replay adds to
COUNTERS = ("experiments.rows", "polys.irreducibles", "polys.sieve_marks",
            "polys.factor_calls", "characters.hayes_evals", "analytics.katai_pairs",
            "analytics.katai_inner_evals", "analytics.tk_cofactor_rows")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.evaluator: TimedFunction | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "run": self.run_id, "charged": 0.0, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def charge(self, seconds: float):
        """Count `seconds` of child work against the innermost open span."""
        if self._open:
            self.spans[self._open[-1]]["charged"] += seconds

    def add(self, counter: str, value: int):
        self.counts[counter] += value

    def timed(self, f) -> "TimedFunction":
        """Wrap the run's function on Poly in the evaluation timer."""
        self.evaluator = TimedFunction(f, self)
        return self.evaluator

    def eval_stats(self) -> dict:
        if self.evaluator is None:
            return {"seconds": 0.0, "calls": 0, "distinct": 0}
        ev = self.evaluator
        return {"seconds": ev.seconds, "calls": ev.calls, "distinct": len(ev.keys)}


class TimedFunction:
    """A function on Poly that times each call and records distinct arguments.

    The time is charged to the tracer's innermost open span, so that span's
    self time excludes evaluation."""

    def __init__(self, f, tracer: Tracer):
        self.f = f
        self.tracer = tracer
        self.seconds = 0.0
        self.calls = 0
        self.keys: set = set()

    def __call__(self, g):
        t = perf_counter()
        value = self.f(g)
        dt = perf_counter() - t
        self.seconds += dt
        self.tracer.charge(dt)
        self.calls += 1
        self.keys.add(g.coeffs)
        return value


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def _total(spans, name: str) -> float:
    return sum(_duration(s) for s in spans if s["name"] == name)


def _self_time(spans, name: str) -> float:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += _duration(s)
    return sum(_duration(s) - child[i] - s["charged"]
               for i, s in enumerate(spans) if s["name"] == name)


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of one traced run: every LAYER_UNITS metric except
    trace.overhead_frac, whose base is the untraced median and which the
    caller fills in, plus the WORKLOAD_TIMES metrics this run exercised.

    `run` holds the run's spans, counters, evaluation stats and the traced
    wall window [window_start, window_end] (validate_config returned to last
    row flushed, the same interval the untraced wall_s covers)."""
    spans, ev = run["spans"], run["eval"]
    lo, hi = run["window_start"], run["window_end"]
    top = sum(_duration(s) for s in spans
              if s["parent"] is None and s["start"] >= lo and s["end"] <= hi)
    calls = ev["calls"]
    out = dict(run["counts"])
    out.update({
        "fields.build_s": _total(spans, "fields.build"),
        "experiments.validate_s": _total(spans, "experiments.validate"),
        "polys.sieve_s": _total(spans, "polys.sieve"),
        "multiplicative.evals": calls,
        "multiplicative.reuse_ratio": 1.0 - ev["distinct"] / calls if calls else 0.0,
        "analytics.self_s": sum(_self_time(spans, name) for name in STATISTICS),
        "trace.wall_s": hi - lo,
        "trace.unattributed_s": (hi - lo) - top,
    })
    names = {s["name"] for s in spans}
    for span, metric in WORKLOAD_TIMES.items():
        if span is None:
            if calls:
                out[metric] = ev["seconds"]
        elif span in names:
            out[metric] = _self_time(spans, span)
    return out
