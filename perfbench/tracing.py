"""Spans around calls into the layers of rmms, recorded from outside.

A traced run replaces public module attributes with wrappers that record a
span (id, parent, op, name, start, end) per call. The program looks these
names up at call time (``shares.acceptable_partition`` inside ``_mms``,
``fairness.is_efl`` inside ``algorithms``), so nested calls get their own
spans; names bound with ``from .core import ...`` are replaced in the module
that imported them. The source files are not touched.

A layer's self time is its spans' duration minus the time covered by their
child spans. Spans are kept in memory and written as JSON at the end.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from rmms import algorithms, cli, core, fairness, oracle, shares

# (module, attribute, span name). ``cli.main`` spans are named after the
# subcommand. The three core names are the JSON load and validation behind
# ``rmms shares``; ``generate_instance`` validates through the same
# ``cli.validate_instance``, so that validation counts as core too.
TRACED = [
    (cli, "main", lambda argv: f"cli.{argv[0]}"),
    (cli, "generate_instance", "cli.generate_instance"),
    (cli, "load_json", "core.load"),
    (cli, "instance_from_json", "core.load"),
    (cli, "validate_instance", "core.load"),
    (shares, "mms", "shares.mms"),
    (shares, "rmms", "shares.rmms"),
    (shares, "mxs", "shares.mxs"),
    (shares, "acceptable_partition", "shares.acceptable_partition"),
    (shares, "is_residual_feasible", "shares.is_residual_feasible"),
    (algorithms, "rmms_efx_partial", "algorithms.rmms_efx_partial"),
    (algorithms, "efl_complete", "algorithms.efl_complete"),
    (algorithms, "envy_cycle_run", "algorithms.envy_cycle_run"),
    (fairness, "certificate", "fairness.certificate"),
    (fairness, "is_efx", "fairness.is_efx"),
    (fairness, "is_efl", "fairness.is_efl"),
    (fairness, "is_ef1", "fairness.is_ef1"),
    (oracle, "enumerate_allocations", "oracle.enumerate_allocations"),
]

# Per-layer metrics: name -> (unit, source). "self:<span>" is the summed self
# time of spans with that name, "calls:<span>" their count, "counter:<name>"
# a count or ratio gathered by the wrappers.
LAYER_METRICS = {
    "cli.generate_instance_s": ("s", "self:cli.generate_instance"),
    "cli.bench_self_s": ("s", "self:cli.bench"),
    "cli.shares_self_s": ("s", "self:cli.shares"),
    "core.load_s": ("s", "self:core.load"),
    "shares.mms_s": ("s", "self:shares.mms"),
    "shares.rmms_s": ("s", "self:shares.rmms"),
    "shares.is_residual_feasible_s": ("s", "self:shares.is_residual_feasible"),
    "shares.acceptable_partition_s": ("s", "self:shares.acceptable_partition"),
    "shares.mxs_s": ("s", "self:shares.mxs"),
    "shares.acceptable_partition.calls": ("count", "calls:shares.acceptable_partition"),
    "shares.is_residual_feasible.calls": ("count", "calls:shares.is_residual_feasible"),
    "algorithms.rmms_efx_partial_s": ("s", "self:algorithms.rmms_efx_partial"),
    "algorithms.efl_complete_s": ("s", "self:algorithms.efl_complete"),
    "algorithms.envy_cycle_run_s": ("s", "self:algorithms.envy_cycle_run"),
    "algorithms.rounds": ("count", "counter:algorithms.rounds"),
    "algorithms.value_queries": ("count", "counter:algorithms.value_queries"),
    "algorithms.comparison_queries": ("count", "counter:algorithms.comparison_queries"),
    "fairness.certificate_s": ("s", "self:fairness.certificate"),
    "fairness.is_efx_s": ("s", "self:fairness.is_efx"),
    "fairness.is_efl_s": ("s", "self:fairness.is_efl"),
    "fairness.is_ef1_s": ("s", "self:fairness.is_ef1"),
    "fairness.efl_ratio": ("ratio", "counter:fairness.efl_ratio"),
    "oracle.enumerate_allocations_s": ("s", "self:oracle.enumerate_allocations"),
    "trace.overhead_ratio": ("ratio", "counter:trace.overhead_ratio"),
}


class Tracer:
    def __init__(self):
        # Finished spans as flat tuples (id, parent, op, name, start, end),
        # in the order they end; tuples of atomic values stay cheap for the
        # garbage collector however many there are.
        self.spans: list[tuple] = []
        self.stack: list[tuple] = []  # open spans: (id, name, start)
        self.next_id = 0
        self.child_time: dict[int, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.enabled = False
        self.op: int | None = None

    def begin(self, name: str) -> None:
        self.stack.append((self.next_id, name, time.perf_counter()))
        self.next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        sid, name, start = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append((sid, parent, self.op, name, start, end))
        duration = end - start
        self.self_time[name] += duration - self.child_time.pop(sid, 0.0)
        self.calls[name] += 1
        if parent is not None:
            self.child_time[parent] += duration

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def inside(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for _, name, _ in self.stack)

    def wrap(self, fn, name):
        tracer = self
        if name == "oracle.enumerate_allocations":
            return lambda *args, **kwargs: _TracedIterator(tracer, name, fn(*args, **kwargs))
        counts_queries = not callable(name) and name.startswith("algorithms.")

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(*args) if callable(name) else name
            # Only the outermost algorithms call counts rounds and queries:
            # nested calls (envy_cycle_run inside efl_complete) charge the
            # same ledger and their rounds come back in the outer trace.
            ledger = None
            if counts_queries and not tracer.inside("algorithms."):
                ledger = next(a for a in args if isinstance(a, core.QueryLedger))
                before = (ledger.value_queries, ledger.comparison_queries)
            tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            counters = tracer.counters
            if ledger is not None:
                counters["algorithms.rounds"] += len(result[1].rounds)
                counters["algorithms.value_queries"] += ledger.value_queries - before[0]
                counters["algorithms.comparison_queries"] += (
                    ledger.comparison_queries - before[1]
                )
            if name == "fairness.certificate":
                counters["fairness.efl"] += bool(result["efl"])
            return result
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        try:
            for mod, attr, name in TRACED:
                setattr(mod, attr, self.wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def layer_metrics(self, overhead_ratio: float) -> dict:
        certs = self.calls["fairness.certificate"]
        counters = {
            **self.counters,
            "fairness.efl_ratio": self.counters["fairness.efl"] / certs if certs else 0.0,
            "trace.overhead_ratio": overhead_ratio,
        }
        sources = {"self": self.self_time, "calls": self.calls, "counter": counters}
        out = {}
        for metric, (unit, source) in LAYER_METRICS.items():
            kind, key = source.split(":")
            out[metric] = {"value": sources[kind].get(key, 0), "unit": unit}
        return out

    def dump(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


class _TracedIterator:
    """Records one span per item drawn from a generator."""

    def __init__(self, tracer: Tracer, name: str, it):
        self.tracer, self.name, self.it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        with self.tracer.span(self.name):
            return next(self.it)
