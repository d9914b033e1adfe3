"""Span recording for the traced benchmark run.

The benchmark never edits ``src/``: it wraps the public functions of
``chaincap.arrival``, ``chainsim``, ``bench`` and ``cli`` at their module
attributes for the length of one operation (:func:`instrument`), records one
:class:`Span` per call, and derives the per-layer metrics from the spans
afterwards (:func:`layer_metrics`).  A span's layer is its name up to the
first dot; ``emit`` is the CSV/JSON/manifest writing done by ``cli``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

from chaincap import arrival, bench, chainsim, cli

ROOT_SPAN = "cli.main"
MB = 1e6


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "start": self.start, "end": self.end,
                "attrs": {k: v for k, v in self.attrs.items() if k != "call"}}


class Tracer:
    """Keeps spans in memory; ``op`` labels the spans of the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []

    def wrap(self, name, fn, attrs=None, peak=False):
        """Return ``fn`` recording a span per call.

        ``attrs(args, kwargs, result)`` adds counts to the span.  With
        ``peak`` and tracemalloc running, the span also records the largest
        allocation the call made on top of what was live when it began.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name,
                        self._stack[-1].id if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(span)
            measure = peak and tracemalloc.is_tracing()
            if measure:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure:
                span.attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1] - base
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced


def _trial_attrs(args, kwargs, summary):
    # the call is kept so the largest trial can be replayed under tracemalloc
    return {"steady": bool(summary.steady), "call": (args, kwargs)}


def _run_attrs(args, kwargs, timeline):
    return {
        "events": len(args[1]),
        "arrived_writes": timeline.arrived_writes,
        "committed_writes": timeline.committed_writes,
        "pending_writes": timeline.pending_writes,
        "arrived_reads": timeline.arrived_reads,
        "served_reads": timeline.served_reads,
        "blocks_produced": timeline.blocks_produced,
    }


def _patch_points():
    """(owner, attribute, span name, attrs, peak) for every wrapped call site.

    Functions are patched where their caller looks them up: ``bench`` and
    ``cli`` import names into their own namespace.
    """
    return [
        (cli, "main", ROOT_SPAN, None, False),
        (cli, "find_max_lambda", "bench.find_max_lambda", None, False),
        (cli, "run_campaign", "bench.run_campaign", None, False),
        (bench, "run_trial", "bench.run_trial", _trial_attrs, False),
        (bench, "generate_events", "arrival.generate_events",
         lambda a, k, r: {"events": len(r)}, True),
        (arrival, "generate_times", "arrival.generate_times", None, False),
        (bench, "run", "chainsim.run", _run_attrs, True),
        (chainsim, "consensus_round_latency", "chainsim.consensus_round_latency", None, False),
        (cli, "write_campaign_csv", "emit.campaign_csv", None, False),
        (cli, "campaign_json_dict", "emit.campaign_json", None, False),
        (cli, "write_plot_data_csv", "emit.plot_csv", None, False),
        (cli.OutputDir, "write_text", "emit.write_text",
         lambda a, k, r: {"bytes": r.stat().st_size}, False),
        (cli.OutputDir, "finish", "emit.manifest",
         lambda a, k, r: {"bytes": (a[0].dir / "manifest.json").stat().st_size}, False),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every patch point for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, attrs, peak in _patch_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs, peak))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add up.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += selfs[s.id]
    return dict(out)


def check_span_tree(spans: list[Span], tol_s: float = 1e-6) -> None:
    """Each operation is one tree whose layer self times add up to its root.

    A negative self time means children overlapped or outlived their parent.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_op[s.op].append(s)
    for op, op_spans in by_op.items():
        roots = [s for s in op_spans if s.parent is None]
        if len(roots) != 1:
            raise AssertionError(f"operation {op} has {len(roots)} root spans")
        ids = {s.id for s in op_spans}
        if any(s.parent is not None and s.parent not in ids for s in op_spans):
            raise AssertionError(f"operation {op} has a span whose parent is elsewhere")
        selfs = self_times(op_spans)
        negative = [s.name for s in op_spans if selfs[s.id] < -tol_s]
        if negative:
            raise AssertionError(f"operation {op}: negative self time in {negative}")
        total = sum(self_time_by_layer(op_spans).values())
        if abs(total - roots[0].duration) > tol_s:
            raise AssertionError(
                f"operation {op}: layer self times sum to {total!r} s, "
                f"root span lasts {roots[0].duration!r} s")


def largest_trial_call(spans: list[Span]):
    """Arguments of the ``run_trial`` call that generated the most events."""
    events = {s.parent: s.attrs["events"] for s in spans
              if s.name == "arrival.generate_events"}
    trials = [s for s in spans if s.name == "bench.run_trial"]
    return max(trials, key=lambda s: events.get(s.id, 0)).attrs["call"]


def _ratio(num: float, den: float) -> float:
    # 0 when there was nothing to divide by (e.g. no reads in a write workload)
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], replay: list[Span]) -> dict[str, float]:
    """Per-layer metrics, as totals per operation unless named a ratio or rate.

    ``spans`` are the traced operations; ``replay`` the largest trial re-run
    under tracemalloc, which alone supplies the ``peak_alloc_mb`` figures.
    """
    ops = len({s.op for s in spans if s.parent is None})
    if ops == 0:
        raise ValueError("no traced operation")
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(name):
        return sum(s.duration for s in named[name])

    def self_total(name):
        return sum(selfs[s.id] for s in named[name])

    def attr(name, key):
        return sum(s.attrs[key] for s in named[name])

    def peak(name):
        return max((s.attrs.get("peak_alloc_bytes", 0) for s in replay if s.name == name),
                   default=0) / MB

    trials = named["bench.run_trial"]
    probes = [s for s in trials
              if s.parent is not None and by_id[s.parent].name == "bench.find_max_lambda"]
    trial_s = [s.duration for s in trials]
    emit = [s for s in spans if s.layer == "emit"]
    return {
        "arrival.generate_events.self_s": self_total("arrival.generate_events") / ops,
        "arrival.events": attr("arrival.generate_events", "events") / ops,
        "arrival.events_per_s": _ratio(attr("arrival.generate_events", "events"),
                                       total("arrival.generate_events")),
        "arrival.generate_times.s": total("arrival.generate_times") / ops,
        "arrival.generate_times.calls": len(named["arrival.generate_times"]) / ops,
        "arrival.peak_alloc_mb": peak("arrival.generate_events"),
        "chainsim.run.self_s": self_total("chainsim.run") / ops,
        "chainsim.run.calls": len(named["chainsim.run"]) / ops,
        "chainsim.run.events_per_s": _ratio(attr("chainsim.run", "events"),
                                            total("chainsim.run")),
        "chainsim.run.peak_alloc_mb": peak("chainsim.run"),
        "chainsim.consensus_round_latency.calls":
            len(named["chainsim.consensus_round_latency"]) / ops,
        "chainsim.consensus_round_latency.s": total("chainsim.consensus_round_latency") / ops,
        "chainsim.blocks_produced": attr("chainsim.run", "blocks_produced") / ops,
        "chainsim.committed_writes": attr("chainsim.run", "committed_writes") / ops,
        "chainsim.pending_writes": attr("chainsim.run", "pending_writes") / ops,
        "chainsim.served_reads": attr("chainsim.run", "served_reads") / ops,
        "chainsim.commit_ratio": _ratio(attr("chainsim.run", "committed_writes"),
                                        attr("chainsim.run", "arrived_writes")),
        "chainsim.serve_ratio": _ratio(attr("chainsim.run", "served_reads"),
                                       attr("chainsim.run", "arrived_reads")),
        "bench.probes": len(probes) / ops,
        "bench.trials": len(trials) / ops,
        "bench.steady_ratio": _ratio(sum(s.attrs["steady"] for s in trials), len(trials)),
        "bench.probe_s.p50": statistics.median(trial_s) if trial_s else 0.0,
        "bench.probe_s.max": max(trial_s, default=0.0),
        "bench.run_trial.self_s": self_total("bench.run_trial") / ops,
        "emit.s": sum(s.duration for s in emit) / ops,
        "emit.bytes": sum(s.attrs["bytes"] for s in emit if "bytes" in s.attrs) / ops,
        "cli.self_s": self_total(ROOT_SPAN) / ops,
    }
