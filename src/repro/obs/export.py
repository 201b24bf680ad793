"""Exporters: span forests and metrics in industry-standard formats.

Two consumers the in-repo analyzer cannot replace:

* **Chrome** ``trace_event`` **JSON** (:func:`chrome_trace`) -- open the
  file in Perfetto (https://ui.perfetto.dev) or ``about:tracing`` and
  scrub through a 185k-task DV3 run interactively.  One track group
  ("process") per tenant, execute/staging lanes per worker, and the
  critical-path chain rendered as its own pinned track whose segments
  sum to the makespan.
* **Prometheus text exposition** (:func:`prometheus_exposition`) --
  counters/gauges/histograms in the ``# TYPE``-annotated text format,
  timestamped on the **sim clock**, so standard dashboards can graph a
  simulated run exactly as they would a real facility.

Both work from a live object (:class:`~repro.obs.trace.SpanBuilder`,
:class:`~repro.obs.metrics.MetricsRegistry`) or from an archived
transaction log, preserving the live == replay invariant.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from . import events as ev
from . import txlog
from .metrics import MetricsRegistry
from .trace import (EXECUTE, INPUT_TRANSFER, OUTPUT_COMMIT,
                    SCHEDULE_WAIT, Span, SpanBuilder, build_spans,
                    critical_path_chain)
from .txlog import records

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_exposition",
    "registry_from_txlog",
]

#: Perfetto sorts tracks by pid; keep the chain on top.
CRITICAL_PATH_PID = 0

Source = Union[txlog.Source, SpanBuilder]


def _builder(source: Source) -> SpanBuilder:
    if isinstance(source, SpanBuilder):
        return source
    return build_spans(source)


class _Lanes:
    """Greedy lane (tid) allocator: overlapping spans in one group get
    distinct lanes; a span reuses the first lane that is free by its
    start time.  Deterministic given span order."""

    def __init__(self):
        self._groups: Dict[Tuple, List[float]] = {}  # group -> lane ends
        self._tids: Dict[Tuple, int] = {}            # (group, lane) -> tid
        self._names: Dict[int, Tuple[int, str]] = {} # tid -> (pid, name)
        self._next = 1

    def tid(self, pid: int, group: str, name: str, start: float,
            end: float) -> int:
        key = (pid, group)
        ends = self._groups.setdefault(key, [])
        for lane, lane_end in enumerate(ends):
            if lane_end <= start + 1e-12:
                ends[lane] = end
                break
        else:
            lane = len(ends)
            ends.append(end)
        lane_key = (key, lane)
        tid = self._tids.get(lane_key)
        if tid is None:
            tid = self._tids[lane_key] = self._next
            self._next += 1
            suffix = f" #{lane}" if lane else ""
            self._names[tid] = (pid, f"{name}{suffix}")
        return tid

    def metadata(self) -> List[dict]:
        return [
            {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
             "args": {"name": name}}
            for tid, (pid, name) in sorted(self._names.items())
        ]


def _us(t: float) -> float:
    return round(t * 1e6, 3)


def chrome_trace(source: Source, compact: bool = False,
                 critical_path: bool = True) -> dict:
    """Render a run as a Chrome ``trace_event`` document.

    ``compact`` drops schedule-wait lanes and cached (zero-cost) stage
    hits -- recommended for six-figure task counts, where the execute
    and transfer tracks carry all the signal.  With ``critical_path``
    the makespan-explaining chain is emitted as pid 0 so it renders
    pinned above the per-tenant track groups.
    """
    builder = _builder(source)
    forest = builder.forest()
    tenants = builder.tenants()
    pid_of = {tenant: i + 1 for i, tenant in enumerate(tenants)}
    events: List[dict] = []
    lanes = _Lanes()

    # stable span order: forest is first-seen ordered, walk is DFS
    for root in forest:
        pid = pid_of.get(root.tenant, 1)
        for span in root.walk():
            if span.end is None:
                continue
            if span.kind == EXECUTE:
                group, lane_name = "exec", f"worker {span.worker}"
                cat = EXECUTE
            elif span.kind == INPUT_TRANSFER:
                if compact and span.cached:
                    continue
                group = "stage"
                lane_name = f"worker {span.worker} staging"
                cat = "cache-hit" if span.cached else INPUT_TRANSFER
            elif span.kind == OUTPUT_COMMIT:
                group = "stage"
                lane_name = f"worker {span.worker} staging"
                cat = OUTPUT_COMMIT
            elif span.kind == SCHEDULE_WAIT and not compact:
                group, lane_name, cat = "queue", "ready queue", span.kind
            else:
                continue
            start, end = span.start, span.end
            event = {
                "ph": "X", "pid": pid,
                "tid": lanes.tid(pid, group, lane_name, start, end),
                "ts": _us(start), "dur": _us(end - start),
                "name": span.name, "cat": cat,
            }
            args = {}
            if span.task is not None:
                args["task"] = span.task
            if span.nbytes is not None:
                args["nbytes"] = span.nbytes
            if span.ok is False:
                args["ok"] = False
            if args:
                event["args"] = args
            events.append(event)

    metadata = [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": f"tenant {tenant}"}}
        for tenant, pid in sorted(pid_of.items(), key=lambda kv: kv[1])
    ] or [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
           "args": {"name": "run"}}]

    chain = None
    if critical_path:
        chain = critical_path_chain(builder)
        metadata.append({"ph": "M", "pid": CRITICAL_PATH_PID, "tid": 0,
                         "name": "process_name",
                         "args": {"name": "critical path"}})
        for seg in chain["segments"]:
            if seg["duration"] <= 0:
                continue
            events.append({
                "ph": "X", "pid": CRITICAL_PATH_PID, "tid": 0,
                "ts": _us(seg["start"]), "dur": _us(seg["duration"]),
                "name": f"{seg['phase']}:{seg['task']}",
                "cat": "critical-path",
                "args": {"task": seg["task"], "phase": seg["phase"]},
            })

    doc = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "makespan_s": builder.makespan,
            "tasks": len(forest),
            "tenants": tenants,
        },
    }
    if chain is not None:
        doc["otherData"]["critical_path_s"] = chain["total_s"]
    if builder.meta:
        doc["otherData"]["run"] = builder.meta
    return doc


def write_chrome_trace(path: str, source: Source,
                       compact: bool = False,
                       critical_path: bool = True) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the
    document's ``otherData`` stats block."""
    doc = chrome_trace(source, compact=compact,
                       critical_path=critical_path)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return doc["otherData"]


# -- Prometheus text exposition ----------------------------------------------

def _prom_name(name: str) -> str:
    return "repro_" + "".join(
        c if c.isalnum() or c == "_" else "_" for c in name)


def prometheus_exposition(registry: MetricsRegistry,
                          timestamp_s: Optional[float] = None) -> str:
    """The registry in Prometheus text exposition format.

    ``timestamp_s`` is a **sim-clock** time; it is rendered in the
    format's millisecond field so scraped series line up on simulated
    time, not on whenever the simulation happened to run.
    """
    stamp = ("" if timestamp_s is None
             else f" {int(round(timestamp_s * 1000))}")
    lines: List[str] = []
    for name in sorted(registry.counters):
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {registry.counters[name].value:g}{stamp}")
    for name in sorted(registry.gauges):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {registry.gauges[name].read():g}{stamp}")
    for name in sorted(registry.histograms):
        hist = registry.histograms[name]
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist.buckets, hist.counts):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound:g}"}} '
                         f"{cumulative}{stamp}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} '
                     f"{hist.count}{stamp}")
        lines.append(f"{metric}_sum {hist.total:g}{stamp}")
        lines.append(f"{metric}_count {hist.count}{stamp}")
        # quantile estimates (bucket upper bounds, like Prometheus'
        # own histogram_quantile) as a gauge per quantile -- summary
        # syntax would claim exactness the bucketed data cannot give
        if hist.count:
            q_metric = metric + "_quantile"
            lines.append(f"# TYPE {q_metric} gauge")
            for q in (0.5, 0.95, 0.99):
                lines.append(
                    f'{q_metric}{{quantile="{q:g}"}} '
                    f"{hist.quantile(q):g}{stamp}")
    return "\n".join(lines) + "\n"


def registry_from_txlog(source: txlog.Source) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` by replaying a transaction
    log through a fresh bus: the standard counters/histograms come out
    exactly as a live bound registry would have accumulated them, and
    the METRIC_SAMPLE rows are restored as the gauge time series (the
    final sample becomes the gauges' exported value)."""
    bus = ev.EventBus()
    registry = MetricsRegistry().bind(bus)
    last_sample: Optional[dict] = None
    for r in records(source):
        type_ = r.get("type")
        t = r.get("t", 0.0)
        if type_ == ev.METRIC_SAMPLE:
            row = {k: v for k, v in r.items() if k != "type"}
            registry.samples.append(row)
            last_sample = row
            continue
        fields = {k: v for k, v in r.items()
                  if k not in ("type", "t")}
        bus.emit(type_, t, **fields)
    if last_sample is not None:
        for name, value in last_sample.items():
            if name != "t" and isinstance(value, (int, float)):
                registry.gauge(name).set(float(value))
    return registry
