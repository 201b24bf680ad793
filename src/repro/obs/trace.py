"""Causal span reconstruction: from lifecycle edges to span trees.

The transaction log (:mod:`repro.obs.txlog`) records *edges* -- READY,
DISPATCH, STAGE_IN, EXEC_START, EXEC_END, TASK_DONE, RETRIEVE -- one
JSON object each.  Edges answer "what happened"; diagnosing a run needs
"what caused what".  This module folds the edge stream into **causal
spans**: one tree per task whose children decompose the task's
turnaround into the phases the paper's Table I measures::

    task proc-17                      (first READY .. last acceptance)
      attempt #1                      (READY .. failure/acceptance)
        schedule-wait                 (READY .. DISPATCH)
        input-transfer chunk-4        (one per STAGE_IN, cached or not)
        execute                       (EXEC_START .. EXEC_END)
        output-commit hist-17         (one per RETRIEVE)
        attempt #2                    (re-execution after a failure
          ...                          nests under the failed attempt)

The builder consumes the *identical* stream whether it subscribes to a
live :class:`~repro.obs.events.EventBus` (:meth:`SpanRecorder.install`)
or replays an archived txlog (:func:`build_spans`), so live runs and
replays produce byte-identical span forests by construction -- the
replay-fidelity invariant extended from aggregations to causality.

:func:`critical_path_chain` walks the forest backwards from the
last-finishing task to explain the *whole makespan* as one weighted
chain of spans: every second of wall time is attributed to exactly one
of ``arrival`` / ``handoff`` / ``schedule-wait`` / ``stage-in`` /
``execute`` on the chain, so the segments sum to the makespan
(the analyzer's per-task phase totals, by contrast, sum over *all*
tasks and cannot say which phase bounded the run).  Multi-tenant logs
get one chain per tenant (:func:`critical_path_by_tenant`).

Zero-overhead contract: nothing here runs unless explicitly installed.
``SpanRecorder.install`` on a disabled bus returns the shared
:data:`NULL_SPAN_RECORDER` stub (``__slots__``, no state, no
allocation per event) so instrumented call sites stay free when
tracing is off.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from ..sim.trace import stable_trace_id
from . import events as ev
from .txlog import Source, read_records

__all__ = [
    "Span",
    "SpanBuilder",
    "SpanRecorder",
    "NullSpanRecorder",
    "NULL_SPAN_RECORDER",
    "build_spans",
    "span_forest_digest",
    "critical_path_chain",
    "critical_path_by_tenant",
    "stable_trace_id",
]

SPAN_SCHEMA_VERSION = 1

#: span kinds, parent to child
TASK = "task"
ATTEMPT = "attempt"
SCHEDULE_WAIT = "schedule-wait"
INPUT_TRANSFER = "input-transfer"
EXECUTE = "execute"
OUTPUT_COMMIT = "output-commit"
RECOVERY = "recovery"


class Span:
    """One node of a span tree.  Start/end are sim seconds."""

    __slots__ = ("kind", "name", "start", "end", "task", "worker",
                 "tenant", "attempt", "ok", "file", "nbytes", "cached",
                 "children")

    def __init__(self, kind: str, name: str, start: float,
                 end: Optional[float] = None,
                 task: Optional[str] = None,
                 worker: Optional[int] = None,
                 tenant: Optional[str] = None,
                 attempt: Optional[int] = None,
                 ok: Optional[bool] = None,
                 file: Optional[str] = None,
                 nbytes: Optional[float] = None,
                 cached: Optional[bool] = None):
        self.kind = kind
        self.name = name
        self.start = start
        self.end = end
        self.task = task
        self.worker = worker
        self.tenant = tenant
        self.attempt = attempt
        self.ok = ok
        self.file = file
        self.nbytes = nbytes
        self.cached = cached
        self.children: List[Span] = []

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def walk(self) -> Iterable["Span"]:
        """This span, then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready dict; omits unset fields for byte-stable dumps."""
        out: Dict[str, object] = {"kind": self.kind, "name": self.name,
                                  "start": self.start, "end": self.end}
        for key in ("task", "worker", "tenant", "attempt", "ok",
                    "file", "nbytes", "cached"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.kind} {self.name!r} "
                f"[{self.start:.3f}, {self.end}] "
                f"{len(self.children)} children>")


class SpanBuilder:
    """Folds a lifecycle-edge stream into a span forest.

    Feed it events via :meth:`on_event` (the bus-subscriber signature)
    or whole records via :meth:`on_record`; read the result with
    :meth:`forest` once the stream ends.  The builder is causally
    incremental -- it never needs the full log in memory beyond the
    spans themselves -- and deterministic: the same stream always
    yields the same forest.
    """

    def __init__(self):
        #: task string id -> root span
        self.roots: Dict[str, Span] = {}
        self.meta: dict = {}
        self.makespan: float = 0.0
        self._order: List[str] = []          # first-seen task order
        self._ready: Dict[str, float] = {}   # latest READY per task
        self._open_attempt: Dict[str, Span] = {}
        self._open_exec: Dict[str, Span] = {}
        self._attempt_count: Dict[str, int] = {}
        self._last_failed: Dict[str, Span] = {}
        self._trace_ids: Dict[int, str] = {}
        #: file name -> producing task (from TASK_DONE outputs context)
        self.producers: Dict[str, str] = {}
        #: task -> latest acceptance time
        self.done_time: Dict[str, float] = {}
        #: task -> input files it staged (for causal predecessors)
        self.staged_inputs: Dict[str, List[str]] = {}
        self._tenant_of: Dict[str, str] = {}
        #: tenant -> earliest SUBMIT time (facility runs)
        self.submit_time: Dict[str, float] = {}

    # -- feeding -------------------------------------------------------------
    def on_event(self, type: str, t: float, fields: dict) -> None:
        handler = self._HANDLERS.get(type)
        if handler is not None:
            handler(self, t, fields)
            # lifecycle edges only: the RUN_END footer and metric
            # samples may carry later timestamps than any task
            if t > self.makespan and type != ev.RUN:
                self.makespan = t

    def on_record(self, record: dict) -> None:
        self.on_event(record.get("type", "?"), record.get("t", 0.0),
                      record)

    # -- per-edge handlers ---------------------------------------------------
    def _root(self, task: str, t: float,
              tenant: Optional[str]) -> Span:
        root = self.roots.get(task)
        if root is None:
            root = self.roots[task] = Span(TASK, task, t, task=task,
                                           tenant=tenant)
            self._order.append(task)
        return root

    def _on_run(self, t: float, fields: dict) -> None:
        self.meta = {k: v for k, v in fields.items()
                     if k not in ("type", "t")}

    def _on_submit(self, t: float, fields: dict) -> None:
        tenant = fields.get("tenant")
        if tenant is not None and tenant not in self.submit_time:
            self.submit_time[tenant] = t

    def _on_ready(self, t: float, fields: dict) -> None:
        task = fields.get("task")
        if task is None:
            return
        tenant = fields.get("tenant")
        if tenant is not None:
            self._tenant_of[task] = tenant
        self._ready[task] = t
        self._root(task, t, tenant)

    def _on_dispatch(self, t: float, fields: dict) -> None:
        task = fields.get("task")
        if task is None:
            return
        tenant = fields.get("tenant", self._tenant_of.get(task))
        root = self._root(task, t, tenant)
        ready = self._ready.get(task, t)
        n = self._attempt_count.get(task, 0) + 1
        self._attempt_count[task] = n
        self._trace_ids.setdefault(stable_trace_id(task), task)
        attempt = Span(ATTEMPT, f"{task}#{n}", ready, task=task,
                       worker=fields.get("worker"), tenant=tenant,
                       attempt=fields.get("attempt", n))
        attempt.children.append(Span(
            SCHEDULE_WAIT, "schedule-wait", ready, t, task=task,
            tenant=tenant))
        # a re-execution after a failure nests under the failed attempt
        # so recovery lineage is visible in the tree itself
        parent = self._last_failed.get(task)
        (parent.children if parent is not None
         else root.children).append(attempt)
        self._open_attempt[task] = attempt

    def _on_stage_in(self, t: float, fields: dict) -> None:
        task = fields.get("task")
        attempt = self._open_attempt.get(task)
        if attempt is None:
            return
        file = fields.get("file")
        attempt.children.append(Span(
            INPUT_TRANSFER, f"stage:{file}", fields.get("t_start", t), t,
            task=task, worker=fields.get("worker"),
            tenant=attempt.tenant, file=file,
            nbytes=fields.get("nbytes"),
            cached=bool(fields.get("cached", False))))
        if file is not None:
            self.staged_inputs.setdefault(task, []).append(file)

    def _on_exec_start(self, t: float, fields: dict) -> None:
        task = fields.get("task")
        attempt = self._open_attempt.get(task)
        if attempt is None:
            return
        span = Span(EXECUTE, "execute", t, task=task,
                    worker=fields.get("worker"), tenant=attempt.tenant)
        attempt.children.append(span)
        self._open_exec[task] = span

    def _on_exec_end(self, t: float, fields: dict) -> None:
        raw = fields.get("task")
        # EXEC_END carries the numeric CRC32 trace id (the sim trace's
        # task records); every other edge carries the string id.
        task = (self._trace_ids.get(raw) if isinstance(raw, int)
                else raw)
        if task is None:
            return
        attempt = self._open_attempt.get(task)
        if attempt is None:
            return
        ok = bool(fields.get("ok", True))
        t_end = fields.get("t_end", t)
        span = self._open_exec.pop(task, None)
        if span is None:
            # the attempt died before EXEC_START (staging failure):
            # record the zero-or-short execute window the trace kept
            span = Span(EXECUTE, "execute", fields.get("t_start", t_end),
                        task=task, worker=fields.get("worker"),
                        tenant=attempt.tenant)
            attempt.children.append(span)
        span.end = t_end
        span.ok = ok
        if not ok:
            attempt.end = t_end
            attempt.ok = False
            self._open_attempt.pop(task, None)
            self._last_failed[task] = attempt

    def _on_task_done(self, t: float, fields: dict) -> None:
        task = fields.get("task")
        if task is None:
            return
        attempt = self._open_attempt.pop(task, None)
        if attempt is not None:
            attempt.end = t
            attempt.ok = True
        self._last_failed.pop(task, None)
        self.done_time[task] = t
        for name in fields.get("outputs") or ():
            self.producers[name] = task

    def _on_retrieve(self, t: float, fields: dict) -> None:
        task = fields.get("task")
        attempt = self._open_attempt.get(task)
        if attempt is None:
            return
        file = fields.get("file")
        attempt.children.append(Span(
            OUTPUT_COMMIT, f"commit:{file}", fields.get("t_start", t), t,
            task=task, worker=fields.get("worker"),
            tenant=attempt.tenant, file=file,
            nbytes=fields.get("nbytes")))

    def _on_recovery(self, t: float, fields: dict) -> None:
        task = fields.get("task")
        if task is None:
            return
        root = self._root(task, t, fields.get(
            "tenant", self._tenant_of.get(task)))
        root.children.append(Span(
            RECOVERY, f"recover:{fields.get('file')}", t, t, task=task,
            tenant=root.tenant, file=fields.get("file")))

    _HANDLERS = {
        ev.RUN: _on_run,
        ev.SUBMIT: _on_submit,
        ev.READY: _on_ready,
        ev.DISPATCH: _on_dispatch,
        ev.STAGE_IN: _on_stage_in,
        ev.EXEC_START: _on_exec_start,
        ev.EXEC_END: _on_exec_end,
        ev.TASK_DONE: _on_task_done,
        ev.RETRIEVE: _on_retrieve,
        ev.RECOVERY: _on_recovery,
    }

    # -- results -------------------------------------------------------------
    def forest(self) -> List[Span]:
        """The finished span forest, in first-seen task order.

        Root spans get their end stamped from their deepest child (an
        unfinished attempt -- run aborted -- stays open with
        ``end=None`` on the attempt but the root closes over whatever
        completed).
        """
        out = []
        for task in self._order:
            root = self.roots[task]
            end = root.start
            for span in root.walk():
                if span.end is not None and span.end > end:
                    end = span.end
            root.end = end
            out.append(root)
        return out

    def tenants(self) -> List[str]:
        return sorted({s.tenant for s in self.roots.values()
                       if s.tenant is not None})


def build_spans(source: Source, status=None) -> SpanBuilder:
    """Replay a transaction log (path or record iterable) into a
    :class:`SpanBuilder`.  The resulting forest is identical to what a
    live :class:`SpanRecorder` on the same run would have built.

    Truncated logs are handled, not fatal: everything up to the last
    complete record is folded.  Pass a
    :class:`~repro.obs.txlog.ReadStatus` to learn where the cut fell.
    """
    builder = SpanBuilder()
    if isinstance(source, str):
        source = read_records(source, status)
    for record in source:
        builder.on_record(record)
    return builder


def span_forest_digest(forest: Iterable[Span]) -> str:
    """Stable digest of a span forest (byte-stability tests)."""
    import hashlib
    import json
    payload = json.dumps([s.to_dict() for s in forest],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- live recording ----------------------------------------------------------

class NullSpanRecorder:
    """Disabled span recording: every call is a no-op, no allocation.

    Shares the zero-overhead contract of
    :class:`~repro.obs.events.NullBus`: ``__slots__`` is empty, there
    is no per-event state, and ``enabled`` lets call sites skip work
    entirely.
    """

    __slots__ = ()
    enabled = False

    def forest(self) -> List[Span]:
        return []

    def builder(self) -> Optional[SpanBuilder]:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSpanRecorder>"


#: shared disabled recorder; safe because it holds no state.
NULL_SPAN_RECORDER = NullSpanRecorder()


class SpanRecorder:
    """Live span recording: a :class:`SpanBuilder` fed by the bus.

    Use :meth:`install` (not the constructor) so a disabled bus costs
    nothing::

        recorder = SpanRecorder.install(manager.bus)
        result = manager.run()
        forest = recorder.forest()   # [] when tracing was off
    """

    __slots__ = ("_builder",)
    enabled = True

    def __init__(self, builder: SpanBuilder):
        self._builder = builder

    @classmethod
    def install(cls, bus) -> Union["SpanRecorder", NullSpanRecorder]:
        """Subscribe a fresh builder to ``bus``; returns the shared
        :data:`NULL_SPAN_RECORDER` when the bus is disabled."""
        if bus is None or not getattr(bus, "enabled", False):
            return NULL_SPAN_RECORDER
        builder = SpanBuilder()
        bus.subscribe_all(builder.on_event)
        return cls(builder)

    def forest(self) -> List[Span]:
        return self._builder.forest()

    def builder(self) -> SpanBuilder:
        return self._builder


# -- critical-path attribution ----------------------------------------------

def _final_attempt(root: Span) -> Optional[Span]:
    """The last successful attempt under a task root (deepest in the
    re-execution chain), or None if the task never completed."""
    best = None
    for span in root.walk():
        if span.kind == ATTEMPT and span.ok and span.end is not None:
            if best is None or span.end > best.end:
                best = span
    return best


def _attempt_phases(attempt: Span) -> List[dict]:
    """Decompose one attempt into contiguous chain segments."""
    dispatch_t = attempt.start
    exec_start = None
    exec_end = attempt.end
    for child in attempt.children:
        if child.kind == SCHEDULE_WAIT and child.end is not None:
            dispatch_t = child.end
        elif child.kind == EXECUTE:
            exec_start = child.start
            if child.end is not None:
                exec_end = child.end
    if exec_start is None:
        exec_start = exec_end if exec_end is not None else dispatch_t
    segments = [
        {"phase": SCHEDULE_WAIT, "task": attempt.task,
         "start": attempt.start, "end": dispatch_t},
        {"phase": "stage-in", "task": attempt.task,
         "start": dispatch_t, "end": exec_start},
        {"phase": EXECUTE, "task": attempt.task,
         "start": exec_start, "end": exec_end},
    ]
    return [s for s in segments if s["end"] is not None]


def critical_path_chain(source: Union[Source, SpanBuilder],
                        tenant: Optional[str] = None) -> dict:
    """Explain the makespan as one weighted chain of spans.

    Walks backwards from the last-finishing task: each link is that
    task's final successful attempt (schedule-wait / stage-in /
    execute segments), its causal predecessor is the producer of the
    staged input that finished *last*, and inter-link time is a
    ``handoff`` segment (result collection + re-queue latency).  The
    leading ``arrival`` segment covers time before the first chain
    task became ready (submission wait, in facility runs); a trailing
    ``collect`` segment covers the end task's acceptance gap.  Segment
    durations sum to the chain's end-to-end total exactly.
    """
    builder = (source if isinstance(source, SpanBuilder)
               else build_spans(source))
    builder.forest()  # stamp root ends

    def in_scope(task: str) -> bool:
        return (tenant is None
                or builder._tenant_of.get(task) == tenant
                or builder.roots[task].tenant == tenant)

    done = {task: t for task, t in builder.done_time.items()
            if task in builder.roots and in_scope(task)}
    if not done:
        return {"total_s": 0.0, "segments": [], "phase_totals": {},
                "tasks_on_path": 0, "makespan": builder.makespan,
                "tenant": tenant}

    last_task = max(done, key=lambda k: (done[k], k))
    chain: List[dict] = []          # built back to front
    visited = set()
    task = last_task
    t_origin = (builder.submit_time.get(tenant, 0.0)
                if tenant is not None else 0.0)
    while task is not None and task not in visited:
        visited.add(task)
        attempt = _final_attempt(builder.roots[task])
        if attempt is None:
            break
        segments = _attempt_phases(attempt)
        # causal predecessor: the producer of this task's staged
        # inputs that was accepted last
        pred = None
        pred_done = None
        for file in builder.staged_inputs.get(task, ()):
            producer = builder.producers.get(file)
            if producer is None or producer == task:
                continue
            if not in_scope(producer):
                continue
            t_done = builder.done_time.get(producer)
            if t_done is None:
                continue
            if pred_done is None or (t_done, producer) > (pred_done,
                                                          pred):
                pred, pred_done = producer, t_done
        if pred is not None:
            handoff = {"phase": "handoff", "task": task,
                       "start": min(pred_done, attempt.start),
                       "end": attempt.start}
            segments.insert(0, handoff)
        else:
            segments.insert(0, {"phase": "arrival", "task": task,
                                "start": t_origin,
                                "end": attempt.start})
        chain[:0] = segments
        task = pred

    # handoff covers everything between the predecessor's execute end
    # and this attempt's start: result collection AND re-queue latency
    for prev, cur in zip(chain, chain[1:]):
        if cur["phase"] == "handoff" and cur["start"] > prev["end"]:
            cur["start"] = prev["end"]

    if chain:
        # trailing acceptance gap: the end task's result was computed
        # at EXEC_END but the run only finishes at its acceptance
        t_done = done[last_task]
        if t_done > chain[-1]["end"]:
            chain.append({"phase": "collect", "task": last_task,
                          "start": chain[-1]["end"], "end": t_done})

    for seg in chain:
        seg["duration"] = max(0.0, seg["end"] - seg["start"])
    phase_totals: Dict[str, float] = {}
    for seg in chain:
        phase_totals[seg["phase"]] = (phase_totals.get(seg["phase"], 0.0)
                                      + seg["duration"])
    total = sum(seg["duration"] for seg in chain)
    return {
        "total_s": total,
        "segments": chain,
        "phase_totals": phase_totals,
        "tasks_on_path": len({seg["task"] for seg in chain}),
        "makespan": builder.makespan,
        "end_task": last_task,
        "tenant": tenant,
    }


def critical_path_by_tenant(source: Union[Source, SpanBuilder]) -> dict:
    """One critical-path chain per tenant of a facility run.

    Single-tenant logs return ``{}`` (use
    :func:`critical_path_chain` directly).
    """
    builder = (source if isinstance(source, SpanBuilder)
               else build_spans(source))
    return {tenant: critical_path_chain(builder, tenant=tenant)
            for tenant in builder.tenants()}
