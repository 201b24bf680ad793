"""Trace recording and aggregation.

The schedulers emit typed records into a :class:`TraceRecorder` as the
simulation runs; every figure in the paper is an aggregation over this
log:

* transfer records      -> Fig 7 heatmap (bytes moved between node pairs)
* task records          -> Fig 8 duration distribution, Fig 12 running /
                           waiting timelines, Fig 13 worker occupancy,
                           Fig 15 concurrency
* cache-level records   -> Fig 11 per-worker storage consumption
* worker events         -> preemption / failure markers
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TaskRecord",
    "TransferRecord",
    "CacheDelta",
    "WorkerEvent",
    "TraceRecorder",
    "stable_trace_id",
    "step_series",
]

MANAGER_NODE = 0
"""Node id reserved for the manager in transfer matrices (paper Fig 7)."""


def stable_trace_id(task_id: str) -> int:
    """31-bit numeric trace id for a task's string id.

    CRC32, *not* ``hash()``: the builtin is salted per process
    (PYTHONHASHSEED), so hashed ids from two runs could never be lined
    up.  With a content-defined id, traces written by different
    processes (or recorded in the golden captures under ``tests/``)
    agree byte for byte.  EXEC_END records carry this numeric id while
    every other lifecycle edge carries the string id; the span builder
    (:mod:`repro.obs.trace`) lines them up through it.
    """
    return zlib.crc32(task_id.encode()) & 0x7FFFFFFF


@dataclass(slots=True)
class TaskRecord:
    """Lifecycle of one task: ready -> dispatched -> running -> done."""

    task_id: int
    category: str
    worker: int
    t_ready: float
    t_dispatch: float
    t_start: float
    t_end: float
    ok: bool = True
    #: 1-based attempt number; >1 after failures re-queued the task
    attempt: int = 1

    @property
    def exec_time(self) -> float:
        """Wall time spent actually executing on the worker."""
        return self.t_end - self.t_start

    @property
    def turnaround(self) -> float:
        """Time from becoming ready to completing."""
        return self.t_end - self.t_ready


@dataclass(slots=True)
class TransferRecord:
    """Bytes moved between two nodes (manager is node 0)."""

    src: int
    dst: int
    nbytes: float
    t_start: float
    t_end: float
    kind: str = "data"  # data | task | result | library


@dataclass(slots=True)
class CacheDelta:
    """Change in a worker's local cache occupancy at an instant."""

    worker: int
    t: float
    delta: float


@dataclass(slots=True)
class WorkerEvent:
    """Worker lifecycle: spawn, preempt, remove."""

    worker: int
    t: float
    kind: str


def step_series(times: Sequence[float], deltas: Sequence[float],
                t_end: Optional[float] = None,
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Turn (time, delta) pairs into a sorted step function.

    Returns ``(ts, levels)`` where ``levels[i]`` holds from ``ts[i]`` to
    ``ts[i+1]``.  Deltas at identical times are merged.
    """
    if len(times) == 0:
        return np.array([0.0]), np.array([0.0])
    order = np.argsort(times, kind="stable")
    ts = np.asarray(times, dtype=float)[order]
    ds = np.asarray(deltas, dtype=float)[order]
    uniq, index = np.unique(ts, return_index=True)
    merged = np.add.reduceat(ds, index)
    levels = np.cumsum(merged)
    if t_end is not None and (len(uniq) == 0 or t_end > uniq[-1]):
        uniq = np.append(uniq, t_end)
        levels = np.append(levels, levels[-1])
    return uniq, levels


class TraceRecorder:
    """Accumulates simulation records and answers figure-level queries.

    When ``bus`` is set (an :class:`repro.obs.events.EventBus`), every
    record is also forwarded as an observability event -- this is how
    network transfers, cache deltas, worker events, and completed task
    attempts reach the transaction log without each producer being
    instrumented twice.  Event-type names are string literals here (not
    imports from :mod:`repro.obs.events`) to keep the sim substrate
    dependency-free; the two must stay in sync.
    """

    def __init__(self, bus=None):
        self.tasks: List[TaskRecord] = []
        self.transfers: List[TransferRecord] = []
        self.cache_deltas: List[CacheDelta] = []
        self.worker_events: List[WorkerEvent] = []
        self.makespan: float = 0.0
        #: optional observability bus; ``None`` means no forwarding.
        self.bus = bus

    # -- recording ----------------------------------------------------------
    def task(self, record: TaskRecord) -> None:
        self.tasks.append(record)
        if record.t_end > self.makespan:
            self.makespan = record.t_end
        if self.bus is not None:
            self.bus.emit(
                "EXEC_END", record.t_end, task=record.task_id,
                category=record.category, worker=record.worker,
                t_ready=record.t_ready, t_dispatch=record.t_dispatch,
                t_start=record.t_start, t_end=record.t_end,
                ok=record.ok, attempt=record.attempt)

    def transfer(self, record: TransferRecord) -> None:
        self.transfers.append(record)
        if self.bus is not None:
            self.bus.emit(
                "TRANSFER", record.t_end, src=record.src, dst=record.dst,
                nbytes=record.nbytes, t_start=record.t_start,
                t_end=record.t_end, kind=record.kind)

    def cache(self, worker: int, t: float, delta: float,
              name: Optional[str] = None) -> None:
        self.cache_deltas.append(CacheDelta(worker, t, delta))
        if self.bus is not None:
            self.bus.emit(
                "CACHE_PUT" if delta >= 0 else "CACHE_EVICT", t,
                worker=worker, nbytes=abs(delta), file=name)

    _WORKER_EVENT_TYPES = {"spawn": "WORKER_JOIN",
                           "preempt": "WORKER_PREEMPT"}

    def worker(self, worker: int, t: float, kind: str) -> None:
        self.worker_events.append(WorkerEvent(worker, t, kind))
        if self.bus is not None:
            self.bus.emit(
                self._WORKER_EVENT_TYPES.get(kind, "WORKER_LEAVE"), t,
                worker=worker, kind=kind)

    # -- aggregations -------------------------------------------------------
    def task_durations(self, category: Optional[str] = None,
                       ok_only: bool = True) -> np.ndarray:
        """Execution times of (optionally one category of) tasks."""
        return np.array([
            r.exec_time for r in self.tasks
            if (category is None or r.category == category)
            and (r.ok or not ok_only)
        ])

    def concurrency_series(self, until: Optional[float] = None,
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Step series of the number of concurrently *running* tasks."""
        times: List[float] = []
        deltas: List[float] = []
        for r in self.tasks:
            times.append(r.t_start)
            deltas.append(1.0)
            times.append(r.t_end)
            deltas.append(-1.0)
        ts, levels = step_series(times, deltas, t_end=until or self.makespan)
        if until is not None:
            keep = ts <= until
            ts, levels = ts[keep], levels[keep]
        return ts, levels

    def waiting_series(self, until: Optional[float] = None,
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Step series of tasks that are ready but not yet running."""
        times: List[float] = []
        deltas: List[float] = []
        for r in self.tasks:
            times.append(r.t_ready)
            deltas.append(1.0)
            times.append(r.t_start)
            deltas.append(-1.0)
        ts, levels = step_series(times, deltas, t_end=until or self.makespan)
        if until is not None:
            keep = ts <= until
            ts, levels = ts[keep], levels[keep]
        return ts, levels

    def sample_series(self, ts: np.ndarray, levels: np.ndarray,
                      sample_times: Sequence[float]) -> np.ndarray:
        """Evaluate a step series at arbitrary times."""
        out = np.empty(len(sample_times))
        for i, t in enumerate(sample_times):
            j = bisect.bisect_right(ts.tolist(), t) - 1
            out[i] = levels[j] if j >= 0 else 0.0
        return out

    def transfer_matrix(self, n_nodes: int,
                        kinds: Optional[Sequence[str]] = None) -> np.ndarray:
        """Matrix M[src, dst] of total bytes moved (Fig 7 heatmap)."""
        mat = np.zeros((n_nodes, n_nodes))
        for rec in self.transfers:
            if kinds is not None and rec.kind not in kinds:
                continue
            # Negative ids are pseudo-nodes (e.g. the shared filesystem)
            # and do not appear in the node-pair heatmap.
            if 0 <= rec.src < n_nodes and 0 <= rec.dst < n_nodes:
                mat[rec.src, rec.dst] += rec.nbytes
        return mat

    def cache_series(self, worker: int) -> Tuple[np.ndarray, np.ndarray]:
        """Step series of one worker's cache occupancy (Fig 11)."""
        times = [d.t for d in self.cache_deltas if d.worker == worker]
        deltas = [d.delta for d in self.cache_deltas if d.worker == worker]
        return step_series(times, deltas, t_end=self.makespan)

    def peak_cache(self) -> Dict[int, float]:
        """Peak cache occupancy per worker."""
        per_worker: Dict[int, List[CacheDelta]] = {}
        for d in self.cache_deltas:
            per_worker.setdefault(d.worker, []).append(d)
        peaks: Dict[int, float] = {}
        for w, ds in per_worker.items():
            _, levels = step_series([d.t for d in ds], [d.delta for d in ds])
            peaks[w] = float(levels.max()) if len(levels) else 0.0
        return peaks

    def gantt(self) -> Dict[int, List[Tuple[float, float]]]:
        """Per-worker list of (start, end) execution intervals (Fig 13)."""
        rows: Dict[int, List[Tuple[float, float]]] = {}
        for r in self.tasks:
            rows.setdefault(r.worker, []).append((r.t_start, r.t_end))
        for intervals in rows.values():
            intervals.sort()
        return rows

    def utilization(self, n_slots: int) -> float:
        """Fraction of slot-time spent executing over the makespan."""
        if self.makespan <= 0 or n_slots <= 0:
            return 0.0
        busy = sum(r.exec_time for r in self.tasks)
        return busy / (n_slots * self.makespan)

    def failures(self) -> List[WorkerEvent]:
        return [e for e in self.worker_events if e.kind == "preempt"]

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports."""
        durations = self.task_durations()
        return {
            "makespan": self.makespan,
            "tasks": float(len(self.tasks)),
            "failed_tasks": float(sum(1 for r in self.tasks if not r.ok)),
            "mean_exec": float(durations.mean()) if len(durations) else 0.0,
            "transfers": float(len(self.transfers)),
            "bytes_moved": float(sum(t.nbytes for t in self.transfers)),
            "preemptions": float(len(self.failures())),
        }
