"""Per-layer accounting for the traced run of the benchmark.

Two instruments, both owned by the benchmark (the simulator is not
modified):

* :class:`Tracer` wraps public functions of each layer for the length
  of a traced run -- a call counter, or a counter plus an inclusive
  ``perf_counter`` busy time.  The wrappers go on the classes (and, for
  module-level functions, on the module attribute callers resolve at
  call time) before any simulator object exists, so bound methods the
  simulator caches at construction are the wrapped ones.
* :class:`RunPhase` samples the run phase for self time inside
  generators the kernel resumes (network flows, task pipelines), which
  a call wrapper cannot see: calling a generator function returns at
  once and its work happens later, in ``step``.  Samples are charged
  with :func:`repro.obs.profile.classify_module`, the phase table of
  ``PhaseProfiler``, but taken by a ``SIGALRM`` interval timer in the
  main thread rather than by ``PhaseProfiler``'s thread.  A sampling
  thread only runs when the main thread releases the interpreter lock;
  with a transaction log open that happens at every buffered write, so
  on ``observed-dv3`` the thread put 2724 of 2746 samples in
  ``TransactionLog._write``.  A signal handler runs at the next
  bytecode boundary of the interrupted thread, wherever that is.

Busy times are inclusive (``obs.emit_s`` contains the txlog, live and
SLO subscriber times; ``trace.s`` contains the bus emit it mirrors
onto).  Self times come from the sampler and sum to the run phase.
"""

from __future__ import annotations

import gc
import signal
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: wall seconds between run-phase samples
SAMPLE_INTERVAL = 0.002


def _count_wrapper(fn: Callable, counts: Counter, key: str) -> Callable:
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    counted.__wrapped__ = fn
    return counted


def _timed_wrapper(fn: Callable, counts: Counter, busy: Dict[str, float],
                   key: str, classify: Optional[Callable] = None,
                   calls: Optional[List[float]] = None) -> Callable:
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - t0
            busy[key] += elapsed
            counts[key] += 1
            if calls is not None:
                calls.append(elapsed)
        if classify is not None:
            classify(result)
        return result
    timed.__wrapped__ = fn
    return timed


class Tracer:
    """Counts and times calls into the simulator's layers.

    ``install()`` patches, ``uninstall()`` restores; between the two,
    ``counts`` and ``busy`` accumulate and ``reset()`` clears them (the
    benchmark resets at the start of every iteration and harvests at
    the end, so every figure is per iteration).  ``calls`` keeps the
    duration of every single call for the few keys timed with
    ``keep_calls``.

    ``install(checkpoints_only=True)`` patches only the checkpoint
    timers: the untraced ``serve-campaign`` run uses them for
    ``checkpoint_ms``.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, List[float]] = defaultdict(list)
        self._saved: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        self._patch(owner, attr, _count_wrapper(
            getattr(owner, attr), self.counts, key))

    def time(self, owner, attr: str, key: str,
             classify: Optional[Callable] = None,
             keep_calls: bool = False) -> None:
        self._patch(owner, attr, _timed_wrapper(
            getattr(owner, attr), self.counts, self.busy, key, classify,
            self.calls[key] if keep_calls else None))

    def install(self, checkpoints_only: bool = False) -> "Tracer":
        from repro.serve import checkpoint as checkpoint_mod

        # serve checkpoints: one build and one write each
        self.time(checkpoint_mod, "build_checkpoint",
                  "serve.checkpoint.build", keep_calls=True)
        self.time(checkpoint_mod, "write_checkpoint",
                  "serve.checkpoint.write", keep_calls=True)
        if checkpoints_only:
            return self

        from repro.core.cache import ReplicaIndex
        from repro.core.manager import TaskVineManager
        from repro.core.scheduling import ReadyQueue
        from repro.facility import facility as facility_mod
        from repro.facility.fairshare import _TenantAwareQueue
        from repro.facility.tenant import Admitted, Queued, Rejected
        from repro.obs import analyze as analyze_mod
        from repro.obs.events import EventBus
        from repro.obs.live import LiveAnalyzer
        from repro.obs.slo import SLOMonitor
        from repro.obs.txlog import TransactionLog
        from repro.sim.engine import Simulation
        from repro.sim.network import Network
        from repro.sim.storage import SharedFilesystem
        from repro.sim.trace import TraceRecorder

        # sim: kernel and substrate
        self.count(Simulation, "timeout", "sim.timeouts")
        self.count(Network, "transfer", "sim.net.transfers")
        for attr in ("read", "write", "metadata_op"):
            self.count(SharedFilesystem, attr, "sim.storage.ops")
        # core: placement (the manager's worker choice, fast path or
        # injected policy), ready-queue pops, replica-map mutations
        self.time(TaskVineManager, "_pick_worker", "core.placement")
        for cls in _subclasses(ReadyQueue):
            if "pop" not in cls.__dict__:
                continue
            key = ("facility.pop" if issubclass(cls, _TenantAwareQueue)
                   else "core.readyq.pop")
            self.time(cls, "pop", key)
        for attr in ("add", "remove", "drop_node"):
            self.count(ReplicaIndex, attr, "core.replica.ops")
        # sim.trace: every record kind the recorder keeps
        for attr in ("task", "transfer", "cache", "worker"):
            self.time(TraceRecorder, attr, "trace")
        # obs write path
        self.time(EventBus, "emit", "obs.emit")
        self.time(TransactionLog, "record", "obs.txlog.record")
        self.time(LiveAnalyzer, "on_event", "obs.live")
        self.time(SLOMonitor, "on_event", "obs.slo")
        # obs read path: report_data is load (parse), the folds, then
        # assemble (finalize); it calls both through the module
        def loaded(log) -> None:
            self.counts["obs.read.records"] += len(log.records)
        self.time(analyze_mod, "load", "obs.read", classify=loaded)
        self.time(analyze_mod, "assemble", "obs.finalize")

        # facility admission, classified by decision type
        def decided(decision) -> None:
            for cls, key in ((Admitted, "facility.admitted"),
                             (Queued, "facility.queued"),
                             (Rejected, "facility.rejected")):
                if isinstance(decision, cls):
                    self.counts[key] += 1
        self.time(facility_mod.Facility, "submit", "facility.submit",
                  classify=decided)

        # serve checkpoint/restore
        def refolded(n_records) -> None:
            self.counts["serve.checkpoint.reread_records"] += n_records
        self.time(checkpoint_mod.CheckpointFolds, "feed",
                  "serve.checkpoint.fold", classify=refolded)
        self.time(checkpoint_mod, "load_checkpoint", "serve.restore.load")
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.counts.clear()
        self.busy.clear()
        # the wrappers hold these lists: empty them in place
        for calls in self.calls.values():
            calls.clear()


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Spent:
    """Wall and CPU seconds of the stretches measured with it."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def measure(self):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_s += time.perf_counter() - t0
            self.cpu_s += time.process_time() - cpu0


class RunPhase(Spent):
    """Accumulates the run phase of one iteration: wall and CPU time,
    and, when traced, GC pauses and sampled self time by module."""

    def __init__(self, tracer: Optional[Tracer] = None):
        super().__init__()
        self.tracer = tracer
        #: tracer counts and busy times accrued inside the run phase
        self.counts: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.gc_s = 0.0
        self.gc_collections = 0
        self.samples = 0
        #: sampled "module:function" -> samples
        self.sites: Counter = Counter()
        self._gc_t0 = 0.0
        if tracer is not None:
            from repro.obs.profile import classify_module
            self._classify = classify_module
            #: module name -> whether it is a simulator module
            self._in_repro: Dict[str, bool] = {}

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def _sample(self, signum, frame) -> None:
        self.samples += 1
        in_repro = self._in_repro
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module not in in_repro:
                in_repro[module] = self._classify(module) is not None
            if in_repro[module]:
                self.sites[f"{module}:{frame.f_code.co_name}"] += 1
                return
            frame = frame.f_back

    @contextmanager
    def measure(self):
        tracer = self.tracer
        if tracer is not None:
            counts0 = Counter(tracer.counts)
            busy0 = dict(tracer.busy)
            gc.callbacks.append(self._on_gc)
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL,
                             SAMPLE_INTERVAL)
        try:
            with super().measure():
                yield self
        finally:
            if tracer is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                gc.callbacks.remove(self._on_gc)
                self.counts.update(tracer.counts)
                self.counts.subtract(counts0)
                for key, value in tracer.busy.items():
                    self.busy[key] += value - busy0.get(key, 0.0)

    def self_time(self, predicate: Callable[[str], bool]) -> float:
        """Sampled self seconds of sites whose module passes
        ``predicate``."""
        if not self.samples:
            return 0.0
        hits = sum(n for site, n in self.sites.items()
                   if predicate(site.partition(":")[0]))
        return self.wall_s * hits / self.samples

    def phase_frac(self, phase: str) -> float:
        """Sampled share of the run phase in one
        :data:`repro.obs.profile.PHASE_RULES` phase."""
        from repro.obs.profile import classify_module
        if not self.samples:
            return 0.0
        hits = sum(n for site, n in self.sites.items()
                   if classify_module(site.partition(":")[0]) == phase)
        return hits / self.samples

    def accounted_frac(self) -> float:
        """Share of run-phase samples charged to a simulator module.
        The rest had no ``repro`` frame on the stack: the event loop
        idling between pump slices, or the benchmark's own code."""
        if not self.samples:
            return 0.0
        return sum(self.sites.values()) / self.samples
