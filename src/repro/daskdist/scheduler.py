"""Dask.Distributed baseline model (Section V.B, Fig 14a).

Dask's native scheduler runs workers as **one single-core process per
core**: twelve Dask workers on a 12-core node share nothing -- each has
its own interpreter, its own imports, and its own object store, because
twelve threads in one process would serialise on the GIL (the paper's
explanation of why the per-node TaskVine worker wins).  The model
captures:

* higher central-scheduler cost per task (graph bookkeeping grows with
  worker count),
* per-*process* startup and import cost multiplied across every core,
* duplicated caches (no node-level sharing), and
* instability at scale: the paper reports Dask.Distributed
  "consistently fails with a combination of worker and application
  crashes and hangs" on the large workflows -- modelled as a hard
  feasibility envelope over worker count and intermediate data volume.

Provision the cluster with single-core :class:`~repro.sim.cluster.
NodeSpec`\\ s (see ``repro.bench.runners.run_daskdist``), which is how
the real deployment slices nodes.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import TASK_MODE_FUNCTIONS, SchedulerConfig
from ..core.manager import RunResult, TaskVineManager
from ..obs import events as obs

__all__ = ["DaskDistributedScheduler", "DASK_DISTRIBUTED_CONFIG",
           "DaskCrashed"]

#: Dask's cost profile: persistent worker processes (cheap per-task
#: startup) but a heavier central scheduler and per-core duplication.
DASK_DISTRIBUTED_CONFIG = SchedulerConfig(
    mode=TASK_MODE_FUNCTIONS,     # persistent workers ~ resident functions
    hoisting=True,
    dispatch_overhead=0.028,      # central scheduler cost per task
    collect_overhead=0.012,
    function_call_overhead=0.008,
    library_startup=2.8,          # one interpreter *per core*
    import_cost=0.9,
    transfer_slots=4,
    peer_transfers=True,          # dask workers do transfer to each other
    locality_scheduling=True,
    results_to_manager=False,
)


class DaskCrashed(Exception):
    """The run fell outside Dask.Distributed's feasibility envelope."""


class DaskDistributedScheduler(TaskVineManager):
    """Dask.Distributed with per-core sharded workers."""

    scheduler_name = "dask.distributed"

    #: beyond this many worker processes the scheduler/heartbeat fabric
    #: destabilises (paper: consistent crashes on the 120-2400 core runs
    #: of the large workflows).
    max_stable_workers = 320
    #: beyond this much intermediate data the per-process object stores
    #: and spilling thrash (DV3-Large: ~0.5 TB; RS-TriPhoton: ~1.8 TB).
    max_stable_intermediate_bytes = 300e9
    #: fraction of the worker-process pool that can be lost before the
    #: run destabilises.  Dask tolerates the odd lost worker (tasks are
    #: retried), but losing a meaningful slice of the pool takes
    #: non-replicated intermediates with it and the paper reports the
    #: result as worker/application crashes and hangs, not recovery.
    preemption_tolerance = 0.05

    _peak_workers = 0
    _workers_lost = 0

    def __init__(self, sim, cluster, storage, workflow,
                 config: Optional[SchedulerConfig] = None, trace=None):
        super().__init__(sim, cluster, storage, workflow,
                         config=config or DASK_DISTRIBUTED_CONFIG,
                         trace=trace)
        self._peak_workers = max(1, len(self.agents))
        self._workers_lost = 0

    def extra_gauges(self):
        return {
            "workers_lost": lambda: float(self._workers_lost),
            "worker_loss_headroom": lambda: max(0.0, (
                self.preemption_tolerance
                - self._workers_lost / self._peak_workers)),
        }

    def _add_agent(self, node) -> None:
        super()._add_agent(node)
        # reads the class default 0 during super().__init__, an
        # instance attribute afterwards
        self._peak_workers = max(self._peak_workers, len(self.agents))

    def _on_preempt(self, node) -> None:
        if node.node_id in self.agents:
            self._workers_lost += 1
        super()._on_preempt(node)
        if self._error is not None:
            return
        lost_frac = self._workers_lost / max(1, self._peak_workers)
        if lost_frac > self.preemption_tolerance:
            reason = (f"{self._workers_lost}/{self._peak_workers} worker"
                      f" processes lost ({lost_frac:.0%} exceeds the "
                      f"{self.preemption_tolerance:.0%} tolerance): "
                      f"non-replicated intermediates are gone and the "
                      f"scheduler/heartbeat fabric destabilises")
            if self.bus.enabled:
                self.bus.emit(obs.CRASH, self.sim.now,
                              scheduler=self.scheduler_name,
                              reason=reason)
            self._abort(f"dask.distributed crashed: {reason}")

    def feasible(self) -> Optional[str]:
        """None if the run is inside the envelope, else the reason."""
        n_workers = len(self.agents)
        if n_workers > self.max_stable_workers:
            return (f"{n_workers} worker processes exceed the stable "
                    f"limit ({self.max_stable_workers}): workers crash "
                    f"and the scheduler hangs")
        volume = self.workflow.total_generated_bytes()
        if volume > self.max_stable_intermediate_bytes:
            return (f"{volume / 1e9:.0f} GB of intermediate data "
                    f"exceeds the stable limit "
                    f"({self.max_stable_intermediate_bytes / 1e9:.0f} GB):"
                    f" per-process stores spill and crash")
        return None

    def run(self, limit: Optional[float] = None) -> RunResult:
        reason = self.feasible()
        if reason is not None:
            if self.bus.enabled:
                self.bus.emit(obs.CRASH, self.sim.now,
                              scheduler=self.scheduler_name,
                              reason=reason)
            return RunResult(
                completed=False, makespan=float("inf"), trace=self.trace,
                tasks_done=0, task_failures=0,
                error=f"dask.distributed crashed: {reason}")
        return super().run(limit=limit)
