"""Work Queue: the manager-centric baseline scheduler (Stacks 1-2).

Work Queue [30] is TaskVine's predecessor.  The structural differences
the paper attributes the Stack 2 -> 3 speedup to:

* **Inputs via the manager** -- dataset files are read from shared
  storage by the *manager*, cached there, and streamed to each worker
  over the manager's single NIC.
* **Results to the manager** -- every task's outputs are sent straight
  back to the manager; a downstream task re-fetches them from the
  manager.  Nothing is retained in worker caches for scheduling.
* **No peer transfers, no locality placement** -- all traffic funnels
  through node 0, producing exactly the Fig 7 (left) heatmap.
* **Standard tasks only** -- every task pays interpreter startup plus
  imports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.config import TASK_MODE_TASKS, SchedulerConfig
from ..core.files import FileKind
from ..core.manager import MANAGER_NODE, TaskVineManager
from ..core.worker import WorkerAgent
from ..sim.engine import Event

__all__ = ["WorkQueueManager", "WORK_QUEUE_CONFIG"]

#: Work Queue's cost profile: same hardware, manager-centric policies.
WORK_QUEUE_CONFIG = SchedulerConfig(
    mode=TASK_MODE_TASKS,
    hoisting=False,
    dispatch_overhead=0.020,
    collect_overhead=0.010,
    peer_transfers=False,
    locality_scheduling=False,
    results_to_manager=True,
    inputs_via_manager=True,
)


class WorkQueueManager(TaskVineManager):
    """TaskVine's predecessor: all data moves through the manager."""

    scheduler_name = "workqueue"

    def __init__(self, sim, cluster, storage, workflow,
                 config: Optional[SchedulerConfig] = None, trace=None):
        super().__init__(sim, cluster, storage, workflow,
                         config=config or WORK_QUEUE_CONFIG, trace=trace)
        self._manager_inflight: Dict[str, Event] = {}
        #: bytes of workflow data staged on the manager's disk
        self.manager_bytes = 0.0

    def extra_gauges(self):
        return {
            "manager_bytes": lambda: self.manager_bytes,
            "manager_inflight_fetches":
                lambda: float(len(self._manager_inflight)),
        }

    # -- staging: bounce dataset files off the manager ----------------------
    def _fetch_to_worker(self, name: str, agent: WorkerAgent,
                         task_id: Optional[str] = None):
        file = self.workflow.files[name]
        if (file.kind == FileKind.INPUT
                and MANAGER_NODE not in self.replicas.locations(name)):
            yield from self._stage_to_manager(name)
        held = yield from super()._fetch_to_worker(name, agent,
                                                   task_id=task_id)
        return held

    def _stage_to_manager(self, name: str):
        """Read a dataset file from shared storage onto the manager,
        deduplicating concurrent requests for the same file.

        The staging task may be interrupted mid-read (its worker was
        preempted), so the dedup event is settled in a ``finally`` and
        waiters re-check on wake-up: whoever finds the file still
        missing becomes the next stager instead of waiting forever on
        an event that would never fire.
        """
        while MANAGER_NODE not in self.replicas.locations(name):
            pending = self._manager_inflight.get(name)
            if pending is not None:
                yield pending
                continue
            pending = self.sim.event()
            self._manager_inflight[name] = pending
            size = self.workflow.files[name].size
            try:
                yield self.storage.read(MANAGER_NODE, size)
                self.replicas.add(name, MANAGER_NODE)
                self.manager_bytes += size
                # record the manager's disk as a cache node, matching
                # the TaskVineManager result-retrieval path (Fig 7)
                self.trace.cache(MANAGER_NODE, self.sim.now, size,
                                 name=name)
            finally:
                self._manager_inflight.pop(name, None)
                if not pending.triggered:
                    pending.succeed()

    # -- source preference: the manager, always -------------------------------
    def _transfer_sources(self, name: str, agent: WorkerAgent
                          ) -> List[int]:
        locations = self.replicas.locations(name)
        ordered: List[int] = []
        if MANAGER_NODE in locations:
            ordered.append(MANAGER_NODE)
        if self.storage.node_id in locations:
            ordered.append(self.storage.node_id)
        # peers only as a last resort (not a Work Queue mechanism, but
        # prevents artificial deadlock if the manager copy is racing)
        ordered.extend(n for n in locations
                       if n in self.agents and self.agents[n].alive
                       and n != agent.node_id)
        return ordered
