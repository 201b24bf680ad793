"""The injector: executes a scenario's timeline on the sim clock.

One :class:`Injector` attaches to a live scheduler (any
:class:`~repro.core.manager.TaskVineManager` subclass) and runs as a
simulation process alongside it, firing each injection at its resolved
time through hooks into the simulation substrate:

* cluster  -- :meth:`~repro.sim.cluster.Cluster.preempt` (storms,
  blackouts), ``provision`` (rejoins), ``slow_node`` (stragglers)
* network  -- ``degrade``/``restore`` and ``partition``/``heal``
* storage  -- :meth:`~repro.sim.storage.SharedFilesystem.set_brownout`
* replicas -- at-rest cache drops via ``WorkerAgent.remove(notify=
  True)``, surfacing as ``REPLICA_LOST`` + lineage recovery

Every firing is appended to :attr:`Injector.fired` and emitted on the
scheduler's event bus as an ``INJECT`` (or ``PARTITION``) record, so
the transaction log carries the full fault history next to the
lifecycle edges the scorecard consumes.

Victim selection draws from ``RngRegistry(scenario.seed)`` -- a
registry independent of the workload's -- over deterministically
ordered candidate lists, so a scenario is exactly reproducible and
never perturbs the run's own random streams.

The manager is treated as a control plane that survives every
injection (node 0 is never a victim), matching the paper's setup where
the TaskVine manager runs on a dedicated head node.  In the default
"queue" storage model a partition does not block shared-filesystem
reads (they are service times, not flows); use ``model="network"``
storage when that matters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.files import FileKind
from ..obs import events as obs
from ..sim.rng import RngRegistry
from .scenario import Injection, Scenario

__all__ = ["Injector", "estimate_horizon"]


def estimate_horizon(workflow, total_cores: int,
                     slack: float = 3.0) -> float:
    """Crude fault-free-makespan estimate for resolving relative
    injection times when no measured baseline is available: ideal
    compute time on the given cores, padded by ``slack`` for staging
    and overheads."""
    total_compute = sum(t.compute for t in workflow.tasks.values())
    ideal = total_compute / max(1, total_cores)
    return max(30.0, ideal * slack)


class Injector:
    """Drives one scenario against one live scheduler run."""

    def __init__(self, manager, scenario: Scenario, horizon: float):
        self.manager = manager
        self.sim = manager.sim
        self.cluster = manager.cluster
        self.network = manager.cluster.network
        self.storage = manager.storage
        self.scenario = scenario
        self.horizon = horizon
        self.bus = manager.bus
        self.rng = RngRegistry(scenario.seed)
        #: chronological record of every effect applied:
        #: dicts with at least {"t", "kind"}.
        self.fired: List[Dict[str, object]] = []
        self._proc = None

    def start(self):
        """Begin executing the timeline; returns the driver process."""
        self._proc = self.sim.process(
            self._run(), name=f"chaos-{self.scenario.name}")
        return self._proc

    # -- timeline driver ----------------------------------------------------
    def _run(self):
        for index, (t, injection) in enumerate(
                self.scenario.timeline(self.horizon)):
            if t > self.sim.now:
                yield self.sim.timeout(t - self.sim.now)
            self._fire(index, injection)
        # windowed effects run in their own processes; nothing to join
        return len(self.fired)

    def _fire(self, index: int, injection: Injection) -> None:
        handler = getattr(
            self, "_inject_" + injection.kind.replace("-", "_"), None)
        if handler is None:
            raise ValueError(
                f"no injector for kind {injection.kind!r}")
        handler(index, injection)

    def _record(self, kind: str, event_type: str = obs.INJECT,
                **details) -> None:
        now = self.sim.now
        entry = {"t": now, "kind": kind}
        entry.update(details)
        self.fired.append(entry)
        if self.bus.enabled:
            self.bus.emit(event_type, now, kind=kind,
                          scenario=self.scenario.name, **details)

    def _alive_workers(self) -> list:
        """Deterministically ordered victims pool (never the manager)."""
        return [node for node in self.cluster.workers.values()
                if node.alive]

    def _sample(self, stream: str, pool: list, count: int) -> list:
        count = max(0, min(count, len(pool)))
        if count == 0:
            return []
        rng = self.rng.stream(stream)
        picks = rng.choice(len(pool), size=count, replace=False)
        return [pool[i] for i in sorted(int(i) for i in picks)]

    # -- injection handlers -------------------------------------------------
    def _inject_preemption_storm(self, index: int, inj) -> None:
        pool = self._alive_workers()
        victims = self._sample(f"storm-{index}", pool,
                               int(round(inj.fraction * len(pool))))
        window = inj.duration * self.horizon
        rng = self.rng.stream(f"storm-times-{index}")
        offsets = sorted(float(x) for x in
                         rng.uniform(0.0, max(window, 1e-9),
                                     size=len(victims)))
        self._record("preemption-storm", victims=len(victims),
                     nodes=[n.node_id for n in victims],
                     window_s=window)
        self.sim.process(self._storm_proc(victims, offsets),
                         name=f"chaos-storm-{index}")

    def _storm_proc(self, victims, offsets):
        start = self.sim.now
        for node, offset in zip(victims, offsets):
            wait = start + offset - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            if node.alive:
                self.cluster.preempt(node)

    def _inject_blackout(self, index: int, inj) -> None:
        pool = self._alive_workers()
        victims = self._sample(f"blackout-{index}", pool,
                               int(round(inj.fraction * len(pool))))
        if not victims:
            return
        spec = victims[0].spec
        self._record("blackout", victims=len(victims),
                     nodes=[n.node_id for n in victims],
                     rejoin_after_s=inj.duration * self.horizon)
        for node in victims:
            if node.alive:
                self.cluster.preempt(node, reason="blackout")
        self.sim.process(
            self._rejoin_proc(len(victims), spec,
                              inj.duration * self.horizon),
            name=f"chaos-rejoin-{index}")

    def _rejoin_proc(self, count: int, spec, delay: float):
        yield self.sim.timeout(delay)
        self.cluster.provision(count, spec)
        self._record("rejoin", workers=count)

    def _inject_network_degrade(self, index: int, inj) -> None:
        pool = self._alive_workers()
        victims = self._sample(f"degrade-{index}", pool,
                               int(round(inj.fraction * len(pool))))
        for node in victims:
            self.network.degrade(node.node_id, inj.factor)
        self._record("network-degrade", victims=len(victims),
                     nodes=[n.node_id for n in victims],
                     factor=inj.factor,
                     duration_s=inj.duration * self.horizon)
        self.sim.process(
            self._restore_proc([n.node_id for n in victims],
                               inj.duration * self.horizon),
            name=f"chaos-restore-{index}")

    def _restore_proc(self, node_ids, delay: float):
        yield self.sim.timeout(delay)
        for node_id in node_ids:
            self.network.restore(node_id)
        self._record("network-restore", victims=len(node_ids))

    def _inject_partition(self, index: int, inj) -> None:
        pool = self._alive_workers()
        victims = self._sample(f"partition-{index}", pool,
                               int(round(inj.fraction * len(pool))))
        group = {node.node_id for node in victims}
        if not group:
            return
        self.network.partition(group)
        self._record("partition", event_type=obs.PARTITION,
                     phase="start", isolated=len(group),
                     nodes=sorted(group))
        self.sim.process(
            self._heal_proc(inj.duration * self.horizon),
            name=f"chaos-heal-{index}")

    def _heal_proc(self, delay: float):
        yield self.sim.timeout(delay)
        self.network.heal()
        self._record("partition", event_type=obs.PARTITION,
                     phase="heal", isolated=0)

    def _inject_storage_brownout(self, index: int, inj) -> None:
        self.storage.set_brownout(latency_factor=inj.latency_factor,
                                  bw_factor=inj.bw_factor)
        self._record("storage-brownout",
                     latency_factor=inj.latency_factor,
                     bw_factor=inj.bw_factor,
                     duration_s=inj.duration * self.horizon)
        self.sim.process(
            self._brownout_end_proc(inj.duration * self.horizon),
            name=f"chaos-brownout-{index}")

    def _brownout_end_proc(self, delay: float):
        yield self.sim.timeout(delay)
        self.storage.set_brownout()
        self._record("storage-recover")

    def _inject_replica_corruption(self, index: int, inj) -> None:
        # At-rest intermediate replicas whose consumers are still
        # pending: the "hot" data whose loss actually hurts.
        manager = self.manager
        candidates = []
        for agent in manager.agents.values():
            if not agent.alive:
                continue
            for name, entry in agent.cache.items():
                file = manager.workflow.files.get(name)
                if (file is None or entry.pins > 0
                        or file.kind != FileKind.INTERMEDIATE):
                    continue
                pending = any(c not in manager.done for c in
                              manager.workflow.consumers.get(name, ()))
                if pending:
                    candidates.append((name, agent))
        candidates.sort(key=lambda pair: (pair[0], pair[1].node_id))
        victims = self._sample(f"corrupt-{index}", candidates,
                               inj.count)
        for name, agent in victims:
            agent.remove(name, notify=True)
        self._record("replica-corruption", dropped=len(victims),
                     files=sorted({name for name, _ in victims}))

    def _inject_straggler(self, index: int, inj) -> None:
        pool = self._alive_workers()
        victims = self._sample(f"straggler-{index}", pool, inj.count)
        for node in victims:
            self.cluster.slow_node(node, inj.slowdown)
        self._record("straggler", victims=len(victims),
                     nodes=[n.node_id for n in victims],
                     slowdown=inj.slowdown)
