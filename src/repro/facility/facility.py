"""The multi-tenant facility front-end.

One :class:`Facility` owns one shared :class:`TaskVineManager` held
open over sim time.  Tenants submit :class:`SimWorkflow` DAGs as they
"arrive"; admission control answers with typed backpressure
(:class:`~repro.facility.tenant.Admitted` / ``Queued`` / ``Rejected``),
admitted DAGs merge into the shared
:class:`~repro.facility.composite.CompositeWorkflow`, and the chosen
fair-share discipline (:mod:`repro.facility.fairshare`) orders tenants
at the shared ready queue.  Workers are shared too: because the
composite exposes content-equivalents, the manager's placement
(``TaskVineManager._pick_worker``) steers a tenant's tasks to workers
already holding *content-equivalent* bytes -- even when those bytes
were staged under another tenant's namespace -- so the facility stages
each distinct chunk roughly once, not once per tenant.

Everything is observable: SUBMIT/ADMIT/SUBMISSION_DONE events plus the
tenant field the manager stamps on task lifecycle edges feed the
per-tenant analyzer section (``python -m repro.obs``) and the fairness
report (:mod:`repro.facility.report`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from ..core.config import SchedulerConfig
from ..core.manager import RunResult, TaskVineManager
from ..core.spec import SimTask, SimWorkflow
from ..obs import TransactionLog
from ..obs import events as obs
from ..obs.observers import RunObservers
from .composite import CompositeWorkflow
from .fairshare import make_discipline
from .tenant import (
    Admitted,
    Queued,
    Rejected,
    Tenant,
    TenantAccounts,
)

__all__ = [
    "Facility",
    "FacilityResult",
    "Submission",
    "TenantStats",
]

Decision = Union[Admitted, Queued, Rejected]


@dataclass
class Submission:
    """One tenant DAG moving through the facility."""

    sid: str
    tenant: str
    tag: str
    n_tasks: int
    t_submit: float
    workflow: Optional[SimWorkflow] = None
    t_admit: Optional[float] = None
    t_done: Optional[float] = None
    rejected_reason: Optional[str] = None
    pending: Set[str] = field(default_factory=set)

    @property
    def admission_wait(self) -> Optional[float]:
        if self.t_admit is None:
            return None
        return self.t_admit - self.t_submit

    @property
    def turnaround(self) -> Optional[float]:
        if self.t_done is None:
            return None
        return self.t_done - self.t_submit


@dataclass
class TenantStats:
    """Aggregated per-tenant service quality for one facility run."""

    tenant: str
    weight: float = 1.0
    submitted: int = 0
    admitted: int = 0
    queued: int = 0
    rejected: int = 0
    tasks_done: int = 0
    admission_waits: List[float] = field(default_factory=list)
    dispatch_waits: List[float] = field(default_factory=list)
    turnarounds: List[float] = field(default_factory=list)
    #: staging satisfied by a peer tenant's content-equivalent replica
    peer_cache_hits: int = 0
    peer_cache_bytes: float = 0.0
    #: bytes actually transferred (non-cached STAGE_IN) for this tenant
    staged_bytes: float = 0.0


@dataclass
class FacilityResult:
    """Outcome of one facility run."""

    run: RunResult
    discipline: str
    submissions: Dict[str, Submission]
    decisions: List[Decision]
    tenant_stats: Dict[str, TenantStats]

    @property
    def completed(self) -> bool:
        return self.run.completed

    @property
    def slo_monitor(self):
        return self.run.slo_monitor

    def staged_bytes_total(self) -> float:
        return sum(s.staged_bytes for s in self.tenant_stats.values())

    def peer_cache_bytes_total(self) -> float:
        return sum(s.peer_cache_bytes
                   for s in self.tenant_stats.values())


class Facility:
    """Front-end multiplexing tenant submissions onto one manager."""

    def __init__(self, env, tenants: Sequence[Tenant],
                 discipline: str = "wfs",
                 config: Optional[SchedulerConfig] = None,
                 txlog_path: Optional[str] = None,
                 txlog_meta: Optional[dict] = None,
                 txlog: Optional[TransactionLog] = None,
                 slo_policy=None,
                 **discipline_kwargs):
        if not tenants:
            raise ValueError("a facility needs at least one tenant")
        self.env = env
        self.sim = env.sim
        self.tenants: Dict[str, Tenant] = {}
        for tenant in tenants:
            if tenant.name in self.tenants:
                raise ValueError(f"duplicate tenant {tenant.name!r}")
            self.tenants[tenant.name] = tenant

        self.composite = CompositeWorkflow()
        self.accounts = TenantAccounts(
            self.tenants, self.composite.tenant_of,
            self.composite.tenant_of_file)
        self.discipline_name = discipline
        self.discipline = make_discipline(discipline, self.accounts,
                                          **discipline_kwargs)

        if txlog is None and txlog_path is not None:
            meta = {"scheduler": "taskvine",
                    "facility": True,
                    "discipline": discipline,
                    "n_workers": env.n_workers,
                    "cores_per_worker": env.cores_per_worker,
                    "tenants": sorted(self.tenants)}
            meta.update(txlog_meta or {})
            txlog = TransactionLog(txlog_path, meta=meta)
        self.observers = RunObservers(env, txlog=txlog,
                                      slo_policy=slo_policy)
        # the facility is always observable: cache accounting and the
        # fairness report both ride the event bus
        self.bus = bus = self.observers.bus
        bus.subscribe((obs.CACHE_PUT, obs.CACHE_EVICT),
                      self.accounts.on_cache_event)

        self.manager = TaskVineManager(
            env.sim, env.cluster, env.storage, self.composite,
            config=config, trace=env.trace,
            ready_queue=self.discipline)
        self.manager.hold_open = True
        self.manager.on_task_done = self._task_done

        self.submissions: Dict[str, Submission] = {}
        self.decisions: List[Decision] = []
        self.tenant_stats: Dict[str, TenantStats] = {
            name: TenantStats(tenant=name, weight=t.weight)
            for name, t in self.tenants.items()}
        self._backlog: Dict[str, deque] = {
            name: deque() for name in self.tenants}
        self._seq: Dict[str, int] = {name: 0 for name in self.tenants}
        self._arrivals_done = False

        bus.subscribe(obs.DISPATCH, self._on_dispatch)
        bus.subscribe(obs.STAGE_IN, self._on_stage_in)

    # -- admission ----------------------------------------------------------
    def submit(self, tenant_name: str, workflow: SimWorkflow,
               tag: str = "") -> Decision:
        """Submit one DAG; returns a typed admission decision."""
        now = self.sim.now
        if tenant_name not in self.tenants:
            decision = Rejected(None, tenant_name, now,
                                "unknown tenant")
            self.decisions.append(decision)
            return decision
        seq = self._seq[tenant_name]
        self._seq[tenant_name] = seq + 1
        sid = f"{tenant_name}.{seq}"
        sub = Submission(sid=sid, tenant=tenant_name, tag=tag,
                         n_tasks=len(workflow.tasks), t_submit=now,
                         workflow=workflow)
        self.submissions[sid] = sub
        stats = self.tenant_stats[tenant_name]
        stats.submitted += 1
        self.bus.emit(obs.SUBMIT, now, tenant=tenant_name,
                      submission=sid, tasks=sub.n_tasks, tag=tag)

        quota = self.tenants[tenant_name].quota
        reason = None
        if (quota.inflight_tasks is not None
                and sub.n_tasks > quota.inflight_tasks):
            reason = (f"submission needs {sub.n_tasks} inflight tasks; "
                      f"quota is {quota.inflight_tasks}")
        elif (quota.cache_bytes is not None
              and workflow.total_generated_bytes() > quota.cache_bytes):
            reason = (f"submission would retain "
                      f"{workflow.total_generated_bytes():.0f} cache "
                      f"bytes; quota is {quota.cache_bytes:.0f}")
        if reason is not None:
            return self._reject(sub, reason)

        if not self._fits_now(sub):
            if len(self._backlog[tenant_name]) >= quota.max_queued:
                return self._reject(sub, "admission backlog full")
            self._backlog[tenant_name].append(sid)
            decision = Queued(sid, tenant_name, now,
                              position=len(self._backlog[tenant_name]))
            self.decisions.append(decision)
            stats.queued += 1
            self.bus.emit(obs.ADMIT, now, tenant=tenant_name,
                          submission=sid, decision="queued",
                          position=decision.position)
            return decision

        self._admit(sub)
        decision = Admitted(sid, tenant_name, now)
        self.decisions.append(decision)
        return decision

    def _reject(self, sub: Submission, reason: str) -> Rejected:
        sub.rejected_reason = reason
        sub.workflow = None
        stats = self.tenant_stats[sub.tenant]
        stats.rejected += 1
        decision = Rejected(sub.sid, sub.tenant, self.sim.now, reason)
        self.decisions.append(decision)
        self.bus.emit(obs.ADMIT, self.sim.now, tenant=sub.tenant,
                      submission=sub.sid, decision="rejected",
                      reason=reason)
        return decision

    def _fits_now(self, sub: Submission) -> bool:
        quota = self.tenants[sub.tenant].quota
        if quota.inflight_tasks is None:
            return True
        active = sum(len(s.pending) for s in self.submissions.values()
                     if s.tenant == sub.tenant and s.t_admit is not None
                     and s.t_done is None)
        return active + sub.n_tasks <= quota.inflight_tasks

    def _admit(self, sub: Submission) -> None:
        now = self.sim.now
        task_ids, file_names = self.composite.extend(
            sub.tenant, sub.sid, sub.workflow)
        sub.workflow = None  # merged; drop the standalone copy
        sub.pending = set(task_ids)
        sub.t_admit = now
        stats = self.tenant_stats[sub.tenant]
        stats.admitted += 1
        stats.admission_waits.append(sub.admission_wait)
        self.bus.emit(obs.ADMIT, now, tenant=sub.tenant,
                      submission=sub.sid, decision="admitted",
                      waited=sub.admission_wait)
        self.manager.submission_added(task_ids, file_names)

    def _drain_backlog(self, tenant_name: str) -> None:
        backlog = self._backlog[tenant_name]
        while backlog:
            sub = self.submissions[backlog[0]]
            if not self._fits_now(sub):
                return
            backlog.popleft()
            self._admit(sub)

    # -- completion tracking ------------------------------------------------
    def _task_done(self, task: SimTask) -> None:
        sid = self.composite.submission_of(task.id)
        sub = self.submissions[sid]
        sub.pending.discard(task.id)
        stats = self.tenant_stats[sub.tenant]
        stats.tasks_done += 1
        if sub.pending or sub.t_done is not None:
            return
        sub.t_done = self.sim.now
        stats.turnarounds.append(sub.turnaround)
        self.bus.emit(obs.SUBMISSION_DONE, self.sim.now,
                      tenant=sub.tenant, submission=sid,
                      tasks=sub.n_tasks, turnaround=sub.turnaround,
                      waited=sub.admission_wait)
        self._drain_backlog(sub.tenant)
        self._maybe_close()

    def _maybe_close(self) -> None:
        if not self._arrivals_done:
            return
        if any(self._backlog.values()):
            return
        if any(s.t_admit is not None and s.t_done is None
               for s in self.submissions.values()):
            return
        self.manager.close_submissions()

    # -- per-tenant observability -------------------------------------------
    def _on_dispatch(self, type: str, t: float, fields: dict) -> None:
        tenant = fields.get("tenant")
        if tenant in self.tenant_stats:
            self.tenant_stats[tenant].dispatch_waits.append(
                fields.get("waited", 0.0))

    def _on_stage_in(self, type: str, t: float, fields: dict) -> None:
        tenant = fields.get("tenant")
        if tenant not in self.tenant_stats:
            return
        stats = self.tenant_stats[tenant]
        nbytes = fields.get("nbytes", 0.0)
        if fields.get("cached"):
            peer = fields.get("peer_tenant")
            if peer is not None and peer != tenant:
                stats.peer_cache_hits += 1
                stats.peer_cache_bytes += nbytes
        else:
            stats.staged_bytes += nbytes

    # -- service hooks (repro.serve) ----------------------------------------
    def begin_service(self) -> None:
        """Start the manager without driving the clock.

        The serve front-end then pumps the simulation itself,
        interleaving :meth:`submit` calls with heap slices -- the
        always-on counterpart of :meth:`run`'s arrival replay.
        """
        self.manager.start()

    def end_of_arrivals(self) -> None:
        """No submission will ever arrive again (service shutdown):
        once the backlog drains, the manager may complete."""
        self._arrivals_done = True
        self._maybe_close()

    def restore_submission(self, sid: str, tenant: str, tag: str,
                           t_submit: float, workflow: SimWorkflow,
                           done_tasks: Sequence[str] = (),
                           t_admit: Optional[float] = None,
                           t_done: Optional[float] = None,
                           queued: bool = False):
        """Re-admit a checkpointed submission under its original id.

        Rebuilds the composite namespace and per-tenant bookkeeping
        exactly as the original admission did, minus the work already
        committed (``done_tasks``, physical ids).  Does *not* notify
        the manager: the restore path primes committed state first and
        then calls ``manager.submission_added`` once for all restored
        submissions.  ``queued`` re-enters the submission into the
        tenant's admission backlog instead (it was waiting at the
        checkpoint); the normal drain path admits it later.  Returns
        ``(task_ids, file_names)``, empty for queued submissions.
        """
        if tenant not in self.tenants:
            raise ValueError(f"unknown tenant {tenant!r}")
        seq = int(sid.rsplit(".", 1)[-1])
        if seq >= self._seq[tenant]:
            self._seq[tenant] = seq + 1
        stats = self.tenant_stats[tenant]
        if queued:
            sub = Submission(sid=sid, tenant=tenant, tag=tag,
                             n_tasks=len(workflow.tasks),
                             t_submit=t_submit, workflow=workflow)
            self.submissions[sid] = sub
            self._backlog[tenant].append(sid)
            stats.submitted += 1
            stats.queued += 1
            return [], []
        task_ids, file_names = self.composite.extend(
            tenant, sid, workflow)
        done = set(done_tasks)
        sub = Submission(sid=sid, tenant=tenant, tag=tag,
                         n_tasks=len(task_ids), t_submit=t_submit,
                         t_admit=(t_submit if t_admit is None
                                  else t_admit),
                         t_done=t_done,
                         pending=set(task_ids) - done)
        self.submissions[sid] = sub
        stats.submitted += 1
        stats.admitted += 1
        stats.admission_waits.append(sub.admission_wait)
        stats.tasks_done += len(done)
        if t_done is not None:
            stats.turnarounds.append(sub.turnaround)
        return task_ids, file_names

    def finalize(self, run: RunResult) -> FacilityResult:
        """Close the observers and assemble the result."""
        return FacilityResult(
            run=self.observers.close(run),
            discipline=self.discipline_name,
            submissions=self.submissions, decisions=self.decisions,
            tenant_stats=self.tenant_stats)

    def abort(self, exc: BaseException) -> None:
        """Close observers after a failed drive (txlog marked failed)."""
        self.observers.abort(exc)

    # -- driving ------------------------------------------------------------
    def run(self, arrivals, limit: float = 5e5,
            chaos=None,
            chaos_horizon: Optional[float] = None) -> FacilityResult:
        """Run an arrival trace to completion.

        ``arrivals`` is an iterable of objects with ``t`` (sim seconds),
        ``tenant``, ``workflow`` and ``tag`` attributes -- see
        :class:`repro.bench.workloads.Arrival`.  ``chaos`` optionally
        injects a :class:`repro.chaos.scenario.Scenario` into the
        loaded facility.
        """
        arrivals = sorted(arrivals, key=lambda a: (a.t, a.tenant))
        self.sim.process(self._arrival_proc(arrivals),
                         name="facility-arrivals")
        self.observers.start(
            self.manager, chaos=chaos, horizon=chaos_horizon,
            arrivals=[(a.t, a.workflow) for a in arrivals])
        try:
            run = self.manager.run(limit=limit)
        except Exception as exc:
            self.abort(exc)
            raise
        return self.finalize(run)

    def _arrival_proc(self, arrivals):
        for arrival in arrivals:
            if arrival.t > self.sim.now:
                yield self.sim.timeout(arrival.t - self.sim.now)
            self.submit(arrival.tenant, arrival.workflow,
                        tag=getattr(arrival, "tag", ""))
        self._arrivals_done = True
        self._maybe_close()
