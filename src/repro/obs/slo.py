"""Declarative SLOs with burn-rate alerting on the sim clock.

Near-interactive execution is a *promise* -- "your 2 TB DV3 skim
finishes inside the coffee break" -- and this module makes the
promise checkable while the run can still be saved.  An
:class:`SLOPolicy` is a list of declarative rules; an
:class:`SLOMonitor` subscribes to the event bus (typed
subscriptions only, so it never hears its own alerts), tracks each
rule's state in O(rules + tenants) memory, and emits an
``SLO_ALERT`` event whenever a rule's status *changes*
(edge-triggered: ok -> burn -> violated, and back).  Alerts land on
the bus like any other lifecycle edge, so the transaction log stamps
them, the live dashboard shows them, and the chaos scorecard grades
them.

Rule kinds (``threshold`` semantics per kind):

* ``makespan_deadline`` -- the run must finish within ``threshold``
  seconds.  Burns when the projected makespan (elapsed / fraction of
  tasks done) exceeds the deadline with at least 5% progress;
  violated the moment the clock passes the deadline unfinished.
* ``tenant_p95_slowdown`` -- a tenant's p95 submission turnaround
  must stay within ``threshold`` x its baseline (``baseline_s`` if
  given, else the tenant's fastest observed turnaround).
* ``cache_hit_floor`` -- the fraction of STAGE_IN edges served from
  cache must stay at or above ``threshold`` after ``warmup``
  stage-ins.
* ``queue_wait_ceiling`` -- at most ``budget_fraction`` of
  dispatches may wait longer than ``threshold`` seconds in the ready
  queue.
* ``worker_loss_budget`` -- at most ``threshold`` workers may be
  preempted or lost; burns at half the budget.

Policies are plain dicts / JSON files::

    {"rules": [
      {"name": "skim-deadline", "kind": "makespan_deadline",
       "threshold": 900.0},
      {"name": "fair-p95", "kind": "tenant_p95_slowdown",
       "threshold": 4.0}
    ]}

See DESIGN.md ("Live pipeline") for the full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from . import events as ev
from .txlog import records

__all__ = ["SLORule", "SLOPolicy", "SLOMonitor", "NULL_SLO_MONITOR",
           "NullSLOMonitor", "RULE_KINDS", "evaluate",
           "render_slo_report"]

#: rule kinds the monitor understands, and the bus events they watch
RULE_KINDS = {
    "makespan_deadline": (ev.TASK_DONE,),
    "tenant_p95_slowdown": (ev.SUBMISSION_DONE,),
    "cache_hit_floor": (ev.STAGE_IN,),
    "queue_wait_ceiling": (ev.DISPATCH,),
    "worker_loss_budget": (ev.WORKER_PREEMPT, ev.WORKER_LEAVE),
}

OK, BURN, VIOLATED = "ok", "burn", "violated"


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (kept local: obs must not import the
    facility package)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class SLORule:
    """One declarative service-level objective."""

    name: str
    kind: str
    threshold: float
    #: restrict a tenant-scoped rule to one tenant (None = every
    #: tenant seen, each tracked separately)
    tenant: Optional[str] = None
    #: explicit baseline for slowdown rules (else: best observed)
    baseline_s: Optional[float] = None
    #: stage-ins to ignore before judging the cache-hit floor
    warmup: int = 50
    #: tolerated fraction of slow dispatches (queue_wait_ceiling)
    budget_fraction: float = 0.05
    #: burn when the tracked value crosses this fraction of the
    #: violation point (projection ratio, budget share, ...)
    burn_threshold: float = 1.0

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; have "
                             f"{sorted(RULE_KINDS)}")

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind,
               "threshold": self.threshold}
        if self.tenant is not None:
            out["tenant"] = self.tenant
        if self.baseline_s is not None:
            out["baseline_s"] = self.baseline_s
        return out


@dataclass
class SLOPolicy:
    """A named bundle of :class:`SLORule`."""

    rules: List[SLORule] = field(default_factory=list)
    name: str = "slo"

    @classmethod
    def from_dict(cls, data: dict) -> "SLOPolicy":
        rules = [rule if isinstance(rule, SLORule) else SLORule(**rule)
                 for rule in data.get("rules", [])]
        return cls(rules=rules, name=data.get("name", "slo"))

    @classmethod
    def from_file(cls, path: str) -> "SLOPolicy":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"name": self.name,
                "rules": [r.to_dict() for r in self.rules]}

    def __bool__(self) -> bool:
        return bool(self.rules)


class _RuleState:
    """Mutable per-rule tracking (per-tenant where applicable)."""

    __slots__ = ("rule", "status", "tenant_status", "turnarounds",
                 "stage_ins", "cache_hits", "dispatches", "breaches",
                 "losses", "tasks_done")

    def __init__(self, rule: SLORule):
        self.rule = rule
        self.status = OK
        self.tenant_status: Dict[str, str] = {}
        self.turnarounds: Dict[str, List[float]] = {}
        self.stage_ins = 0
        self.cache_hits = 0
        self.dispatches = 0
        self.breaches = 0
        self.losses = 0
        self.tasks_done = 0


class NullSLOMonitor:
    """Disabled monitoring: no state, no allocation, no-ops only."""

    __slots__ = ()
    enabled = False
    alerts: tuple = ()

    def on_event(self, type: str, t: float, fields: dict) -> None:
        pass

    def prime(self, tasks_done: int, t: float = 0.0) -> None:
        pass

    def finish(self, t: Optional[float] = None,
               makespan: Optional[float] = None) -> list:
        return []

    def states(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullSLOMonitor>"


#: shared disabled monitor; safe because it holds no state.
NULL_SLO_MONITOR = NullSLOMonitor()


class SLOMonitor:
    """Evaluates an :class:`SLOPolicy` over a live event stream.

    Use :meth:`install` so a disabled bus (or an empty policy) costs
    nothing.  The monitor subscribes *typed* -- only to the event
    kinds its rules actually watch -- which also guarantees it never
    consumes the ``SLO_ALERT`` events it emits.
    """

    enabled = True

    def __init__(self, policy: SLOPolicy, bus=None,
                 expected_tasks: Optional[int] = None):
        self.policy = policy
        self.bus = bus
        self.expected_tasks = expected_tasks
        self.alerts: List[dict] = []
        self.last_t = 0.0
        self.finished = False
        self._states = [_RuleState(rule) for rule in policy.rules]
        self._by_event: Dict[str, List[_RuleState]] = {}
        for state in self._states:
            for type_ in RULE_KINDS[state.rule.kind]:
                self._by_event.setdefault(type_, []).append(state)

    @classmethod
    def install(cls, policy, bus,
                expected_tasks: Optional[int] = None
                ) -> Union["SLOMonitor", NullSLOMonitor]:
        """Subscribe a monitor to ``bus``; the shared
        :data:`NULL_SLO_MONITOR` when the bus is off or the policy
        is empty."""
        if (bus is None or not getattr(bus, "enabled", False)
                or policy is None or not policy):
            return NULL_SLO_MONITOR
        monitor = cls(policy, bus=bus, expected_tasks=expected_tasks)
        bus.subscribe(sorted(monitor._by_event), monitor.on_event)
        return monitor

    # -- feeding -------------------------------------------------------------
    def on_event(self, type: str, t: float, fields: dict) -> None:
        if t > self.last_t:
            self.last_t = t
        for state in self._by_event.get(type, ()):
            self._CHECKS[state.rule.kind](self, state, t, fields)

    def on_record(self, record: dict) -> None:
        self.on_event(record.get("type", "?"), record.get("t", 0.0),
                      record)

    def replay(self, record: dict) -> None:
        """Fold one transaction-log record (:func:`evaluate` and
        ``obs watch --slo``).

        The RUN header sets ``expected_tasks``.  Stamped SLO_ALERT
        records are skipped -- the monitor re-derives them -- and so
        is the RUN_END footer: its makespan is for :meth:`finish`.
        """
        type_ = record.get("type")
        if type_ == ev.RUN:
            self.expected_tasks = record.get("tasks")
        elif type_ != ev.SLO_ALERT and type_ != ev.RUN_END:
            self.on_record(record)

    def prime(self, tasks_done: int, t: float = 0.0) -> None:
        """Seed progress committed before this monitor attached.

        A restored service (:mod:`repro.serve`) resumes mid-campaign:
        tasks finished in earlier epochs never cross this epoch's bus,
        so without priming a ``makespan_deadline`` projection would
        divide elapsed time by near-zero progress and cry wolf.
        """
        if t > self.last_t:
            self.last_t = t
        for state in self._states:
            if state.rule.kind == "makespan_deadline":
                state.tasks_done += tasks_done

    # -- per-kind checks -----------------------------------------------------
    def _check_makespan(self, state: _RuleState, t: float,
                        fields: dict) -> None:
        state.tasks_done += 1
        rule = state.rule
        deadline = rule.threshold
        if t > deadline:
            self._transition(state, VIOLATED, t, value=t,
                             burn_rate=t / deadline)
            return
        total = self.expected_tasks
        if not total:
            return
        frac = state.tasks_done / total
        if frac < 0.05 or frac >= 1.0:
            return
        projected = t / frac
        ratio = projected / deadline
        if ratio > rule.burn_threshold:
            self._transition(state, BURN, t, value=projected,
                             burn_rate=ratio)
        elif state.status == BURN:
            self._transition(state, OK, t, value=projected,
                             burn_rate=ratio)

    def _check_slowdown(self, state: _RuleState, t: float,
                        fields: dict) -> None:
        rule = state.rule
        tenant = fields.get("tenant")
        if tenant is None or (rule.tenant is not None
                              and tenant != rule.tenant):
            return
        turns = state.turnarounds.setdefault(tenant, [])
        turns.append(fields.get("turnaround", 0.0))
        if len(turns) < 3:        # p95 of 1-2 samples is noise
            return
        baseline = rule.baseline_s or min(turns)
        if baseline <= 0:
            return
        slowdown = _percentile(turns, 95) / baseline
        if slowdown > rule.threshold:
            status = VIOLATED
        elif slowdown > rule.threshold * 0.75:
            status = BURN
        else:
            status = OK
        self._transition(state, status, t, tenant=tenant,
                         value=slowdown,
                         burn_rate=slowdown / rule.threshold)

    def _check_cache(self, state: _RuleState, t: float,
                     fields: dict) -> None:
        state.stage_ins += 1
        if fields.get("cached"):
            state.cache_hits += 1
        rule = state.rule
        if state.stage_ins <= rule.warmup:
            return
        ratio = state.cache_hits / state.stage_ins
        if ratio < rule.threshold:
            status = BURN       # recoverable until the run ends
        elif state.status == BURN:
            status = OK
        else:
            return
        self._transition(state, status, t, value=ratio,
                         burn_rate=(1.0 - ratio / rule.threshold
                                    if rule.threshold else 0.0))

    def _check_queue_wait(self, state: _RuleState, t: float,
                          fields: dict) -> None:
        state.dispatches += 1
        rule = state.rule
        if fields.get("waited", 0.0) > rule.threshold:
            state.breaches += 1
        if state.dispatches < 20:      # let the ramp-up settle
            return
        breach_fraction = state.breaches / state.dispatches
        burn_rate = (breach_fraction / rule.budget_fraction
                     if rule.budget_fraction else float("inf"))
        if breach_fraction > rule.budget_fraction:
            status = VIOLATED
        elif burn_rate >= 0.5:
            status = BURN
        else:
            status = OK
        self._transition(state, status, t, value=breach_fraction,
                         burn_rate=burn_rate)

    def _check_worker_loss(self, state: _RuleState, t: float,
                           fields: dict) -> None:
        state.losses += 1
        rule = state.rule
        burn_rate = (state.losses / rule.threshold
                     if rule.threshold else float("inf"))
        if state.losses > rule.threshold:
            status = VIOLATED
        elif burn_rate >= 0.5:
            status = BURN
        else:
            status = OK
        self._transition(state, status, t, value=float(state.losses),
                         burn_rate=burn_rate)

    _CHECKS = {
        "makespan_deadline": _check_makespan,
        "tenant_p95_slowdown": _check_slowdown,
        "cache_hit_floor": _check_cache,
        "queue_wait_ceiling": _check_queue_wait,
        "worker_loss_budget": _check_worker_loss,
    }

    # -- transitions ---------------------------------------------------------
    def _transition(self, state: _RuleState, status: str, t: float,
                    tenant: Optional[str] = None,
                    value: Optional[float] = None,
                    burn_rate: Optional[float] = None) -> None:
        if tenant is not None:
            previous = state.tenant_status.get(tenant, OK)
            if status == previous or previous == VIOLATED:
                return           # violations are terminal per tenant
            state.tenant_status[tenant] = status
            # the rule's headline status is its worst tenant's
            order = {OK: 0, BURN: 1, VIOLATED: 2}
            state.status = max(state.tenant_status.values(),
                               key=order.get)
        else:
            if status == state.status or state.status == VIOLATED:
                return           # violations are terminal per rule
            state.status = status
        self._alert(state.rule, status, t, tenant=tenant,
                    value=value, burn_rate=burn_rate)

    def _alert(self, rule: SLORule, status: str, t: float,
               tenant: Optional[str] = None,
               value: Optional[float] = None,
               burn_rate: Optional[float] = None) -> None:
        fields = {"rule": rule.name, "kind": rule.kind,
                  "status": status, "threshold": rule.threshold}
        if tenant is not None:
            fields["tenant"] = tenant
        if value is not None:
            fields["value"] = value
        if burn_rate is not None:
            fields["burn_rate"] = burn_rate
        self.alerts.append(dict(fields, t=t))
        bus = self.bus
        if bus is not None and bus.enabled:
            bus.emit(ev.SLO_ALERT, t, **fields)

    # -- end of run ----------------------------------------------------------
    def finish(self, t: Optional[float] = None,
               makespan: Optional[float] = None) -> List[dict]:
        """Final judgement once the run ends (call *before* closing
        the txlog, so final alerts are stamped in-log).  Returns the
        full alert list."""
        if self.finished:
            return self.alerts
        self.finished = True
        now = t if t is not None else self.last_t
        final = makespan if makespan is not None else now
        for state in self._states:
            rule = state.rule
            if rule.kind == "makespan_deadline":
                if final > rule.threshold:
                    self._transition(state, VIOLATED, now, value=final,
                                     burn_rate=final / rule.threshold)
                elif state.status == BURN:
                    self._transition(state, OK, now, value=final,
                                     burn_rate=final / rule.threshold)
            elif rule.kind == "cache_hit_floor" and state.stage_ins:
                ratio = state.cache_hits / state.stage_ins
                if ratio < rule.threshold:
                    self._transition(state, VIOLATED, now, value=ratio)
        return self.alerts

    # -- reading -------------------------------------------------------------
    def states(self) -> Dict[str, str]:
        """Current status per rule name."""
        return {s.rule.name: s.status for s in self._states}

    def tenant_states(self) -> Dict[str, Dict[str, str]]:
        """Per-tenant status for tenant-scoped rules."""
        return {s.rule.name: dict(s.tenant_status)
                for s in self._states if s.tenant_status}

    @property
    def violated(self) -> List[str]:
        return [s.rule.name for s in self._states
                if s.status == VIOLATED]

    def summary(self) -> dict:
        return {
            "policy": self.policy.name,
            "rules": len(self._states),
            "states": self.states(),
            "violated": self.violated,
            "alerts": len(self.alerts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SLOMonitor {len(self._states)} rules, "
                f"{len(self.alerts)} alerts>")


def evaluate(source, policy: SLOPolicy) -> SLOMonitor:
    """Post-hoc SLO evaluation over a transaction log.

    Replays the log's records through a fresh monitor (no bus: alerts
    accumulate on the monitor only).  SLO_ALERT records already
    stamped in the log are ignored -- the monitor re-derives them --
    so re-evaluating an already-monitored log is idempotent.
    """
    monitor = SLOMonitor(policy)
    footer: dict = {}
    for record in records(source):
        monitor.replay(record)
        if record.get("type") == ev.RUN_END:
            footer = record
    monitor.finish(makespan=footer.get("makespan"))
    return monitor


def render_slo_report(monitor: Union[SLOMonitor, NullSLOMonitor],
                      tenants: Optional[Iterable[str]] = None) -> str:
    """Terminal SLO table (facility CLI / obs watch footer)."""
    if not getattr(monitor, "enabled", False):
        return ""
    from ..bench.report import banner, format_table
    states = monitor.states()
    if not states:
        return ""
    n_violated = len(monitor.violated)
    parts = [banner(f"SLO: {len(states)} rules, "
                    f"{n_violated} violated, "
                    f"{len(monitor.alerts)} alerts")]
    rows = []
    per_tenant = monitor.tenant_states()
    for state in monitor._states:
        rule = state.rule
        detail = ""
        tenant_map = per_tenant.get(rule.name)
        if tenant_map:
            bad = sorted(t for t, s in tenant_map.items() if s != OK)
            detail = ("all tenants ok" if not bad
                      else "worst: " + ", ".join(bad))
        rows.append((rule.name, rule.kind, f"{rule.threshold:g}",
                     state.status.upper(), detail))
    parts.append(format_table(
        ["Rule", "Kind", "Threshold", "Status", "Detail"], rows))
    if monitor.alerts:
        parts.append(format_table(
            ["t (s)", "Rule", "Status", "Value", "Burn rate"],
            [(f"{a['t']:.1f}", a["rule"], a["status"],
              f"{a['value']:.3g}" if "value" in a else "-",
              f"{a['burn_rate']:.2f}" if "burn_rate" in a else "-")
             for a in monitor.alerts[-10:]],
            title="latest alerts"))
    return "\n\n".join(parts)
