"""Resilience scorecard: what a fault scenario actually cost.

The scorecard is computed *entirely* from the transaction log (a path
or an iterable of records), never from live scheduler state, so it
works identically on archived runs, CI artefacts, and cross-process
comparisons.

Physics accounting
------------------
"Bin-identical results" is the paper's bar for a recovery being real:
after a fault the merged histograms must match the fault-free run's
exactly, not approximately.  The simulation does not run ROOT, so the
scorecard builds a *pseudo-histogram*: each completed analysis task
contributes a deterministic 16-bin vector derived from the sha256 of
its string task id, and the run's histogram is the element-wise sum
over the set of *unique* completed tasks.  Two runs are bin-identical
iff they completed exactly the same task set -- a task silently
dropped, double-counted, or replaced by a partial result changes the
digest.  (``TASK_DONE`` records carry the string id precisely so this
digest is stable across processes; ``EXEC_END`` ids are
process-salted hashes.)

Cost accounting
---------------
* ``reexecuted_tasks`` / ``reexecutions`` -- tasks the scheduler had
  to run again after losing their outputs (lineage recovery).
* ``recovery_bytes`` -- bytes re-staged for a (task, file) pair that
  had already been staged once: the data-movement cost of recovery.
* ``manager_restage_bytes`` -- the subset of staging that came from
  the manager's node (node 0): Work Queue's funnel shows up here.
* ``wasted_exec_seconds`` -- core-seconds burned by executions that
  did not produce an accepted result (killed mid-task, failed).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs import events as ev
from ..obs.txlog import Source, records

__all__ = [
    "N_BINS",
    "Scorecard",
    "pseudo_histogram",
    "score",
    "compare",
    "span_inflation",
    "format_scorecard",
    "format_comparison",
    "format_span_inflation",
]

#: bins in the per-task pseudo-histogram (16 bytes of sha256 -> 16 bins)
N_BINS = 16


def pseudo_histogram(task_id: str) -> np.ndarray:
    """A deterministic 16-bin 'physics result' for one task."""
    digest = hashlib.sha256(task_id.encode()).digest()
    return np.frombuffer(digest[:N_BINS], dtype=np.uint8).astype(np.int64)


@dataclass
class Scorecard:
    """Per-run resilience metrics derived from one transaction log."""

    scheduler: str = ""
    scenario: str = ""
    scenario_seed: Optional[int] = None
    completed: bool = False
    error: Optional[str] = None
    makespan: float = float("nan")
    tasks_done: int = 0
    task_failures: int = 0
    #: distinct tasks whose results were accepted more than once
    #: (lineage recovery re-ran them) -- the "recovered tasks" metric
    reexecuted_tasks: int = 0
    #: total extra acceptances beyond the first, over all tasks
    reexecutions: int = 0
    recoveries: int = 0
    replicas_lost: int = 0
    preemptions: int = 0
    injections: int = 0
    crashes: int = 0
    recovery_bytes: float = 0.0
    manager_restage_bytes: float = 0.0
    wasted_exec_seconds: float = 0.0
    #: SLO_ALERT records stamped into the log (repro.obs.slo): total
    #: status changes, and how many rules ended violated
    slo_alerts: int = 0
    slo_violations: int = 0
    histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(N_BINS, dtype=np.int64))
    histogram_digest: str = ""

    def to_dict(self) -> Dict[str, object]:
        out = {k: v for k, v in self.__dict__.items() if k != "histogram"}
        out["histogram"] = [int(x) for x in self.histogram]
        return out


def score(source: Source) -> Scorecard:
    """Walk one transaction log and produce its scorecard."""
    card = Scorecard()
    done_counts: Dict[str, int] = {}
    staged: Dict[tuple, int] = {}
    slo_violated: set = set()
    for r in records(source):
        type_ = r.get("type")
        if type_ == ev.RUN:
            card.scheduler = r.get("scheduler", "")
            chaos = r.get("chaos") or {}
            card.scenario = chaos.get("name", "")
            card.scenario_seed = chaos.get("seed")
        elif type_ == ev.RUN_END:
            card.completed = bool(r.get("completed", False))
            card.makespan = float(r.get("makespan", float("nan")))
            card.tasks_done = int(r.get("tasks_done", 0))
            card.task_failures = int(r.get("task_failures", 0))
            card.error = r.get("error")
        elif type_ == ev.TASK_DONE:
            done_counts[r["task"]] = done_counts.get(r["task"], 0) + 1
        elif type_ == ev.STAGE_IN:
            if r.get("cached"):
                continue
            key = (r.get("task"), r.get("file"))
            nbytes = float(r.get("nbytes", 0.0))
            staged[key] = staged.get(key, 0) + 1
            if staged[key] > 1:
                card.recovery_bytes += nbytes
            if r.get("source") == 0:
                card.manager_restage_bytes += nbytes
        elif type_ == ev.EXEC_END:
            if not r.get("ok", True):
                card.wasted_exec_seconds += max(
                    0.0, float(r.get("t_end", 0.0))
                    - float(r.get("t_start", 0.0)))
        elif type_ == ev.RECOVERY:
            card.recoveries += 1
        elif type_ == ev.REPLICA_LOST:
            card.replicas_lost += 1
        elif type_ == ev.WORKER_PREEMPT:
            card.preemptions += 1
        elif type_ == ev.INJECT:
            card.injections += 1
        elif type_ == ev.CRASH:
            card.crashes += 1
        elif type_ == ev.SLO_ALERT:
            card.slo_alerts += 1
            status = r.get("status")
            rule = r.get("rule")
            if status == "violated":
                slo_violated.add((rule, r.get("tenant")))
            elif status == "ok":
                slo_violated.discard((rule, r.get("tenant")))

    card.slo_violations = len(slo_violated)
    card.reexecuted_tasks = sum(1 for n in done_counts.values() if n > 1)
    card.reexecutions = sum(n - 1 for n in done_counts.values())
    histogram = np.zeros(N_BINS, dtype=np.int64)
    for task_id in done_counts:           # unique tasks: exactly-once
        histogram += pseudo_histogram(task_id)
    card.histogram = histogram
    card.histogram_digest = hashlib.sha256(histogram.tobytes()).hexdigest()
    return card


def compare(baseline: Scorecard, chaos: Scorecard) -> Dict[str, object]:
    """Baseline (fault-free) vs chaos run: the resilience verdict."""
    bin_identical = (chaos.completed and baseline.completed
                     and chaos.histogram_digest == baseline.histogram_digest)
    added = (chaos.makespan - baseline.makespan
             if chaos.completed and baseline.completed else float("inf"))
    return {
        "bin_identical": bin_identical,
        "added_makespan_s": added,
        "makespan_ratio": (chaos.makespan / baseline.makespan
                           if chaos.completed and baseline.completed
                           and baseline.makespan > 0 else float("inf")),
        "reexecuted_tasks": chaos.reexecuted_tasks,
        "recovery_bytes": chaos.recovery_bytes,
        "added_manager_restage_bytes": (chaos.manager_restage_bytes
                                        - baseline.manager_restage_bytes),
        "wasted_exec_seconds": chaos.wasted_exec_seconds,
    }


def span_inflation(source: Source) -> Dict[str, object]:
    """Attribute recovery cost to the causal spans it inflated.

    The scorecard's scalar costs (``recovery_bytes``,
    ``wasted_exec_seconds``) say *how much* a fault cost; this view
    says *where* the cost landed in the causal span tree
    (:mod:`repro.obs.trace`): every attempt beyond a task's first is
    pure fault tax, and its schedule-wait / input-transfer / execute
    children show whether recovery time went to re-queueing, to
    re-staging inputs, or to redundant compute.
    """
    from ..obs.trace import ATTEMPT, build_spans
    forest = build_spans(source).forest()
    extra_phase: Dict[str, float] = {}
    extra_attempt_s = 0.0
    inflated: List[dict] = []
    for root in forest:
        attempts = sorted((s for s in root.walk() if s.kind == ATTEMPT),
                          key=lambda s: s.start)
        if len(attempts) <= 1:
            continue
        tax = 0.0
        for a in attempts[1:]:
            # the retry's own window, minus nested deeper retries
            # (each attempt accounts only for its direct phases)
            for child in a.children:
                if child.kind == ATTEMPT:
                    continue
                extra_phase[child.kind] = (
                    extra_phase.get(child.kind, 0.0) + child.duration)
                tax += child.duration
        extra_attempt_s += tax
        inflated.append({"task": root.name, "attempts": len(attempts),
                         "extra_s": round(tax, 3)})
    inflated.sort(key=lambda d: -d["extra_s"])
    return {
        "inflated_tasks": len(inflated),
        "extra_attempt_seconds": round(extra_attempt_s, 3),
        "extra_phase_seconds": {k: round(v, 3)
                                for k, v in sorted(extra_phase.items())},
        "worst": inflated[:10],
    }


def format_span_inflation(inflation: Dict[str, object],
                          title: str = "span inflation") -> str:
    from ..bench.report import format_table
    phases = inflation["extra_phase_seconds"]
    rows = [("tasks with extra attempts", inflation["inflated_tasks"]),
            ("extra attempt time [s]",
             inflation["extra_attempt_seconds"])]
    rows += [(f"  of which {kind}", s) for kind, s in phases.items()]
    for entry in inflation["worst"][:5]:
        rows.append((f"  worst: {entry['task']}",
                     f"{entry['extra_s']} s "
                     f"({entry['attempts']} attempts)"))
    return format_table(["metric", "value"], rows, title=title)


_ROWS = (
    ("completed", lambda c: c.completed),
    ("error", lambda c: c.error or "-"),
    ("makespan [s]", lambda c: c.makespan),
    ("tasks done", lambda c: c.tasks_done),
    ("task failures", lambda c: c.task_failures),
    ("reexecuted tasks", lambda c: c.reexecuted_tasks),
    ("reexecutions", lambda c: c.reexecutions),
    ("recoveries", lambda c: c.recoveries),
    ("replicas lost", lambda c: c.replicas_lost),
    ("preemptions", lambda c: c.preemptions),
    ("injections", lambda c: c.injections),
    ("crashes", lambda c: c.crashes),
    ("recovery bytes [GB]", lambda c: c.recovery_bytes / 1e9),
    ("manager restage [GB]", lambda c: c.manager_restage_bytes / 1e9),
    ("wasted exec [core-s]", lambda c: c.wasted_exec_seconds),
    ("SLO alerts", lambda c: c.slo_alerts),
    ("SLO rules violated", lambda c: c.slo_violations),
    ("histogram digest", lambda c: c.histogram_digest[:16]),
)


def format_scorecard(card: Scorecard, title: str = "") -> str:
    from ..bench.report import format_table
    rows = [(label, get(card)) for label, get in _ROWS]
    return format_table(
        ["metric", "value"], rows,
        title=title or f"resilience scorecard: {card.scheduler} "
                       f"under {card.scenario or 'no faults'}")


def format_comparison(baseline: Scorecard,
                      cards: Sequence[Scorecard],
                      title: str = "resilience comparison") -> str:
    """One column per run (baseline first), one row per metric."""
    from ..bench.report import format_table
    headers = ["metric", "baseline"]
    headers += [c.scheduler or f"run-{i}" for i, c in enumerate(cards)]
    rows: List[list] = []
    for label, get in _ROWS:
        rows.append([label, get(baseline)] + [get(c) for c in cards])
    rows.append(["bin-identical", "-"]
                + [compare(baseline, c)["bin_identical"] for c in cards])
    return format_table(headers, rows, title=title)
