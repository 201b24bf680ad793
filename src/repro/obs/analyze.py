"""Post-hoc run analysis: why was this run slow?

Answers the diagnostic questions the paper answers with TaskVine's
transaction logs, from one JSONL file.  :func:`report_data` returns
one JSON-ready dict with a key per section, and :func:`render_report`
formats that dict for terminals:

* ``summary`` -- tasks ok and failed, makespan, record count.
* ``critical_path`` -- where a task's turnaround goes: manager
  queueing vs. stage-in vs. execution (the Table I decomposition),
  plus the causal chain that explains the makespan.
* ``stragglers`` -- which tasks ran far beyond their category's
  median, and which workers are systematically slow (Fig 8 / Fig 13
  territory).
* ``transfers`` -- which node pairs moved the most bytes and how much
  traffic funnels through the manager (Fig 7).
* ``cache`` -- per-worker peak cache occupancy, eviction volume,
  replica losses and lineage recoveries (Fig 11).
* ``tenants`` -- per-tenant service quality and critical-path chains
  of a multi-tenant facility run.

Every section is split into a **fold** (one :class:`Folds` state
update per record, bounded memory) and a **finalize** (ranking and
percentiles over the folded state).  :func:`report_data` decodes each
record once, feeding the :class:`Folds` + span-builder pair that the
live analyzer (:mod:`repro.obs.live`) feeds one event at a time, and
both assemble their sections through :func:`assemble` -- so streaming
and post-hoc analysis produce *byte-identical* section outputs by
construction, float-addition order included.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from . import events as ev
from . import txlog
from .trace import (SpanBuilder, critical_path_by_tenant,
                    critical_path_chain)
from .txlog import ReadStatus, read_records

__all__ = [
    "Folds",
    "RunLog",
    "load",
    "fold",
    "assemble",
    "render_report",
    "report_data",
    "SECTIONS",
]

MANAGER_NODE = 0

#: a task is a straggler at this multiple of its category's median
STRAGGLER_FACTOR = 2.0


class Folds:
    """Incremental per-section analyzer state: one ``add`` per record.

    Memory is bounded by tasks, workers, node pairs and tenants --
    never by record volume (data-movement records dominate real logs).
    The batch analyzer and :class:`repro.obs.live.LiveAnalyzer` share
    this code, which is what makes streaming == batch exact.
    """

    def __init__(self):
        self.records = 0
        self.meta: dict = {}
        self.footer: Optional[dict] = None
        # stragglers / critical path: one compact row per completion
        # (task, category, worker, t_ready, t_dispatch, t_start, t_end)
        self.exec_ok: List[tuple] = []
        self.exec_failed = 0
        self.makespan = 0.0
        # transfers
        self.transfers = 0
        self.transfer_total = 0.0
        self.manager_touched = 0.0
        self.pair_bytes: Dict[tuple, float] = {}
        self.node_in: Dict[int, float] = {}
        self.node_out: Dict[int, float] = {}
        self.kind_bytes: Dict[str, float] = {}
        # cache
        self.cache_level: Dict[int, float] = {}
        self.cache_peak: Dict[int, float] = {}
        self.evictions = 0
        self.evicted_bytes = 0.0
        self.put_bytes = 0.0
        self.replica_losses = 0
        self.recoveries = 0
        self.workers_preempted: List[int] = []
        # tenants
        self.tenant_rows: Dict[str, dict] = {}
        # SLO alerts stamped into the stream (repro.obs.slo)
        self.slo_alerts: List[dict] = []

    # -- feeding -------------------------------------------------------------
    def add_event(self, type: str, t: float, fields: dict) -> None:
        """Fold one event (does **not** bump ``records`` -- callers
        that count records do that: :func:`fold` and the live
        analyzer)."""
        handler = self._HANDLERS.get(type)
        if handler is not None:
            handler(self, t, fields)

    # -- per-type handlers ---------------------------------------------------
    def _f_run(self, t: float, r: dict) -> None:
        self.meta = {k: v for k, v in r.items()
                     if k not in ("type", "t")}

    def _f_run_end(self, t: float, r: dict) -> None:
        self.footer = {k: v for k, v in r.items()
                       if k not in ("type", "t")}

    def _f_exec_end(self, t: float, r: dict) -> None:
        t_end = r["t_end"]
        if t_end > self.makespan:
            self.makespan = t_end
        if r.get("ok", True):
            self.exec_ok.append((r["task"], r.get("category", ""),
                                 r["worker"], r["t_ready"],
                                 r["t_dispatch"], r["t_start"], t_end))
        else:
            self.exec_failed += 1

    def _f_transfer(self, t: float, r: dict) -> None:
        src, dst, nbytes = r["src"], r["dst"], r["nbytes"]
        self.transfers += 1
        self.transfer_total += nbytes
        self.pair_bytes[(src, dst)] = (
            self.pair_bytes.get((src, dst), 0.0) + nbytes)
        self.node_out[src] = self.node_out.get(src, 0.0) + nbytes
        self.node_in[dst] = self.node_in.get(dst, 0.0) + nbytes
        kind = r.get("kind", "data")
        self.kind_bytes[kind] = self.kind_bytes.get(kind, 0.0) + nbytes
        if MANAGER_NODE in (src, dst):
            self.manager_touched += nbytes

    def _f_cache_put(self, t: float, r: dict) -> None:
        worker, nbytes = r["worker"], r["nbytes"]
        level = self.cache_level.get(worker, 0.0) + nbytes
        self.cache_level[worker] = level
        self.put_bytes += nbytes
        if level > self.cache_peak.get(worker, 0.0):
            self.cache_peak[worker] = level

    def _f_cache_evict(self, t: float, r: dict) -> None:
        worker, nbytes = r["worker"], r["nbytes"]
        self.cache_level[worker] = (self.cache_level.get(worker, 0.0)
                                    - nbytes)
        self.evicted_bytes += nbytes
        self.evictions += 1

    def _f_replica_lost(self, t: float, r: dict) -> None:
        self.replica_losses += 1

    def _f_recovery(self, t: float, r: dict) -> None:
        self.recoveries += 1

    def _f_preempt(self, t: float, r: dict) -> None:
        self.workers_preempted.append(r["worker"])

    def _f_slo_alert(self, t: float, r: dict) -> None:
        row = {k: v for k, v in r.items() if k != "type"}
        row.setdefault("t", t)
        self.slo_alerts.append(row)

    # -- tenants -------------------------------------------------------------
    def _tenant(self, tenant: str) -> dict:
        return self.tenant_rows.setdefault(tenant, {
            "tenant": tenant, "submissions": 0, "admitted": 0,
            "queued": 0, "rejected": 0, "tasks_done": 0,
            "dispatch_waits": [], "turnarounds": [],
            "peer_cache_bytes": 0.0, "peer_cache_hits": 0,
            "staged_bytes": 0.0})

    def _f_submit(self, t: float, r: dict) -> None:
        self._tenant(r["tenant"])["submissions"] += 1

    def _f_admit(self, t: float, r: dict) -> None:
        decision = r.get("decision", "admitted")
        key = {"admitted": "admitted", "queued": "queued",
               "rejected": "rejected"}.get(decision)
        if key:
            self._tenant(r["tenant"])[key] += 1

    def _f_task_done(self, t: float, r: dict) -> None:
        tenant = r.get("tenant")
        if tenant is not None:
            self._tenant(tenant)["tasks_done"] += 1

    def _f_dispatch(self, t: float, r: dict) -> None:
        tenant = r.get("tenant")
        if tenant is not None:
            self._tenant(tenant)["dispatch_waits"].append(
                r.get("waited", 0.0))

    def _f_submission_done(self, t: float, r: dict) -> None:
        self._tenant(r["tenant"])["turnarounds"].append(
            r.get("turnaround", 0.0))

    def _f_stage_in(self, t: float, r: dict) -> None:
        tenant = r.get("tenant")
        if tenant is None:
            return
        nbytes = r.get("nbytes", 0.0)
        if r.get("cached"):
            peer = r.get("peer_tenant")
            if peer is not None and peer != tenant:
                row = self._tenant(tenant)
                row["peer_cache_bytes"] += nbytes
                row["peer_cache_hits"] += 1
        else:
            self._tenant(tenant)["staged_bytes"] += nbytes

    _HANDLERS = {
        ev.RUN: _f_run,
        ev.RUN_END: _f_run_end,
        ev.EXEC_END: _f_exec_end,
        ev.TRANSFER: _f_transfer,
        ev.CACHE_PUT: _f_cache_put,
        ev.CACHE_EVICT: _f_cache_evict,
        ev.REPLICA_LOST: _f_replica_lost,
        ev.RECOVERY: _f_recovery,
        ev.WORKER_PREEMPT: _f_preempt,
        ev.SLO_ALERT: _f_slo_alert,
        ev.SUBMIT: _f_submit,
        ev.ADMIT: _f_admit,
        ev.TASK_DONE: _f_task_done,
        ev.DISPATCH: _f_dispatch,
        ev.SUBMISSION_DONE: _f_submission_done,
        ev.STAGE_IN: _f_stage_in,
    }


class RunLog:
    """A parsed transaction log: its records, in order."""

    def __init__(self, records: Iterable[dict],
                 read_status: Optional[ReadStatus] = None):
        self.records: List[dict] = list(records)
        self.read_status = read_status
        self.meta: dict = next((r for r in self.records
                                if r.get("type") == ev.RUN), {})


Source = Union[txlog.Source, RunLog]


def load(source: Source) -> RunLog:
    if isinstance(source, RunLog):
        return source
    if isinstance(source, str):
        status = ReadStatus()
        return RunLog(read_records(source, status), read_status=status)
    return RunLog(source)


def fold(records: Iterable[dict]) -> Tuple[Folds, SpanBuilder]:
    """Fold a record stream in one pass through the same
    :class:`Folds` + :class:`~repro.obs.trace.SpanBuilder` pair that
    :meth:`repro.obs.live.LiveAnalyzer.on_event` feeds."""
    folds, spans = Folds(), SpanBuilder()
    for record in records:
        type_, t = record.get("type", "?"), record.get("t", 0.0)
        folds.records += 1
        folds.add_event(type_, t, record)
        spans.on_event(type_, t, record)
    return folds, spans


# -- finalizers -------------------------------------------------------------

def _stragglers_finalize(folds: Folds, top: int) -> dict:
    """Tasks far beyond their category median, and slow workers.

    A task is a straggler when its execution time is at least
    :data:`STRAGGLER_FACTOR` times its category's median; a worker is
    slow when its tasks average at least 1.5x their category medians.
    """
    rows = folds.exec_ok
    by_category: Dict[str, List[float]] = {}
    for task, category, worker, _tr, _td, t_start, t_end in rows:
        by_category.setdefault(category, []).append(t_end - t_start)
    medians = {c: float(np.median(v)) for c, v in by_category.items()}

    stragglers = []
    worker_ratios: Dict[int, List[float]] = {}
    for task, category, worker, _tr, _td, t_start, t_end in rows:
        exec_time = t_end - t_start
        median = medians[category]
        ratio = exec_time / median if median > 0 else 1.0
        worker_ratios.setdefault(worker, []).append(ratio)
        if median > 0 and ratio >= STRAGGLER_FACTOR:
            stragglers.append({
                "task": task, "category": category,
                "worker": worker, "exec_s": exec_time,
                "ratio": ratio, "t_end": t_end})
    stragglers.sort(key=lambda s: -s["ratio"])

    slow_workers = []
    for worker, ratios in worker_ratios.items():
        mean_ratio = float(np.mean(ratios))
        if mean_ratio >= 1.5 and len(ratios) >= 2:
            slow_workers.append({"worker": worker,
                                 "mean_ratio": mean_ratio,
                                 "tasks": len(ratios)})
    slow_workers.sort(key=lambda w: -w["mean_ratio"])

    return {
        "tasks_ok": len(rows),
        "category_median_s": medians,
        "stragglers": stragglers[:top],
        "straggler_count": len(stragglers),
        "slow_workers": slow_workers[:top],
    }


def _transfers_finalize(folds: Folds, top: int) -> dict:
    """Per-node and per-pair byte totals; the manager's traffic share."""
    def top_nodes(table: Dict[int, float]) -> List[dict]:
        ranked = sorted(table.items(), key=lambda kv: -kv[1])[:top]
        return [{"node": n, "bytes": b} for n, b in ranked]

    total = folds.transfer_total
    top_pairs = sorted(folds.pair_bytes.items(),
                       key=lambda kv: -kv[1])[:top]
    return {
        "transfers": folds.transfers,
        "total_bytes": total,
        "manager_share": folds.manager_touched / total if total else 0.0,
        "by_kind": dict(folds.kind_bytes),
        "top_pairs": [{"src": s, "dst": d, "bytes": b}
                      for (s, d), b in top_pairs],
        "top_receivers": top_nodes(folds.node_in),
        "top_senders": top_nodes(folds.node_out),
    }


def _cache_finalize(folds: Folds, top: int) -> dict:
    """Peak occupancy, eviction volume, and recovery activity.

    Puts and evictions are folded in *record order* -- the log is
    written in event order on a monotone sim clock, and an eviction at
    time t causally precedes the put it made room for, so record order
    is the exact interleaving (a timestamp sort cannot break the tie).
    """
    top_peaks = sorted(folds.cache_peak.items(),
                       key=lambda kv: -kv[1])[:top]
    return {
        "bytes_cached": folds.put_bytes,
        "evictions": folds.evictions,
        "evicted_bytes": folds.evicted_bytes,
        "peak_by_worker": [{"worker": w, "bytes": b}
                           for w, b in top_peaks],
        "replica_losses": folds.replica_losses,
        "recoveries": folds.recoveries,
        "workers_preempted": list(folds.workers_preempted),
    }


def _critical_finalize(folds: Folds, spans: SpanBuilder) -> dict:
    """Where turnaround time goes: queueing vs. stage-in vs. exec.

    Two complementary decompositions:

    * **Totals over all tasks** (the Table I view), from the phase
      timestamps carried by every EXEC_END record: ``t_ready ->
      t_dispatch`` is manager queueing, ``t_dispatch -> t_start`` is
      input staging, ``t_start -> t_end`` is worker-observed execution.
      This says which phase costs the most aggregate time, but a
      phase can dominate the totals without ever bounding the run.
    * **The causal chain** (``chain`` key), from
      :func:`repro.obs.trace.critical_path_chain`: one dependency-
      linked path of spans whose segments sum to the *makespan*, so
      it says which phase the end-to-end time actually consists of.
    """
    rows = folds.exec_ok
    phases = {"queued": 0.0, "stage_in": 0.0, "exec": 0.0}
    for _task, _cat, _w, t_ready, t_dispatch, t_start, t_end in rows:
        phases["queued"] += max(0.0, t_dispatch - t_ready)
        phases["stage_in"] += max(0.0, t_start - t_dispatch)
        phases["exec"] += max(0.0, t_end - t_start)
    turnaround = sum(phases.values())
    n = len(rows)
    chain = critical_path_chain(spans)
    return {
        "tasks": n,
        "makespan": folds.makespan,
        "total_s": dict(phases),
        "mean_s": {k: v / n if n else 0.0 for k, v in phases.items()},
        "fraction": {k: v / turnaround if turnaround else 0.0
                     for k, v in phases.items()},
        "dominant": (max(phases, key=phases.get) if turnaround
                     else None),
        "chain": {
            "total_s": chain["total_s"],
            "phase_totals": chain["phase_totals"],
            "tasks_on_path": chain["tasks_on_path"],
            "end_task": chain.get("end_task"),
            "links": len(chain["segments"]),
        },
    }


def _tenants_finalize(folds: Folds) -> dict:
    """Per-tenant service quality from a multi-tenant facility run.

    Driven by the ``tenant`` field the manager stamps on lifecycle
    events (plus the facility's SUBMIT/ADMIT/SUBMISSION_DONE edges).
    Returns ``{"tenants": []}`` for single-tenant logs.
    """
    out = []
    for tenant in sorted(folds.tenant_rows):
        src = folds.tenant_rows[tenant]
        r = {k: v for k, v in src.items()
             if k not in ("dispatch_waits", "turnarounds")}
        waits = src["dispatch_waits"]
        turns = src["turnarounds"]
        r["mean_dispatch_wait_s"] = (float(np.mean(waits))
                                     if waits else None)
        r["p95_dispatch_wait_s"] = (float(np.percentile(waits, 95))
                                    if waits else None)
        r["mean_turnaround_s"] = (float(np.mean(turns))
                                  if turns else None)
        r["p95_turnaround_s"] = (float(np.percentile(turns, 95))
                                 if turns else None)
        out.append(r)
    return {"tenants": out}


#: sections ``report_data`` understands, in render order (the CLI
#: validates --section values against this).
SECTIONS = ("summary", "critical-path", "stragglers", "transfers",
            "cache", "tenants")


def assemble(folds: Folds, spans: SpanBuilder, top: int = 10,
             sections: Optional[Iterable[str]] = None) -> dict:
    """Assemble the report dict from folded state.

    ``spans`` is the span builder fed the same stream as ``folds``.
    This is the single assembly path behind both :func:`report_data`
    and ``LiveAnalyzer.snapshot`` -- sharing it is the streaming ==
    batch guarantee.
    """
    wanted = list(sections) if sections else list(SECTIONS)
    unknown = [s for s in wanted if s not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown sections {unknown}; have "
                         f"{list(SECTIONS)}")
    out: Dict[str, object] = {
        "meta": dict(folds.meta),
        "records": folds.records,
    }
    if "summary" in wanted:
        out["summary"] = {
            "tasks_ok": len(folds.exec_ok),
            "tasks_failed": folds.exec_failed,
            "makespan_s": folds.makespan,
        }
    if "critical-path" in wanted:
        out["critical_path"] = _critical_finalize(folds, spans)
    if "stragglers" in wanted:
        out["stragglers"] = _stragglers_finalize(folds, top)
    if "transfers" in wanted:
        out["transfers"] = _transfers_finalize(folds, top)
    if "cache" in wanted:
        out["cache"] = _cache_finalize(folds, top)
    if "tenants" in wanted:
        tb = _tenants_finalize(folds)
        out["tenants"] = tb
        if tb["tenants"]:
            out["tenant_chains"] = critical_path_by_tenant(spans)
    return out


def report_data(source: Source, top: int = 10,
                sections: Optional[Iterable[str]] = None) -> dict:
    """The report as one JSON-ready dict (the CLI's ``--json`` mode).

    Section keys mirror the terminal report; unknown sections raise
    ``ValueError`` so CI scripts fail loudly on typos.
    """
    folds, spans = fold(load(source).records)
    return assemble(folds, spans, top=top, sections=sections)


# -- rendering --------------------------------------------------------------

def _gb(nbytes: float) -> float:
    return nbytes / 1e9


def _fmt_opt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}"


def render_report(report: dict) -> str:
    """Terminal tables for a :func:`report_data` dict (the ``python
    -m repro.obs`` output): one block per section the dict holds."""
    from ..bench.report import banner, format_table  # lazy: avoids
    # importing the bench package (and its experiment drivers) when obs
    # is used as a library inside the schedulers.

    parts: List[str] = []
    if "summary" in report:
        meta = {k: v for k, v in report["meta"].items()
                if k != "schema"}
        summary = report["summary"]
        parts.append(banner("RUN SUMMARY"))
        if meta:
            parts.append(format_table(
                ["Key", "Value"], sorted(meta.items())))
        parts.append(format_table(
            ["Tasks ok", "Tasks failed", "Makespan (s)", "Records"],
            [[summary["tasks_ok"], summary["tasks_failed"],
              summary["makespan_s"], report["records"]]]))
    if "critical_path" in report:
        cp = report["critical_path"]
        parts.append(banner("CRITICAL PATH: where turnaround goes"))
        parts.append(format_table(
            ["Phase", "Total (s)", "Mean (s)", "Fraction"],
            [(k, cp["total_s"][k], cp["mean_s"][k],
              f"{cp['fraction'][k]:.1%}")
             for k in ("queued", "stage_in", "exec")]))
        if cp["dominant"]:
            parts.append(f"dominant phase: {cp['dominant']}")
        chain = cp["chain"]
        if chain["tasks_on_path"]:
            parts.append(format_table(
                ["Chain phase", "Total (s)", "Of makespan"],
                [(phase, total,
                  f"{total / chain['total_s']:.1%}"
                  if chain["total_s"] else "-")
                 for phase, total in sorted(
                     chain["phase_totals"].items(),
                     key=lambda kv: -kv[1])],
                title=(f"causal chain: {chain['tasks_on_path']} tasks "
                       f"explain the {chain['total_s']:.1f} s makespan "
                       f"(ends at {chain['end_task']})")))
    if "stragglers" in report:
        sr = report["stragglers"]
        parts.append(banner(
            f"STRAGGLERS: {sr['straggler_count']} of "
            f"{sr['tasks_ok']} tasks >= {STRAGGLER_FACTOR:g}x category "
            f"median"))
        if sr["stragglers"]:
            parts.append(format_table(
                ["Task", "Category", "Worker", "Exec (s)", "x median"],
                [(s["task"], s["category"], s["worker"], s["exec_s"],
                  f"{s['ratio']:.1f}") for s in sr["stragglers"]]))
        if sr["slow_workers"]:
            parts.append(format_table(
                ["Slow worker", "Mean x median", "Tasks"],
                [(w["worker"], f"{w['mean_ratio']:.2f}", w["tasks"])
                 for w in sr["slow_workers"]],
                title="workers averaging >= 1.5x category median"))
    if "transfers" in report:
        th = report["transfers"]
        parts.append(banner(
            f"TRANSFER HOTSPOTS: {th['transfers']} transfers, "
            f"{_gb(th['total_bytes']):.2f} GB total, "
            f"{th['manager_share']:.1%} touching the manager"))
        if th["top_pairs"]:
            parts.append(format_table(
                ["Src", "Dst", "GB"],
                [(p["src"], p["dst"], _gb(p["bytes"]))
                 for p in th["top_pairs"]],
                title="hottest node pairs"))
        if th["by_kind"]:
            parts.append(format_table(
                ["Kind", "GB"],
                [(k, _gb(b)) for k, b
                 in sorted(th["by_kind"].items(),
                           key=lambda kv: -kv[1])]))
    if "cache" in report:
        ca = report["cache"]
        parts.append(banner(
            f"CACHE PRESSURE: {_gb(ca['bytes_cached']):.2f} GB cached, "
            f"{ca['evictions']} evictions "
            f"({_gb(ca['evicted_bytes']):.2f} GB), "
            f"{ca['replica_losses']} replica losses, "
            f"{ca['recoveries']} recoveries"))
        if ca["peak_by_worker"]:
            parts.append(format_table(
                ["Worker", "Peak cache (GB)"],
                [(p["worker"], _gb(p["bytes"]))
                 for p in ca["peak_by_worker"]],
                title="highest peak occupancy"))
        if ca["workers_preempted"]:
            parts.append("workers preempted: "
                         + ", ".join(map(str, ca["workers_preempted"])))
    tenants = report.get("tenants", {}).get("tenants")
    if tenants:  # silent on single-tenant logs
        parts.append(banner(
            f"TENANTS: {len(tenants)} sharing the manager"))
        parts.append(format_table(
            ["Tenant", "Subs", "Adm", "Q", "Rej", "Tasks",
             "Wait p95 (s)", "Turnaround p95 (s)", "Peer GB"],
            [(t["tenant"], t["submissions"], t["admitted"],
              t["queued"], t["rejected"], t["tasks_done"],
              _fmt_opt(t["p95_dispatch_wait_s"]),
              _fmt_opt(t["p95_turnaround_s"]),
              f"{_gb(t['peer_cache_bytes']):.2f}")
             for t in tenants]))
        chains = report["tenant_chains"]
        rows = []
        for tenant in sorted(chains):
            chain = chains[tenant]
            if not chain["tasks_on_path"]:
                continue
            dominant = max(chain["phase_totals"],
                           key=chain["phase_totals"].get)
            rows.append((tenant, f"{chain['total_s']:.1f}",
                         chain["tasks_on_path"], dominant))
        if rows:
            parts.append(format_table(
                ["Tenant", "Chain (s)", "Tasks on path",
                 "Dominant phase"], rows,
                title="per-tenant critical-path chains"))
    return "\n\n".join(parts)
