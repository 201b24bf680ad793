"""Fairness / SLO reporting for facility runs.

The headline number is **Jain's fairness index** over per-tenant mean
slowdown: ``J(x) = (sum x)^2 / (n * sum x^2)``, 1.0 when every tenant
experiences the same slowdown, approaching ``1/n`` when one tenant gets
all the service.  Slowdown is a submission's facility turnaround
divided by its *isolated* runtime (the same DAG alone on the same
cluster); when no isolated baselines are supplied, the fastest
observed turnaround of the same workload tag stands in, so the report
degrades gracefully for quick CLI runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .facility import FacilityResult

__all__ = [
    "jain_index",
    "percentile",
    "tenant_slowdowns",
    "fairness_summary",
    "facility_report_data",
    "render_facility_report",
]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index; 1.0 = perfectly even, 1/n = monopoly."""
    values = [v for v in values if v is not None]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, int(math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _baseline_for(result: FacilityResult, sid: str,
                  baselines: Optional[Dict[str, float]],
                  fallback: Dict[str, float]) -> Optional[float]:
    sub = result.submissions[sid]
    if baselines:
        for key in (sid, sub.tag, sub.tenant):
            if key in baselines:
                return baselines[key]
    return fallback.get(sub.tag or sub.tenant)


def tenant_slowdowns(result: FacilityResult,
                     baselines: Optional[Dict[str, float]] = None
                     ) -> Dict[str, List[float]]:
    """Per-tenant slowdown samples (turnaround / isolated baseline).

    ``baselines`` maps submission id, workload tag, or tenant name to
    isolated-run seconds; the most specific match wins.
    """
    # fallback: fastest turnaround seen for each workload tag
    fallback: Dict[str, float] = {}
    for sub in result.submissions.values():
        if sub.turnaround is None:
            continue
        key = sub.tag or sub.tenant
        if key not in fallback or sub.turnaround < fallback[key]:
            fallback[key] = sub.turnaround
    out: Dict[str, List[float]] = {t: [] for t in result.tenant_stats}
    for sid, sub in result.submissions.items():
        if sub.turnaround is None:
            continue
        base = _baseline_for(result, sid, baselines, fallback)
        if base is None or base <= 0:
            continue
        out[sub.tenant].append(sub.turnaround / base)
    return out


def fairness_summary(result: FacilityResult,
                     baselines: Optional[Dict[str, float]] = None
                     ) -> Dict[str, object]:
    """Machine-readable fairness/SLO summary."""
    slowdowns = tenant_slowdowns(result, baselines)
    rows = []
    means = []
    for tenant in sorted(result.tenant_stats):
        stats = result.tenant_stats[tenant]
        sl = slowdowns.get(tenant, [])
        mean_slowdown = (sum(sl) / len(sl)) if sl else None
        if mean_slowdown is not None:
            means.append(mean_slowdown)
        rows.append({
            "tenant": tenant,
            "weight": stats.weight,
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "queued": stats.queued,
            "rejected": stats.rejected,
            "tasks_done": stats.tasks_done,
            "mean_dispatch_wait_s": (
                sum(stats.dispatch_waits) / len(stats.dispatch_waits)
                if stats.dispatch_waits else None),
            "p50_turnaround_s": (
                percentile(stats.turnarounds, 50)
                if stats.turnarounds else None),
            "p95_turnaround_s": (
                percentile(stats.turnarounds, 95)
                if stats.turnarounds else None),
            "p50_slowdown": percentile(sl, 50) if sl else None,
            "p95_slowdown": percentile(sl, 95) if sl else None,
            "mean_slowdown": mean_slowdown,
            "peer_cache_hits": stats.peer_cache_hits,
            "peer_cache_gb": stats.peer_cache_bytes / 1e9,
            "staged_gb": stats.staged_bytes / 1e9,
        })
    return {
        "discipline": result.discipline,
        "completed": result.completed,
        "makespan_s": result.run.makespan,
        "jain_index": jain_index(means),
        "tenants": rows,
        "staged_gb_total": result.staged_bytes_total() / 1e9,
        "peer_cache_gb_total": result.peer_cache_bytes_total() / 1e9,
    }


def facility_report_data(result: FacilityResult,
                         baselines: Optional[Dict[str, float]] = None
                         ) -> Dict[str, object]:
    """The complete machine-readable facility report: the fairness
    summary plus run accounting and the SLO monitor's state block
    (when one was attached).  ``python -m repro.facility --json``
    prints exactly this document."""
    data = fairness_summary(result, baselines)
    data["tasks_done"] = result.run.tasks_done
    data["task_failures"] = result.run.task_failures
    data["error"] = result.run.error
    slo = result.slo_monitor
    if slo is not None and slo.enabled:
        data["slo"] = slo.summary()
    return data


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_facility_report(result: FacilityResult,
                           baselines: Optional[Dict[str, float]] = None
                           ) -> str:
    """Human-readable fairness/SLO report (the CLI's output)."""
    summary = fairness_summary(result, baselines)
    lines = []
    status = "completed" if summary["completed"] else "DNF"
    lines.append(
        f"FACILITY REPORT  discipline={summary['discipline']}  "
        f"{status}  makespan={summary['makespan_s']:.1f}s")
    lines.append(
        f"Jain fairness index (mean slowdown): "
        f"{summary['jain_index']:.3f}")
    lines.append(
        f"staged {summary['staged_gb_total']:.2f} GB; "
        f"{summary['peer_cache_gb_total']:.2f} GB served from peer "
        f"tenants' cache")
    header = ["tenant", "subs", "adm", "q", "rej", "tasks",
              "wait(s)", "p50 turn", "p95 turn", "p50 slow",
              "p95 slow", "peer GB"]
    table: List[List[str]] = [header]
    for row in summary["tenants"]:
        table.append([
            row["tenant"],
            str(row["submitted"]), str(row["admitted"]),
            str(row["queued"]), str(row["rejected"]),
            str(row["tasks_done"]),
            _fmt(row["mean_dispatch_wait_s"]),
            _fmt(row["p50_turnaround_s"], 1),
            _fmt(row["p95_turnaround_s"], 1),
            _fmt(row["p50_slowdown"]),
            _fmt(row["p95_slowdown"]),
            _fmt(row["peer_cache_gb"]),
        ])
    widths = [max(len(r[i]) for r in table)
              for i in range(len(header))]
    for i, row in enumerate(table):
        lines.append("  ".join(
            cell.ljust(widths[j]) if j == 0 else cell.rjust(widths[j])
            for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
