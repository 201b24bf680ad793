"""Multi-tenant analysis facility over one shared TaskVine manager.

The paper targets *near-interactive* single-analyst turnaround; a real
analysis facility serves many analysts iterating concurrently on the
same opportunistic cluster.  This subsystem multiplexes many tenant
DAG submissions, arriving over sim time, onto one shared manager:

* :class:`~repro.facility.facility.Facility` -- the front-end: typed
  admission control (:class:`~repro.facility.tenant.Admitted` /
  ``Queued`` / ``Rejected``) against per-tenant quotas, then merge
  into a shared namespaced DAG.
* :mod:`~repro.facility.fairshare` -- pluggable scheduling disciplines
  (FIFO, weighted deficit round robin, priority + aging) behind the
  manager's :class:`~repro.core.scheduling.ReadyQueue` interface.
* :class:`~repro.facility.composite.CompositeWorkflow` -- tenant
  namespacing with a content index so identical bytes dedupe across
  tenants (the shared cache).
* :mod:`~repro.facility.report` -- Jain's-index fairness/SLO report.

Quickstart::

    python -m repro.facility --tenants 4 --arrival poisson:0.05 \\
        --workload DV3-Small --scale 0.05 --workers 8
"""

from .composite import CompositeWorkflow
from .facility import (
    Facility,
    FacilityResult,
    Submission,
    TenantStats,
)
from .fairshare import (
    DISCIPLINES,
    FacilityFIFO,
    PriorityAging,
    WeightedFairShare,
    make_discipline,
)
from .report import (
    fairness_summary,
    jain_index,
    percentile,
    render_facility_report,
    tenant_slowdowns,
)
from .tenant import (
    Admitted,
    Queued,
    Rejected,
    Tenant,
    TenantAccounts,
    TenantQuota,
)

__all__ = [
    "Facility",
    "FacilityResult",
    "Submission",
    "TenantStats",
    "CompositeWorkflow",
    "FacilityFIFO",
    "WeightedFairShare",
    "PriorityAging",
    "make_discipline",
    "DISCIPLINES",
    "Tenant",
    "TenantQuota",
    "TenantAccounts",
    "Admitted",
    "Queued",
    "Rejected",
    "jain_index",
    "percentile",
    "tenant_slowdowns",
    "fairness_summary",
    "render_facility_report",
]
