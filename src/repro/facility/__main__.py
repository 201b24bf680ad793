"""Facility CLI: run an arrival trace, print the fairness/SLO report.

Usage::

    python -m repro.facility --tenants 4 --arrival poisson:0.05 \\
        --workload DV3-Small --scale 0.05 --workers 8
    python -m repro.facility --discipline fifo --txlog facility.jsonl
    python -m repro.facility --json > report.json

Every tenant submits the same (scaled) Table II workload, so the run
also exercises the cross-tenant shared cache; the report's slowdown
column is measured against one isolated run of the same DAG on an
identical idle cluster (skip with ``--no-baseline``).

Exit codes (the :mod:`repro.obs` CLI convention):

* 0 -- the campaign completed; every admitted submission finished.
* 2 -- unreadable input (unknown workload, bad arrival replay file).
* 3 -- the campaign ran but did not complete.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..bench.runners import build_environment, run_scheduler
from ..bench.serve import serve_campaign
from ..cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_UNREADABLE, print_json
from ..hep.datasets import TABLE2
from ..obs.txlog import install_signal_handlers
from .facility import Facility
from .report import facility_report_data, render_facility_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.facility",
        description="Run a multi-tenant arrival trace on one shared "
                    "manager and print the fairness/SLO report.",
        epilog="exit codes: 0 completed, 2 unreadable input, "
               "3 campaign incomplete")
    parser.add_argument("--tenants", type=int, default=4,
                        help="number of concurrent tenants (default 4)")
    parser.add_argument("--arrival", default="poisson:0.05",
                        help="arrival process: poisson:RATE, "
                             "burst[:SPACING], replay:PATH "
                             "(default poisson:0.05)")
    parser.add_argument("--submissions", type=int, default=1,
                        help="submissions per tenant (default 1)")
    parser.add_argument("--discipline", default="wfs",
                        choices=("wfs", "fifo", "priority"),
                        help="fair-share discipline (default wfs)")
    parser.add_argument("--workload", default="DV3-Small",
                        help="Table II configuration (default "
                             "DV3-Small)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="scale n_tasks/input bytes (default 0.05)")
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--inflight-quota", type=int, default=None,
                        help="per-tenant inflight-task quota "
                             "(default unlimited)")
    parser.add_argument("--txlog", default=None,
                        help="write the facility's JSONL transaction "
                             "log here")
    parser.add_argument("--slo", default=None, metavar="POLICY",
                        help="monitor a JSON SLO policy during the "
                             "run; per-tenant rule states are "
                             "reported and alerts stamped into the "
                             "txlog (see repro.obs.slo)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the isolated baseline run (slowdown "
                             "falls back to fastest observed turnaround)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON document "
                             "(repro.obs --json conventions)")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    install_signal_handlers()
    if args.workload not in TABLE2:
        print(f"error: unknown workload {args.workload!r}; "
              f"have {sorted(TABLE2)}", file=sys.stderr)
        return EXIT_UNREADABLE
    spec = TABLE2[args.workload].scaled(args.scale)
    try:
        tenants, arrivals = serve_campaign(
            n_tenants=args.tenants, per_tenant=args.submissions,
            workload=args.workload, scale=args.scale,
            arrival=args.arrival, seed=args.seed,
            inflight_quota=args.inflight_quota)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE

    baselines = None
    if not args.no_baseline and arrivals:
        # every tenant submits the same DAG: one isolated run of it
        iso_env = build_environment(args.workers, seed=args.seed)
        iso = run_scheduler(iso_env, arrivals[0].workflow, "taskvine")
        if iso.completed:
            baselines = {spec.name: iso.makespan}

    env = build_environment(args.workers, seed=args.seed)
    facility = Facility(
        env, tenants, discipline=args.discipline,
        txlog_path=args.txlog,
        txlog_meta={"workload": spec.name,
                    "arrival": args.arrival,
                    "submissions_per_tenant": args.submissions},
        slo_policy=args.slo)
    result = facility.run(arrivals)
    if args.json:
        print_json(facility_report_data(result, baselines))
        return EXIT_OK if result.completed else EXIT_INCOMPLETE
    print(render_facility_report(result, baselines))
    slo = result.slo_monitor
    if slo is not None and slo.enabled:
        from ..obs.slo import render_slo_report
        print()
        print(render_slo_report(slo))
    if args.txlog:
        print()
        print(_tenant_chains(args.txlog))
        print(f"\ntransaction log -> {args.txlog} "
              f"(analyze: python -m repro.obs {args.txlog})")
    return EXIT_OK if result.completed else EXIT_INCOMPLETE


def _tenant_chains(txlog_path: str) -> str:
    """Per-tenant critical-path attribution: what each tenant's
    turnaround was actually spent on (causal chain from submit to its
    last task, see :func:`repro.obs.trace.critical_path_by_tenant`)."""
    from ..bench.report import format_table
    from ..obs.trace import critical_path_by_tenant
    chains = critical_path_by_tenant(txlog_path)
    rows = []
    for tenant, chain in sorted(chains.items()):
        phases = chain["phase_totals"]
        dominant = max(phases, key=phases.get) if phases else "-"
        rows.append((tenant, round(chain["total_s"], 1),
                     chain["tasks_on_path"],
                     f"{dominant} "
                     f"({phases.get(dominant, 0.0):.1f} s)"))
    return format_table(
        ["tenant", "chain (s)", "tasks on path", "dominant phase"],
        rows, title="per-tenant critical paths (from txlog)")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
