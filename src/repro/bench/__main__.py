"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro.bench list
    python -m repro.bench table1
    python -m repro.bench fig14b --out results/
    python -m repro.bench fig11 --seed 7
    python -m repro.bench run --workload DV3-Small --scale 0.05 \\
        --workers 4 --txlog results/run.jsonl
    python -m repro.bench perf --workload smoke --out BENCH_perf.json

Each command runs the corresponding experiment driver and prints the
paper-style report (optionally archiving it under ``--out``).  The
``run`` command executes a single scheduler run and can persist its
transaction log for ``python -m repro.obs``.  The ``perf`` command is
the wall-clock benchmark harness (its options live in
:mod:`repro.bench.perf`; it parses its own argv).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from ..sim.viz import render_heatmap, render_timeline
from . import experiments as ex
from .report import format_series, format_table, write_report


def _table1(args) -> str:
    rows = ex.table1(n_workers=args.workers, seed=args.seed)
    return format_table(
        ["Stack", "Change", "Runtime (s)", "Speedup", "Paper (s)"],
        [(r["stack"], r["change"], round(r["runtime_s"]),
          f"{r['speedup']:.2f}x", round(r["paper_runtime_s"]))
         for r in rows],
        title="TABLE I: Overall Stack Performance")


def _table2(args) -> str:
    rows = ex.table2()
    return format_table(
        ["Workload", "App", "Input (GB)", "Tasks", "Initially ready"],
        [(r["name"], r["application"], round(r["input_gb"]),
          r["tasks_built"], r["initial_ready"]) for r in rows],
        title="TABLE II: Application configurations")


def _fig7(args) -> str:
    data = ex.fig7(n_workers=args.workers, seed=args.seed)
    parts = []
    for label in ("workqueue", "taskvine"):
        d = data[label]
        parts.append(render_heatmap(
            d["matrix_gb"], max_cells=40,
            title=f"{label}: bytes between node pairs "
                  f"(manager out mean "
                  f"{d['manager_out_per_worker_gb']['mean']:.1f} GB, "
                  f"peer max pair {d['peer_max_pair_gb']:.1f} GB)"))
    return "\n\n".join(parts)


def _fig8(args) -> str:
    data = ex.fig8(n_workers=args.workers, seed=args.seed)
    return format_table(
        ["Mode", "Median (s)", "Fraction 1-10 s"],
        [("standard tasks", round(data["standard_tasks"]["median"], 2),
          round(data["standard_tasks"]["frac_1_to_10s"], 2)),
         ("function calls", round(data["function_calls"]["median"], 2),
          round(data["function_calls"]["frac_1_to_10s"], 2))],
        title="FIG 8: task execution time distribution")


def _fig10(args) -> str:
    rows = ex.fig10()
    return format_table(
        ["Complexity", "Task (s)", "Speedup local", "Speedup VAST"],
        [(r["complexity"], round(r["task_seconds"], 2),
          f"{r['speedup_local']:.2f}x", f"{r['speedup_vast']:.2f}x")
         for r in rows],
        title="FIG 10: import hoisting speedup")


def _fig11(args) -> str:
    data = ex.fig11(seed=args.seed)
    return format_table(
        ["Reduction", "Makespan (s)", "Worker failures",
         "Peak cache (GB)"],
        [(label, round(d["makespan"]), d["worker_failures"],
          round(d["peak_cache_gb_max"])) for label, d in data.items()],
        title="FIG 11: flat vs tree reduction")


def _fig12(args) -> str:
    data = ex.fig12(n_workers=args.workers, seed=args.seed)
    parts = []
    for stack in (1, 2, 3, 4):
        parts.append(render_timeline(
            data["t"], data[f"stack{stack}"]["running"], width=60,
            height=8, title=f"Stack {stack}: running tasks "
                            f"(first 300 s)"))
    return "\n\n".join(parts)


def _fig13(args) -> str:
    rows = ex.fig13(seed=args.seed)
    return format_table(
        ["Stack", "Workers", "Makespan (s)", "Mean concurrency"],
        [(r["stack"], r["workers"], round(r["makespan"]),
          round(r["mean_concurrency"])) for r in rows],
        title="FIG 13: worker occupancy")


def _fig14a(args) -> str:
    rows = ex.fig14a(seed=args.seed)
    return format_table(
        ["Workload", "Cores", "TaskVine (s)", "Dask (s)"],
        [(r["workload"], r["cores"], round(r["taskvine_s"], 1),
          round(r["dask_s"], 1) if r["dask_completed"] else "DNF")
         for r in rows],
        title="FIG 14a: TaskVine vs Dask.Distributed")


def _fig14b(args) -> str:
    rows = ex.fig14b(seed=args.seed)
    return format_table(
        ["Workload", "Cores", "Runtime (s)"],
        [(r["workload"], r["cores"], round(r["runtime_s"], 1))
         for r in rows],
        title="FIG 14b: scaling to 2400 cores")


def _fig15(args) -> str:
    data = ex.fig15(seed=args.seed)
    chart = render_timeline(data["t"], data["running"], width=70,
                            height=10,
                            title="FIG 15: DV3-Huge running tasks")
    return (f"{chart}\n\nmakespan {data['makespan']:.0f} s, "
            f"peak concurrency {data['peak_concurrency']:.0f}, "
            f"{data['tasks']} tasks on {data['cores']} cores")


def _run(args) -> str:
    """One observable scheduler run (``--txlog`` feeds repro.obs)."""
    from ..hep.datasets import TABLE2
    from . import calibration as cal
    from .runners import build_environment, run_scheduler
    from .workloads import build_workflow

    if args.workload not in TABLE2:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"have {sorted(TABLE2)}")
    spec = TABLE2[args.workload].scaled(args.scale)
    scenario = None
    if args.chaos:
        from ..chaos import get_scenario
        try:
            scenario = get_scenario(args.chaos)
        except KeyError as exc:
            raise SystemExit(str(exc))
    slo_policy = None
    if args.slo:
        from ..obs.slo import SLOPolicy
        try:
            slo_policy = SLOPolicy.from_file(args.slo)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise SystemExit(f"cannot load SLO policy "
                             f"{args.slo}: {exc}")
    node = (cal.dask_sharded_node()
            if args.scheduler == "dask.distributed" else None)
    env = build_environment(args.workers, node=node, seed=args.seed)
    if args.tenants:
        # multi-tenant route: every tenant submits the workload to one
        # shared facility; the arrival spec + tenant count are stamped
        # in the txlog RUN header (same pattern as --chaos)
        if args.scheduler != "taskvine":
            raise SystemExit("--tenants requires the taskvine "
                             "scheduler (the facility shares one "
                             "TaskVine manager)")
        from ..facility import Facility, render_facility_report
        from .serve import serve_campaign
        tenants, arrivals = serve_campaign(
            n_tenants=args.tenants, per_tenant=1,
            workload=args.workload, scale=args.scale,
            arrival=args.arrival, seed=args.seed)
        facility = Facility(
            env, tenants, txlog_path=args.txlog,
            txlog_meta={"tenants": args.tenants,
                        "arrival": args.arrival,
                        "workload": spec.name,
                        **({"chaos": scenario.describe()}
                           if scenario is not None else {})},
            slo_policy=slo_policy)
        fac_result = facility.run(arrivals, chaos=scenario)
        table = render_facility_report(fac_result)
        result = fac_result.run
    else:
        workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY,
                                  seed=args.seed)
        result = run_scheduler(env, workflow, args.scheduler,
                               txlog_path=args.txlog, chaos=scenario,
                               slo_policy=slo_policy)
        table = format_table(
            ["Workload", "Scheduler", "Workers", "Tasks done",
             "Failures", "Makespan (s)"],
            [(spec.name, args.scheduler, args.workers,
              result.tasks_done, result.task_failures,
              round(result.makespan, 1) if result.completed else "DNF")],
            title="RUN: single scheduler run")
    slo = result.slo_monitor
    if slo is not None and slo.enabled:
        from ..obs.slo import render_slo_report
        table += "\n\n" + render_slo_report(slo)
    if scenario is not None and not args.tenants:
        table += (f"\nchaos scenario {scenario.name!r}: "
                  f"{len(result.chaos_injections)} injections fired "
                  f"(scorecard: python -m repro.chaos)")
    if args.txlog:
        table += (f"\ntransaction log -> {args.txlog} "
                  f"(analyze: python -m repro.obs {args.txlog})")
    return table


COMMANDS: Dict[str, Callable] = {
    "table1": _table1, "table2": _table2, "fig7": _fig7,
    "fig8": _fig8, "fig10": _fig10, "fig11": _fig11, "fig12": _fig12,
    "fig13": _fig13, "fig14a": _fig14a, "fig14b": _fig14b,
    "fig15": _fig15, "run": _run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("command",
                        choices=sorted(COMMANDS) + ["list", "all"],
                        help="which experiment to run")
    parser.add_argument("--workers", type=int, default=200,
                        help="workers for the stack experiments "
                             "(default: the paper's 200)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default=None,
                        help="directory to archive the report into")
    group = parser.add_argument_group("run", "options for the `run` "
                                             "command")
    group.add_argument("--workload", default="DV3-Small",
                       help="Table II configuration name "
                            "(default DV3-Small)")
    group.add_argument("--scheduler", default="taskvine",
                       choices=("taskvine", "workqueue",
                                "dask.distributed"))
    group.add_argument("--scale", type=float, default=1.0,
                       help="scale n_tasks and input bytes by this "
                            "factor (e.g. 0.05 for a smoke run)")
    group.add_argument("--txlog", default=None,
                       help="write the run's JSONL transaction log "
                            "here")
    group.add_argument("--chaos", default=None, metavar="SCENARIO",
                       help="inject a repro.chaos fault scenario into "
                            "the run (recorded in the txlog RUN "
                            "header; see `python -m repro.chaos list`)")
    group.add_argument("--tenants", type=int, default=0, metavar="N",
                       help="run the workload as N concurrent tenants "
                            "through the shared facility (recorded in "
                            "the txlog RUN header; 0 = single-tenant)")
    group.add_argument("--slo", default=None, metavar="POLICY",
                       help="monitor a JSON SLO policy during the "
                            "run; alerts are stamped into the txlog "
                            "(see repro.obs.slo)")
    group.add_argument("--arrival", default="poisson:0.05",
                       metavar="SPEC",
                       help="arrival process with --tenants: "
                            "poisson:RATE, burst[:SPACING], or "
                            "replay:PATH (default poisson:0.05)")
    return parser


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["perf"]:
        # the perf harness has its own option set (labels, schema
        # check, per-workload subprocesses); hand it the rest of argv
        from .perf import main as perf_main
        return perf_main(argv[1:])
    if argv[:1] == ["sentinel"]:
        # regression detection over BENCH_perf.json captures; its exit
        # code is the verdict (0 ok, 3 regression, 2 usage error)
        from .sentinel import main as sentinel_main
        return sentinel_main(argv[1:])
    args = build_parser().parse_args(argv)
    # SIGTERM/SIGINT flush + terminate any open txlog so a stopped
    # run never leaves an unterminated tail behind (repro.obs.txlog)
    from ..obs.txlog import install_signal_handlers
    install_signal_handlers()
    if args.command == "list":
        for name in sorted([*COMMANDS, "perf", "sentinel"]):
            print(name)
        return 0
    if args.command == "all":  # every figure/table; not the ad-hoc run
        names = sorted(n for n in COMMANDS if n != "run")
    else:
        names = [args.command]
    for name in names:
        report = COMMANDS[name](args)
        print(report)
        print()
        if args.out:
            write_report(args.out, name, report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
