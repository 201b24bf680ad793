"""Chaos CLI: run a fault scenario against a stack and grade it.

Usage::

    python -m repro.chaos list
    python -m repro.chaos run --scenario preempt-storm-20 \\
        --stack taskvine --workload dv3-medium
    python -m repro.chaos run --scenario smoke --stack workqueue \\
        --workload dv3-small --scale 0.05 --workers 6
    python -m repro.chaos sweep --scenario preempt-storm-20 \\
        --stack taskvine --workload dv3-small --scale 0.1 \\
        --intensities 0.5,1.0,1.5,2.0

``run`` executes the workload twice with the same seed -- fault-free
(the baseline, whose makespan becomes the scenario horizon) and under
the scenario -- writes both transaction logs, and prints the
side-by-side resilience scorecard.  ``sweep`` repeats the chaos run at
scaled intensities to trace a degradation curve.  Background
preemption is disabled for both runs so the only faults are the
scenario's.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from ..bench import calibration as cal
from ..bench.report import format_table, write_report
from ..bench.runners import build_environment, run_scheduler
from ..bench.workloads import build_workflow
from ..hep.datasets import TABLE2
from .inject import estimate_horizon
from .scenario import SCENARIOS, get_scenario
from .scorecard import (compare, format_comparison,
                        format_span_inflation, score, span_inflation)

#: CLI stack aliases -> runner scheduler keys
STACKS = {
    "taskvine": "taskvine",
    "workqueue": "workqueue",
    "daskdist": "dask.distributed",
    "dask.distributed": "dask.distributed",
}


def _workload_spec(name: str, scale: float):
    by_lower = {key.lower(): key for key in TABLE2}
    try:
        spec = TABLE2[by_lower[name.lower()]]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"have {sorted(TABLE2)}")
    return spec.scaled(scale)


def _build(args, spec):
    """Fresh environment + workflow (identical across the two runs)."""
    node = (cal.dask_sharded_node()
            if STACKS[args.stack] == "dask.distributed" else None)
    env = build_environment(args.workers, node=node, seed=args.seed,
                            preemption_rate=0.0)
    workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY,
                              seed=args.seed)
    return env, workflow


def _txlog_path(args, spec, tag: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    stem = f"{spec.name}-{args.stack}-{args.scenario}-{tag}".lower()
    return os.path.join(args.out, f"{stem}.jsonl")


def _baseline(args, spec):
    """Fault-free run; its makespan is the scenario horizon."""
    env, workflow = _build(args, spec)
    path = _txlog_path(args, spec, "baseline")
    result = run_scheduler(env, workflow, STACKS[args.stack],
                           txlog_path=path)
    if result.completed:
        horizon = result.makespan
    else:
        horizon = estimate_horizon(workflow, env.total_cores)
    return result, score(path), horizon, path


def _chaos_run(args, spec, scenario, horizon):
    env, workflow = _build(args, spec)
    path = _txlog_path(args, spec, f"chaos-{scenario.name}".lower())
    run_scheduler(env, workflow, STACKS[args.stack],
                  txlog_path=path, chaos=scenario,
                  chaos_horizon=horizon,
                  slo_policy=getattr(args, "slo", None))
    return score(path), path


def _list(args) -> str:
    rows = [(s.name, len(s.injections), s.seed, s.description)
            for s in SCENARIOS.values()]
    return format_table(["scenario", "injections", "seed", "description"],
                        sorted(rows), title="chaos scenarios")


def _run(args) -> str:
    scenario = get_scenario(args.scenario)
    spec = _workload_spec(args.workload, args.scale)
    _, baseline_card, horizon, baseline_path = _baseline(args, spec)
    chaos_card, chaos_path = _chaos_run(args, spec, scenario, horizon)
    verdict = compare(baseline_card, chaos_card)
    lines = [format_comparison(
        baseline_card, [chaos_card],
        title=f"{spec.name} / {args.stack} under {scenario.name} "
              f"(horizon {horizon:.0f} s)")]
    if chaos_card.reexecuted_tasks:
        inflation = span_inflation(chaos_path)
        lines.append("")
        lines.append(format_span_inflation(
            inflation, title=f"span inflation under {scenario.name}: "
                             f"where recovery time went"))
    if chaos_card.completed:
        lines.append(
            f"\nverdict: completed, "
            f"bin-identical={verdict['bin_identical']}, "
            f"{chaos_card.reexecuted_tasks} tasks re-executed, "
            f"{chaos_card.recovery_bytes / 1e9:.1f} GB recovery "
            f"traffic, +{verdict['added_makespan_s']:.0f} s makespan")
    else:
        lines.append(f"\nverdict: DID NOT COMPLETE -- "
                     f"{chaos_card.error}")
    lines.append(f"txlogs: {baseline_path}  {chaos_path}")
    return "\n".join(lines)


def _sweep(args) -> str:
    scenario = get_scenario(args.scenario)
    spec = _workload_spec(args.workload, args.scale)
    _, baseline_card, horizon, _ = _baseline(args, spec)
    intensities = [float(x) for x in args.intensities.split(",")]
    rows = []
    for intensity in intensities:
        card, _ = _chaos_run(args, spec, scenario.scaled(intensity),
                             horizon)
        verdict = compare(baseline_card, card)
        rows.append((
            f"{intensity:g}",
            card.completed,
            verdict["bin_identical"],
            round(card.makespan, 1) if card.completed else "DNF",
            card.reexecuted_tasks,
            round(card.recovery_bytes / 1e9, 2),
            round(card.wasted_exec_seconds, 1),
        ))
    return format_table(
        ["intensity", "completed", "bin-identical", "makespan (s)",
         "reexecuted", "recovery GB", "wasted core-s"],
        rows,
        title=f"degradation curve: {spec.name} / {args.stack} under "
              f"{scenario.name} (baseline {baseline_card.makespan:.0f} s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault injection with a resilience "
                    "scorecard.")
    parser.add_argument("command", choices=("run", "sweep", "list"))
    parser.add_argument("--scenario", default="smoke",
                        help="scenario name (see `list`)")
    parser.add_argument("--stack", default="taskvine",
                        choices=sorted(STACKS),
                        help="scheduler stack to break")
    parser.add_argument("--workload", default="DV3-Small",
                        help="Table II configuration "
                             "(case-insensitive)")
    parser.add_argument("--workers", type=int, default=60)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale n_tasks and input bytes")
    parser.add_argument("--intensities", default="0.5,1.0,1.5,2.0",
                        help="comma-separated scale factors for sweep")
    parser.add_argument("--slo", default=None, metavar="POLICY",
                        help="monitor a JSON SLO policy during the "
                             "chaos run; alerts land in the txlog and "
                             "are graded in the scorecard")
    parser.add_argument("--out", default="results/chaos",
                        help="directory for txlogs and reports")
    return parser


COMMANDS = {"run": _run, "sweep": _sweep, "list": _list}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM/SIGINT flush + terminate any open txlog so a stopped
    # run never leaves an unterminated tail behind (repro.obs.txlog)
    from ..obs.txlog import install_signal_handlers
    install_signal_handlers()
    report = COMMANDS[args.command](args)
    print(report)
    if args.command != "list":
        write_report(args.out,
                     f"{args.command}-{args.workload}-{args.stack}-"
                     f"{args.scenario}".lower(), report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
