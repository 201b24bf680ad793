"""Host-time benchmark of the simulator, one workload per invocation.

    python3 perfbench/run.py --workload batch-fig14b|observed-dv3|serve-campaign
        [--seed 11] [--seconds 42] [--trace 0|1]

Run from anywhere inside a full checkout: the simulator is imported
from ``src/`` next to this directory.  The run imports the simulator,
times that import in fresh interpreters and builds the workload's
inputs three times (``setup_s``), then runs iterations until
``--seconds`` would be exceeded, checks every simulated output, and
prints human-readable lines followed by one JSON line::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs with
the per-layer instruments of ``layers.py`` and reports the per-layer
metrics instead.  ``README.md`` defines every metric.

Outputs are checked against ``reference.json`` (recorded per seed with
``--record``), against the other iterations of the same seed, and
against invariants that hold for any seed.  The exit status is 0 when
every check passed, 1 when one failed, 2 when the simulator sources
are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".perfbench_work")

#: fresh interpreters that each time the import of the workload's
#: simulator modules
IMPORT_SAMPLES = 5

#: set-up-only builds before the first iteration (each iteration's own
#: build is a further set-up sample)
SETUP_SAMPLES = 3

#: run by each fresh interpreter: SRC, then the modules to import;
#: prints the wall and CPU seconds of the import
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
cpu0 = time.process_time()
t0 = time.perf_counter()
for module in sys.argv[2:]:
    __import__(module)
print(time.perf_counter() - t0, time.process_time() - cpu0)
"""

#: run-phase samples (2 ms each) below which the traced run does not
#: judge how much of the phase fell in simulator modules
MIN_JUDGED_SAMPLES = 500


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _pooled(it_list, name: str) -> List[float]:
    return [x for it in it_list for x in it.timings.get(name, ())]


def _quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (nearest rank over the sorted samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, (len(ordered) * q) // 100)]


# -- metrics --------------------------------------------------------------------
# Each end-to-end metric is computed from the whole run; each per-layer
# metric from one iteration, and the run reports the median over its
# iterations.  End-to-end times are CPU seconds of the process: the
# simulator is CPU-bound, and CPU time leaves out the waits (an fsync
# on a busy disk, another process holding the core) that make wall
# time on a shared host swing between runs of the same code.  The
# human-readable lines print the wall times beside them.

END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", lambda run: _median(
        s.cpu_s for s in run["import_samples"])
        + _median(s.cpu_s for s in run["setup_samples"])),
    "tasks_per_s": ("1/s", lambda run: _median(
        it.tasks / it.phase.cpu_s for it in run["iterations"])),
    "peak_rss_mb": ("MB", lambda run: run["peak_rss_mb"]),
    "iteration_s": ("s", lambda run: _median(
        it.phase.cpu_s + it.post.cpu_s for it in run["iterations"])),
}

#: user-facing timings of one workload each; printed on the human lines
#: of every run and reported as per-layer metrics of the traced run
WORKLOAD_TIMINGS: Dict[str, tuple] = {
    "analyze_s": ("s", lambda its: _median(_pooled(its, "analyze_s"))),
    "watch_catchup_s": ("s", lambda its: _median(
        _pooled(its, "watch_catchup_s"))),
    "turnaround_p50_s": ("s", lambda its: _quantile(
        _pooled(its, "turnaround_s"), 50)),
    "turnaround_p90_s": ("s", lambda its: _quantile(
        _pooled(its, "turnaround_s"), 90)),
    "checkpoint_ms": ("ms", lambda its: _median(
        _pooled(its, "checkpoint_ms"))),
    "restore_s": ("s", lambda its: _median(_pooled(its, "restore_s"))),
}


def _c(key: str) -> Callable:
    return lambda it: it.phase.counts.get(key, 0)


def _b(key: str) -> Callable:
    return lambda it: it.phase.busy.get(key, 0.0)


def _x(key: str) -> Callable:
    return lambda it: it.extras.get(key, 0)


PER_LAYER: Dict[str, tuple] = {
    # sim kernel
    "sim.events": ("count", _x("sim.events")),
    "sim.events_per_task": ("count", lambda it: (
        it.extras["sim.events"] / it.tasks if it.tasks else 0.0)),
    "sim.timeouts": ("count", _c("sim.timeouts")),
    "sim.kernel_frac": ("ratio", lambda it: it.phase.phase_frac("kernel")),
    # sim substrate
    "sim.net.transfers": ("count", _c("sim.net.transfers")),
    "sim.net.transfer_s": ("s", lambda it: it.phase.self_time(
        lambda module: module == "repro.sim.network")),
    "sim.storage.ops": ("count", _c("sim.storage.ops")),
    # core
    "core.placement.calls": ("count", _c("core.placement")),
    "core.placement.s": ("s", _b("core.placement")),
    "core.readyq.pops": ("count", lambda it: (
        it.phase.counts.get("core.readyq.pop", 0)
        + it.phase.counts.get("facility.pop", 0))),
    "core.replica.ops": ("count", _c("core.replica.ops")),
    "core.scheduler_frac": ("ratio", lambda it: it.phase.phase_frac(
        "scheduler")),
    "core.worker_frac": ("ratio", lambda it: it.phase.phase_frac("worker")),
    # sim.trace
    "trace.records": ("count", _c("trace")),
    "trace.s": ("s", _b("trace")),
    # obs write path
    "obs.emits": ("count", _c("obs.emit")),
    "obs.emit_s": ("s", _b("obs.emit")),
    "obs.txlog.records": ("count", _c("obs.txlog.record")),
    "obs.txlog.bytes": ("B", _x("obs.txlog.bytes")),
    "obs.txlog.record_s": ("s", _b("obs.txlog.record")),
    "obs.live.s": ("s", _b("obs.live")),
    "obs.slo.s": ("s", _b("obs.slo")),
    # obs read path: report_data's load (parse) and assemble (finalize)
    # are timed, the folds between them are the rest of analyze_s
    "obs.read.records_per_s": ("1/s", lambda it: (
        it.counts["obs.read.records"] / it.busy["obs.read"]
        if it.busy.get("obs.read") else 0.0)),
    "obs.fold_s": ("s", lambda it: (
        sum(it.timings["analyze_s"]) - it.busy["obs.read"]
        - it.busy["obs.finalize"] if "analyze_s" in it.timings else 0.0)),
    "obs.finalize_s": ("s", lambda it: it.busy.get("obs.finalize", 0.0)),
    # facility
    "facility.submit_s": ("s", _b("facility.submit")),
    "facility.admitted": ("count", _c("facility.admitted")),
    "facility.queued": ("count", _c("facility.queued")),
    "facility.rejected": ("count", _c("facility.rejected")),
    "facility.pop_s": ("s", _b("facility.pop")),
    # serve: checkpoints run inside the campaign, the restore after it
    "serve.checkpoints": ("count", _x("serve.checkpoints")),
    "serve.checkpoint.fold_s": ("s", _b("serve.checkpoint.fold")),
    "serve.checkpoint.reread_records": (
        "count", _c("serve.checkpoint.reread_records")),
    "serve.checkpoint.write_s": ("s", _b("serve.checkpoint.write")),
    "serve.checkpoint.bytes": ("B", _x("serve.checkpoint.bytes")),
    "serve.restore.load_s": ("s", lambda it: it.busy.get(
        "serve.restore.load", 0.0)),
    "serve.sim_s_per_wall_s": ("ratio", _x("serve.sim_s_per_wall_s")),
    # process
    "proc.cpu_s": ("s", lambda it: it.phase.cpu_s),
    "proc.cpu_frac": ("ratio", lambda it: it.phase.cpu_s / it.phase.wall_s),
    "proc.gc_s": ("s", lambda it: it.phase.gc_s),
    "proc.gc_collections": ("count", lambda it: it.phase.gc_collections),
    # the instruments themselves
    "bench.traced_tasks_per_s": ("1/s", lambda it: (
        it.tasks / it.phase.cpu_s)),
    "bench.accounted_frac": ("ratio", lambda it: (
        it.phase.accounted_frac())),
}


# -- reference ------------------------------------------------------------------

def load_reference(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def check_outputs(outputs: dict, expected: Optional[dict]) -> List[str]:
    """Names of the outputs that differ from ``expected`` (after a JSON
    round trip, the form the reference is stored in)."""
    if expected is None:
        return []
    got = json.loads(json.dumps(outputs))
    return sorted(key for key in set(got) | set(expected)
                  if got.get(key) != expected.get(key))


def record_reference(path: str, workload: str, scale: str,
                     iterations) -> None:
    doc = load_reference(path)
    table = doc.setdefault(workload, {}).setdefault(scale, {})
    for it in iterations:
        table[str(it.seed)] = json.loads(json.dumps(it.outputs))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- provenance -----------------------------------------------------------------

def provenance(seed: int, load_at_start: float) -> dict:
    from repro.bench.perf import current_git_sha, workload_config_hash
    return {"git_sha": current_git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_1m_at_start": load_at_start, "seed": seed,
            "fig14b_2400_config_hash": workload_config_hash(
                "fig14b-2400", seed)}


def config_problems() -> List[str]:
    """The full ``batch-fig14b`` must be ``repro.bench.perf``'s
    ``fig14b-2400``, whose config hash the provenance line prints."""
    from repro.bench.perf import WORKLOAD_CONFIGS
    from workloads import WORKLOADS
    config = WORKLOAD_CONFIGS["fig14b-2400"]
    parts = WORKLOADS["batch-fig14b"].scales["full"]["parts"]
    if set(config) != {"specs", "scale", "workers"}:
        return [f"fig14b-2400 has keys {sorted(config)}; batch-fig14b "
                f"defines only specs, scale and workers"]
    pinned = tuple((spec, config["workers"], config["scale"])
                   for spec in config["specs"])
    if parts != pinned:
        return [f"batch-fig14b runs {parts}, not fig14b-2400's {pinned}"]
    return []


# -- the run --------------------------------------------------------------------

def time_import(modules):
    """Wall and CPU seconds a fresh interpreter takes to import
    ``modules``."""
    from layers import Spent
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC,
                           *modules], capture_output=True, text=True,
                          timeout=120, check=True)
    spent = Spent()
    spent.wall_s, spent.cpu_s = map(float, proc.stdout.split())
    return spent


def measure(workload, params: dict, seed: int, seconds: float,
            traced: bool) -> dict:
    """Time the imports and set up, warm up, then iterate until the
    next iteration would overrun ``seconds`` (at least one
    iteration)."""
    from layers import RunPhase, Spent, Tracer
    start = time.perf_counter()
    deadline = start + seconds
    import_samples = [time_import(workload.modules)
                      for _ in range(IMPORT_SAMPLES)]
    tracer = Tracer().install() if traced else None
    setup_samples: List[Spent] = []
    iterations = []
    try:
        for _ in range(SETUP_SAMPLES):
            spent = Spent()
            with spent.measure():
                workload.setup(workload.seed_for(seed, 0), params)
            setup_samples.append(spent)
            gc.collect()
        # one untimed tiny-scale iteration first, so the timed ones do
        # not pay for the first pass through each code path
        warmup = workload.iterate(workload.seed_for(seed, 0),
                                  workload.scales["tiny"], RunPhase(None))
        gc.collect()
        k = 0
        while True:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.reset()
            it = workload.iterate(workload.seed_for(seed, k), params,
                                  RunPhase(tracer))
            if tracer is not None:
                it.busy = dict(tracer.busy)
                it.counts = dict(tracer.counts)
            iterations.append(it)
            setup_samples.append(it.build)
            gc.collect()
            k += 1
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"import_samples": import_samples,
            "setup_samples": setup_samples, "warmup": warmup,
            "iterations": iterations,
            "measured_s": time.perf_counter() - start}


def judge(name: str, scale: str, iterations, reference: dict) -> dict:
    """Attempted and failed operations, and every failure message."""
    table = reference.get(name, {}).get(scale, {})
    attempted = failed = 0
    messages: List[str] = []
    first_by_seed: Dict[int, dict] = {}
    for index, it in enumerate(iterations):
        attempted += it.ops
        failures = list(it.failures)
        for key in check_outputs(it.outputs, table.get(str(it.seed))):
            failures.append(("reference", f"{key} differs from the "
                                          f"reference for seed {it.seed}"))
        first = first_by_seed.setdefault(it.seed, it.outputs)
        for key in check_outputs(it.outputs, json.loads(json.dumps(first))):
            failures.append(("repeat", f"{key} differs between two "
                                       f"iterations of seed {it.seed}"))
        failed += min(it.ops, len({op for op, _ in failures}))
        messages += [f"iteration {index} (seed {it.seed}) {op}: {message}"
                     for op, message in failures]
    seeds = sorted({it.seed for it in iterations})
    return {"attempted": attempted, "failed": failed,
            "messages": messages,
            "reference_seeds": [s for s in seeds if str(s) in table]}


def traced_checks(iterations) -> List[str]:
    """The layer accounts must add up to the run phase they cover.

    The sampled share is judged only on a run phase long enough for it
    to mean something: entering and leaving the phase costs a sample or
    two outside the simulator, a large share of a tiny-scale phase.
    """
    problems = []
    for index, it in enumerate(iterations):
        phase = it.phase
        accounted = phase.accounted_frac()
        if phase.samples >= MIN_JUDGED_SAMPLES and accounted < 0.9:
            problems.append(f"iteration {index}: only {accounted:.1%} of "
                            f"run-phase samples fall in a layer")
        for key, busy in phase.busy.items():
            if busy > phase.wall_s:
                problems.append(f"iteration {index}: {key} busy "
                                f"{busy:.3f} s exceeds the run phase "
                                f"{phase.wall_s:.3f} s")
    return problems


def build_parser() -> argparse.ArgumentParser:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Host-time benchmark of the simulator.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long version of the "
                             "workload, for the self-tests")
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference outputs to check against")
    parser.add_argument("--record", metavar="PATH", default=None,
                        help="write this run's outputs into PATH as the "
                             "reference for its seeds")
    return parser


def main(argv: Optional[list] = None) -> int:
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: simulator sources not found under {SRC}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    params = workload.scales[args.scale]
    load_at_start = os.getloadavg()[0]

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for module in workload.modules:
        importlib.import_module(module)

    # outputs that embed file names (the serve checkpoint path) must not
    # depend on where the checkout lives: run inside a private directory
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run = measure(workload, params, args.seed, args.seconds,
                      bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    run["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    iterations = run["iterations"]

    if args.record:
        record_reference(args.record, args.workload, args.scale, iterations)
    verdict = judge(args.workload, args.scale, iterations,
                    load_reference(args.reference))
    problems = (config_problems() + verdict["messages"]
                + [f"warm-up {op}: {message}"
                   for op, message in run["warmup"].failures])
    if args.trace:
        problems += traced_checks(iterations)

    print(f"perfbench {args.workload} scale={args.scale} seed={args.seed} "
          f"trace={args.trace}: {len(iterations)} iterations in "
          f"{run['measured_s']:.1f} s")
    print("provenance " + json.dumps(provenance(args.seed, load_at_start),
                                     sort_keys=True))
    for name, samples in (("import", run["import_samples"]),
                          ("build", run["setup_samples"])):
        print(f"setup: {name} {_median(s.cpu_s for s in samples):.3f} s "
              f"CPU, {_median(s.wall_s for s in samples):.3f} s wall "
              f"(medians of {len(samples)})")
    for index, it in enumerate(iterations):
        print(f"iteration {index} seed {it.seed}: {it.tasks} tasks; CPU s "
              f"build {it.build.cpu_s:.3f}, run {it.phase.cpu_s:.3f}, "
              f"after-run {it.post.cpu_s:.3f}; wall s build "
              f"{it.build.wall_s:.3f}, run {it.phase.wall_s:.3f}, "
              f"after-run {it.post.wall_s:.3f}")
    if args.trace:
        metrics = {name: {"value": _median(fn(it) for it in iterations),
                          "unit": unit}
                   for name, (unit, fn) in PER_LAYER.items()}
        for name, (unit, fn) in WORKLOAD_TIMINGS.items():
            metrics[name] = {"value": fn(iterations), "unit": unit}
    else:
        metrics = {name: {"value": fn(run), "unit": unit}
                   for name, (unit, fn) in END_TO_END.items()}
        for name, (unit, fn) in WORKLOAD_TIMINGS.items():
            value = fn(iterations)
            if value:
                print(f"{name} {value:.6g} {unit}")
        wall_rate = _median(it.tasks / it.phase.wall_s for it in iterations)
        wall_iteration = _median(it.phase.wall_s + it.post.wall_s
                                 for it in iterations)
        print(f"wall-clock: tasks_per_s {wall_rate:.6g} 1/s, iteration_s "
              f"{wall_iteration:.6g} s (medians over iterations)")
    attempted, failed = verdict["attempted"], verdict["failed"]
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations)")
    print("reference: seeds " + (", ".join(map(str, verdict["reference_seeds"]))
                                 or "none") + " checked")
    for line in problems:
        print(f"FAILED {line}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
