"""The benchmark's three workloads.

Each workload is a :class:`Workload`: the modules whose import counts
toward set-up, a ``setup`` that builds one iteration's inputs (the
cluster and the DAGs, before the first simulated event) and an
``iterate`` that builds, runs and reads back one iteration and returns
an :class:`Iteration` -- its timings, its committed task count, the
output digests compared against ``reference.json``, and the checks that
failed.

Workload choice (the one-line reasons are in ``BENCHMARK.json``):

* ``batch-fig14b`` is ``repro.bench.perf``'s ``fig14b-2400`` point,
  built and run the same way, so its config hash and the ledger rows in
  ``results/BENCH_perf.json`` stay comparable.  Observability is off:
  kernel and scheduler dominate, and an obs-only change must not move
  it.
* ``observed-dv3`` is the DV3-Large half of it with the full
  observability stack on, then the read path over the written log.
* ``serve-campaign`` is the always-on service with many small DAGs,
  checkpoints and a restore drill.  One campaign is a single draw of
  the arrival process, and its host-time figures depend on that draw,
  so each iteration draws a fresh campaign (``seed + 1000 * k``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import time
from typing import Callable, Dict, List, Tuple

from layers import RunPhase, Spent, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLO_POLICY = os.path.join(ROOT, "examples", "slo.json")


def digest(obj) -> str:
    """sha256 of the canonical JSON encoding of ``obj``."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclasses.dataclass
class Iteration:
    """One workload iteration as measured."""

    seed: int
    #: building the inputs (a ``setup_s`` sample)
    build: Spent
    #: the run phase: simulated events until the last task commits
    phase: RunPhase
    #: what the workload still waits on after the run phase (log
    #: analysis, watch catch-up, restore drill)
    post: Spent
    #: simulated tasks committed in the run phase
    tasks: int
    #: operations attempted (runs, or submissions plus the restore)
    ops: int
    #: (operation, message) for every failed check
    failures: List[Tuple[str, str]]
    #: figures that must equal the reference for this seed
    outputs: dict
    #: user-facing timings, name -> samples
    timings: Dict[str, List[float]]
    #: per-layer figures the workload reads off the simulator itself
    extras: Dict[str, float]
    #: tracer busy times and call counts over the whole iteration,
    #: read path and restore drill included (traced runs only)
    busy: Dict[str, float] = dataclasses.field(default_factory=dict)
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: modules imported (and timed) before the first set-up
    modules: Tuple[str, ...]
    #: scale name -> parameters
    scales: Dict[str, dict]
    setup: Callable
    iterate: Callable
    #: seed of iteration k, from the run's seed
    seed_for: Callable[[int, int], int] = lambda seed, k: seed


def _scaled_spec(name: str, scale: float):
    from repro.hep.datasets import TABLE2
    spec = TABLE2[name]
    if scale != 1.0:
        # the same scaling repro.bench.perf applies
        spec = dataclasses.replace(
            spec, name=f"{spec.name}-x{scale:g}",
            n_tasks=max(1, int(spec.n_tasks * scale)),
            input_bytes=spec.input_bytes * scale)
    return spec


def _build_part(spec_name: str, workers: int, scale: float, seed: int,
                bus=None):
    """Cluster + DAG for one Table II run, as ``repro.bench.perf``
    builds them."""
    from repro.bench import calibration as cal
    from repro.bench.runners import build_environment
    from repro.bench.workloads import build_workflow
    spec = _scaled_spec(spec_name, scale)
    env = build_environment(
        workers,
        node=cal.campus_node(disk=spec.worker_disk, ram=spec.worker_ram),
        seed=seed, bus=bus)
    workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY, seed=seed)
    return env, workflow


def _run_checks(result, workflow, op: str,
                failures: List[Tuple[str, str]]) -> None:
    if not result.completed:
        failures.append((op, f"run did not complete: {result.error}"))
    if result.tasks_done != len(workflow.tasks):
        failures.append((op, f"{result.tasks_done} of "
                             f"{len(workflow.tasks)} tasks committed"))


# -- batch-fig14b ---------------------------------------------------------------

def _batch_setup(seed: int, params: dict) -> None:
    for spec_name, workers, scale in params["parts"]:
        _build_part(spec_name, workers, scale, seed)


def _batch_iterate(seed: int, params: dict, phase: RunPhase) -> Iteration:
    from repro.bench import calibration as cal
    from repro.bench.runners import run_scheduler

    build = Spent()
    tasks = 0
    events = 0
    failures: List[Tuple[str, str]] = []
    outputs: Dict[str, list] = {"tasks": [], "makespan": [], "trace": []}
    for spec_name, workers, scale in params["parts"]:
        with build.measure():
            env, workflow = _build_part(spec_name, workers, scale, seed)
        with phase.measure():
            result = run_scheduler(env, workflow, "taskvine",
                                   cal.TASKVINE_FUNCTIONS_CONFIG)
        _run_checks(result, workflow, spec_name, failures)
        tasks += result.tasks_done
        events += env.sim.events_processed
        outputs["tasks"].append(result.tasks_done)
        outputs["makespan"].append(result.makespan)
        outputs["trace"].append(digest(env.trace.summary()))
        del env, workflow, result
    return Iteration(
        seed=seed, build=build, phase=phase, post=Spent(), tasks=tasks,
        ops=len(params["parts"]), failures=failures, outputs=outputs,
        timings={}, extras={"sim.events": events})


# -- observed-dv3 ---------------------------------------------------------------

def _observed_build(seed: int, params: dict):
    from repro.obs import EventBus
    from repro.obs.live import LiveAnalyzer
    from repro.obs.slo import SLOPolicy
    spec_name, workers, scale = params["part"]
    bus = EventBus()
    env, workflow = _build_part(spec_name, workers, scale, seed, bus=bus)
    live = LiveAnalyzer.install(bus)
    return env, workflow, live, SLOPolicy.from_file(SLO_POLICY)


def _observed_iterate(seed: int, params: dict,
                      phase: RunPhase) -> Iteration:
    from repro.bench import calibration as cal
    from repro.bench.runners import run_scheduler
    from repro.obs.analyze import report_data
    from repro.obs.live import LiveAnalyzer
    from repro.obs.txlog import read_records

    path = "observed.jsonl"
    build = Spent()
    with build.measure():
        env, workflow, live, policy = _observed_build(seed, params)
    with phase.measure():
        result = run_scheduler(env, workflow, "taskvine",
                               cal.TASKVINE_FUNCTIONS_CONFIG,
                               txlog_path=path, slo_policy=policy)
    failures: List[Tuple[str, str]] = []
    _run_checks(result, workflow, "run", failures)
    extras = {"sim.events": env.sim.events_processed,
              "obs.txlog.bytes": os.path.getsize(path)}

    post = Spent()
    with post.measure():
        t0 = time.perf_counter()
        report = report_data(path)
        t1 = time.perf_counter()
        watcher = LiveAnalyzer()
        watcher.feed(read_records(path))
        caught_up = watcher.snapshot()
        t2 = time.perf_counter()

    report_digest = digest(report)
    if digest(caught_up) != report_digest:
        failures.append(("run", "watch catch-up differs from "
                                "report_data on the same log"))
    if live.snapshot(sections=["summary"])["summary"] != report["summary"]:
        failures.append(("run", "live analyzer summary differs from "
                                "report_data"))
    outputs = {"tasks": result.tasks_done, "makespan": result.makespan,
               "txlog_sha256": file_sha256(path),
               "report_digest": report_digest}
    return Iteration(
        seed=seed, build=build, phase=phase, post=post,
        tasks=result.tasks_done, ops=1, failures=failures,
        outputs=outputs,
        timings={"analyze_s": [t1 - t0], "watch_catchup_s": [t2 - t1]},
        extras=extras)


# -- serve-campaign -------------------------------------------------------------

def _serve_build(seed: int, params: dict):
    """Tenants, arrivals, and the clusters of the campaign and of the
    restore drill."""
    from repro.bench.runners import build_environment
    from repro.bench.serve import serve_campaign
    tenants, arrivals = serve_campaign(
        n_tenants=params["tenants"], per_tenant=params["per_tenant"],
        workload="DV3-Small", scale=params["scale"],
        arrival=params["arrival"], seed=seed)
    arrivals = sorted(arrivals, key=lambda a: (a.t, a.tenant))
    return (tenants, arrivals,
            build_environment(params["workers"], seed=seed),
            build_environment(params["workers"], seed=seed))


def _commits(txlog: str) -> Tuple[List[str], set]:
    """Task ids of every TASK_DONE record in order, and the ids of
    tasks lineage recovery re-queued."""
    from repro.obs import events as ev
    from repro.obs.txlog import read_records
    committed, recovered = [], set()
    for record in read_records(txlog):
        if record.get("type") == ev.TASK_DONE:
            committed.append(record["task"])
        elif record.get("type") == ev.RECOVERY:
            recovered.add(record["task"])
    return committed, recovered


def _serve_iterate(seed: int, params: dict, phase: RunPhase) -> Iteration:
    from repro.obs import events as ev
    from repro.serve import (FacilityService, restore_service,
                             tenant_summaries)

    txlog, ckpt_path = "serve.jsonl", "serve.ckpt"
    build = Spent()
    with build.measure():
        tenants, arrivals, env, restore_env = _serve_build(seed, params)
    total_tasks = sum(len(a.workflow.tasks) for a in arrivals)

    admitted: Dict[str, float] = {}
    resolved: Dict[str, float] = {}

    def on_admit(_type, _t, fields):
        if fields.get("decision") == "admitted":
            admitted.setdefault(fields["submission"], time.perf_counter())

    def on_done(_type, _t, fields):
        resolved.setdefault(fields["submission"], time.perf_counter())

    async def campaign():
        service = FacilityService(
            env, tenants, discipline="wfs", txlog_path=txlog,
            checkpoint_path=ckpt_path,
            checkpoint_every=params["checkpoint_every"])
        service.bus.subscribe(ev.ADMIT, on_admit)
        service.bus.subscribe(ev.SUBMISSION_DONE, on_done)
        await service.start()
        futures = [await service.submit(a.tenant, a.workflow, tag=a.tag,
                                        at=a.t) for a in arrivals]
        result = await service.drain()
        return service, futures, result

    # checkpoint timers: the traced run's tracer has them, an untraced
    # run installs them alone
    clock = phase.tracer or Tracer().install(checkpoints_only=True)
    try:
        with phase.measure():
            service, futures, result = asyncio.run(campaign())
    finally:
        if clock is not phase.tracer:
            clock.uninstall()
    checkpoint_ms = [(build + write) * 1e3 for build, write in zip(
        clock.calls["serve.checkpoint.build"],
        clock.calls["serve.checkpoint.write"])]
    checkpoint_bytes = os.path.getsize(ckpt_path)
    wall = phase.wall_s

    failures: List[Tuple[str, str]] = []
    for index, fut in enumerate(futures):
        if fut.state != "done":
            failures.append((fut.sid or f"arrival{index}",
                             f"submission ended {fut.state}"))
    committed, recovered = _commits(txlog)
    if len(set(committed)) != total_tasks:
        failures.append(("campaign", f"{len(set(committed))} of "
                                     f"{total_tasks} tasks committed"))
    recommits = len(committed) - len(set(committed))
    if recommits > len(recovered):
        failures.append(("campaign", f"{recommits} repeated commits for "
                                     f"{len(recovered)} lineage "
                                     f"recoveries"))
    summaries = tenant_summaries(service.facility,
                                 set(service.manager.done))

    async def drill():
        t0 = time.perf_counter()
        restored = await restore_service(ckpt_path, restore_env, tenants,
                                         txlog_path="serve-restored.jsonl",
                                         discipline="wfs")
        restore_s = time.perf_counter() - t0
        # arrivals after the checkpoint were never acknowledged; the
        # clients submit them again, at their original times
        with open(ckpt_path) as fh:
            ckpt = json.load(fh)
        for a in arrivals[len(ckpt["submissions"]):]:
            await restored.submit(a.tenant, a.workflow, tag=a.tag, at=a.t)
        await restored.drain()
        return restored, ckpt, restore_s

    post = Spent()
    with post.measure():
        restored, ckpt, restore_s = asyncio.run(drill())
    # a checkpointed task may run again only when lineage recovery
    # re-creates an output a preempted worker took with it
    rerun, recovered = _commits("serve-restored.jsonl")
    redone = (set(rerun) - recovered) & set(ckpt["done"])
    if redone:
        failures.append(("restore", f"{len(redone)} checkpointed tasks "
                                    f"re-executed"))
    if set(ckpt["done"]) | set(rerun) != set(committed):
        failures.append(("restore", "checkpointed and re-run tasks are "
                                    "not the campaign's tasks"))
    if tenant_summaries(restored.facility,
                        set(restored.manager.done)) != summaries:
        failures.append(("restore", "restored tenant summaries differ "
                                    "from the uninterrupted run"))

    turnaround = [resolved[sid] - admitted[sid] for sid in resolved
                  if sid in admitted]
    outputs = {"tasks": len(service.manager.done),
               "makespan": result.run.makespan,
               "txlog_sha256": file_sha256(txlog),
               "summaries_digest": digest(summaries)}
    extras = {"sim.events": env.sim.events_processed,
              "obs.txlog.bytes": os.path.getsize(txlog),
              "serve.checkpoints": service.checkpoints,
              "serve.checkpoint.bytes": checkpoint_bytes,
              "serve.sim_s_per_wall_s": result.run.makespan / wall}
    return Iteration(
        seed=seed, build=build, phase=phase, post=post,
        tasks=len(service.manager.done), ops=len(arrivals) + 1,
        failures=failures, outputs=outputs,
        timings={"turnaround_s": turnaround,
                 "checkpoint_ms": checkpoint_ms,
                 "restore_s": [restore_s]},
        extras=extras)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="batch-fig14b",
        modules=("repro.bench.runners", "repro.bench.workloads",
                 "repro.bench.calibration"),
        scales={
            "full": {"parts": (("DV3-Large", 200, 1.0),
                               ("RS-TriPhoton", 200, 1.0))},
            "tiny": {"parts": (("DV3-Small", 4, 0.05),
                               ("RS-TriPhoton", 4, 0.01))},
        },
        setup=_batch_setup, iterate=_batch_iterate),
    Workload(
        name="observed-dv3",
        modules=("repro.bench.runners", "repro.bench.workloads",
                 "repro.bench.calibration", "repro.obs",
                 "repro.obs.analyze", "repro.obs.live", "repro.obs.slo"),
        scales={
            "full": {"part": ("DV3-Large", 200, 1.0)},
            "tiny": {"part": ("DV3-Small", 4, 0.05)},
        },
        setup=_observed_build, iterate=_observed_iterate),
    Workload(
        name="serve-campaign",
        modules=("repro.bench.runners", "repro.bench.serve",
                 "repro.serve"),
        scales={
            "full": {"tenants": 8, "per_tenant": 16, "scale": 0.05,
                     "arrival": "poisson:0.05", "workers": 24,
                     "checkpoint_every": 500},
            "tiny": {"tenants": 2, "per_tenant": 2, "scale": 0.05,
                     "arrival": "poisson:0.05", "workers": 4,
                     "checkpoint_every": 20},
        },
        setup=_serve_build, iterate=_serve_iterate,
        seed_for=lambda seed, k: seed + 1000 * k),
)}
