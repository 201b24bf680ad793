"""Facility fairness: 8 tenants sharing one 64-node manager.

Two heavy analysis groups submit ~600-task DAGs at the Monday-morning
burst; six small analysts arrive over seeded Poisson gaps while the
heavy backlog is still draining.  The benchmark makes the multi-tenant
case for the facility:

* **FIFO head-of-line blocking**: the small tenants' p95 turnaround
  sits behind the heavy backlog.  **Weighted fair share** rescues it
  without hurting overall completion.
* **Fairness**: Jain's index over per-tenant mean slowdown (facility
  turnaround / isolated run of the same DAG) stays >= 0.9 under WFS.
* **Shared cache**: identical chunks stage once, not once per tenant
  -- total staged bytes undercut the sum of isolated managers.
* **Physics unchanged**: each tenant's pseudo-histogram is
  bin-identical to its isolated baseline, and the whole facility run
  is byte-stable across two same-seed executions.
"""

import os

import numpy as np

from repro.bench.runners import build_environment, run_scheduler
from repro.bench.workloads import Arrival, build_workflow, \
    poisson_schedule
from repro.chaos.scorecard import pseudo_histogram, score
from repro.facility import Facility, Tenant, fairness_summary, \
    render_facility_report
from repro.hep.datasets import TABLE2
from repro.obs import events as ev
from repro.obs.txlog import read_records
from repro.sim.cluster import NodeSpec

from .conftest import run_once

N_WORKERS = 64
NODE = NodeSpec(cores=4)   # 256 slots: real contention for the burst
SEED = 11
HEAVY = ("h0", "h1")
SMALL = ("s0", "s1", "s2", "s3", "s4", "s5")


HEAVY_SPEC = TABLE2["DV3-Medium"].scaled(0.22)   # ~600 tasks each
SMALL_SPEC = TABLE2["DV3-Small"].scaled(0.10)    # ~40 tasks each


def _env():
    return build_environment(N_WORKERS, node=NODE, seed=SEED,
                             preemption_rate=0.0)


def _workflows():
    heavy = build_workflow(HEAVY_SPEC, arity=8, seed=SEED)
    small = build_workflow(SMALL_SPEC, arity=8, seed=SEED)
    return heavy, small


def _arrivals():
    heavy, small = _workflows()
    # the second heavy group starts while the first is mid-flight --
    # late enough that most shared chunks are already resident
    arrivals = [Arrival(t=12.0 * i, tenant=name, workflow=heavy,
                        tag=HEAVY_SPEC.name)
                for i, name in enumerate(HEAVY)]
    for t, tenant in poisson_schedule(SMALL, rate=0.2, per_tenant=1,
                                      seed=SEED):
        arrivals.append(Arrival(t=t, tenant=tenant, workflow=small,
                                tag=SMALL_SPEC.name))
    return arrivals


def _facility_run(discipline, txlog_path=None):
    fac = Facility(_env(), [Tenant(n) for n in HEAVY + SMALL],
                   discipline=discipline, txlog_path=txlog_path)
    return fac.run(_arrivals())


def _staged_bytes(path):
    return sum(r.get("nbytes", 0.0) for r in read_records(path)
               if r["type"] == ev.STAGE_IN and not r.get("cached"))


def _tenant_histograms(path):
    """Facility pseudo-histograms, keyed by submission id, over task
    ids stripped of their ``<tenant>.<seq>/`` namespace prefix."""
    done = {}
    for r in read_records(path):
        if r["type"] == ev.TASK_DONE:
            sid, _, plain = r["task"].partition("/")
            done.setdefault(sid, set()).add(plain)
    return {sid: sum(pseudo_histogram(t) for t in sorted(tasks))
            for sid, tasks in done.items()}


def test_facility_fairness(benchmark, archive, results_dir):
    out = os.path.join(results_dir, "facility")
    os.makedirs(out, exist_ok=True)
    heavy, small = _workflows()

    def experiment():
        # isolated baselines: one idle-cluster run per workload class
        iso = {}
        for tag, wf in ((HEAVY_SPEC.name, heavy),
                        (SMALL_SPEC.name, small)):
            path = os.path.join(out, f"iso-{tag}.jsonl".lower())
            result = run_scheduler(_env(), wf, "taskvine",
                                   txlog_path=path)
            assert result.completed
            iso[tag] = {"makespan": result.makespan, "path": path}
        fifo = _facility_run("fifo")
        wfs_path = os.path.join(out, "facility-wfs.jsonl")
        wfs = _facility_run("wfs", txlog_path=wfs_path)
        rerun_path = os.path.join(out, "facility-wfs-rerun.jsonl")
        _facility_run("wfs", txlog_path=rerun_path)
        return iso, fifo, wfs, wfs_path, rerun_path

    iso, fifo, wfs, wfs_path, rerun_path = run_once(benchmark,
                                                    experiment)
    baselines = {tag: d["makespan"] for tag, d in iso.items()}
    assert fifo.completed and wfs.completed

    summary = fairness_summary(wfs, baselines)
    text = "\n\n".join(
        render_facility_report(r, baselines) for r in (fifo, wfs))
    archive("facility_fairness", text)

    # -- fairness: WFS spreads slowdown evenly ---------------------------
    assert summary["jain_index"] >= 0.9

    # -- small tenants: WFS beats FIFO's head-of-line blocking -----------
    def small_p95(result):
        turns = []
        for name in SMALL:
            turns.extend(result.tenant_stats[name].turnarounds)
        return np.percentile(turns, 95)

    assert small_p95(wfs) < small_p95(fifo)

    # -- shared cache: staged bytes undercut isolated managers -----------
    isolated_total = (len(HEAVY) * _staged_bytes(
        iso[HEAVY_SPEC.name]["path"])
        + len(SMALL) * _staged_bytes(iso[SMALL_SPEC.name]["path"]))
    facility_staged = _staged_bytes(wfs_path)
    assert facility_staged < 0.95 * isolated_total
    # most of the late heavy group's input is served from its peer
    assert (wfs.peer_cache_bytes_total()
            > 0.5 * HEAVY_SPEC.input_bytes)

    # -- physics: per-tenant histograms bin-identical to isolation -------
    iso_hist = {tag: score(d["path"]).histogram
                for tag, d in iso.items()}
    facility_hist = _tenant_histograms(wfs_path)
    assert len(facility_hist) == len(HEAVY) + len(SMALL)
    for sid, hist in facility_hist.items():
        tenant = sid.split(".", 1)[0]
        tag = (HEAVY_SPEC.name if tenant in HEAVY
               else SMALL_SPEC.name)
        assert np.array_equal(hist, iso_hist[tag]), sid

    # -- determinism: same seed, same bytes ------------------------------
    with open(wfs_path, "rb") as a, open(rerun_path, "rb") as b:
        assert a.read() == b.read()
