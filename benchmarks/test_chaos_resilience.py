"""Resilience matrix: DV3-Medium under a 20% preemption storm.

The paper's environment is an opportunistic campus cluster where
worker eviction is routine.  This benchmark runs the same workload and
the same seeded fault scenario against all three stacks:

* **TaskVine** completes with *bin-identical* histograms -- lineage
  recovery re-executes the lost tasks and the merged physics result is
  exactly the fault-free one.
* **Work Queue** also completes (results live on the manager), but
  every replacement staging funnels through the manager's NIC: the
  high-cost recovery path, on top of an already far longer makespan.
* **Dask.Distributed** loses its non-replicated intermediates with the
  evicted worker processes and crashes once the loss exceeds its
  stability tolerance -- the paper's "worker and application crashes".
"""

import os

from repro.bench import calibration as cal
from repro.bench.runners import build_environment, run_scheduler
from repro.bench.workloads import build_workflow
from repro.chaos import compare, format_comparison, get_scenario, score
from repro.chaos.inject import estimate_horizon
from repro.hep.datasets import TABLE2

from .conftest import run_once

N_WORKERS = 60
SCALE = 0.25  # a quarter of DV3-Medium keeps the matrix fast


def _one_stack(scheduler, scenario, out_dir):
    spec = TABLE2["DV3-Medium"].scaled(SCALE)
    node = (cal.dask_sharded_node()
            if scheduler == "dask.distributed" else None)

    def build():
        env = build_environment(N_WORKERS, node=node, seed=11,
                                preemption_rate=0.0)
        workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY,
                                  seed=11)
        return env, workflow

    stem = os.path.join(out_dir,
                        f"chaos-{spec.name}-{scheduler}".lower())
    env, workflow = build()
    baseline_path = f"{stem}-baseline.jsonl"
    baseline = run_scheduler(env, workflow, scheduler,
                             txlog_path=baseline_path)
    horizon = (baseline.makespan if baseline.completed
               else estimate_horizon(workflow, env.total_cores))

    env, workflow = build()
    chaos_path = f"{stem}-chaos.jsonl"
    run_scheduler(env, workflow, scheduler, txlog_path=chaos_path,
                  chaos=scenario, chaos_horizon=horizon)
    return score(baseline_path), score(chaos_path)


def test_chaos_resilience_matrix(benchmark, archive, results_dir):
    scenario = get_scenario("preempt-storm-20")
    out_dir = os.path.join(results_dir, "chaos")
    os.makedirs(out_dir, exist_ok=True)

    def experiment():
        results = {}
        for scheduler in ("taskvine", "workqueue", "dask.distributed"):
            results[scheduler] = _one_stack(scheduler, scenario,
                                            out_dir)
        return results

    results = run_once(benchmark, experiment)
    tv_base, tv = results["taskvine"]
    wq_base, wq = results["workqueue"]
    dd_base, dd = results["dask.distributed"]

    text = "\n\n".join(
        format_comparison(base, [card],
                          title=f"{card.scheduler or name} under "
                                f"{scenario.name}")
        for name, (base, card) in results.items())
    archive("chaos_resilience_matrix", text)

    # TaskVine: recovers and the physics is exactly right
    assert tv.completed
    assert tv.reexecuted_tasks > 0
    assert compare(tv_base, tv)["bin_identical"]

    # Work Queue: survives, but recovery funnels through the manager
    # on top of a much slower run
    assert wq.completed
    assert compare(wq_base, wq)["bin_identical"]
    assert wq.manager_restage_bytes > wq_base.manager_restage_bytes
    assert wq.manager_restage_bytes > 100 * tv.manager_restage_bytes
    assert wq.makespan > 1.5 * tv.makespan

    # Dask.Distributed: the storm exceeds its tolerance and the run
    # crashes with the intermediates gone
    assert not dd.completed
    assert dd.crashes >= 1
    assert not compare(dd_base, dd)["bin_identical"]
    assert "crashed" in (dd.error or "")
