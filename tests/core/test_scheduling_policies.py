"""Tests for worker placement and dynamic workers."""

from repro.core.manager import TaskVineManager
from repro.sim.cluster import NodeSpec

from .conftest import TEST_CONFIG, Env, SharedWorkflow, map_reduce_workflow


def _manager(shared, n_workers=3):
    env = Env(n_workers=n_workers)
    wf = map_reduce_workflow(n_proc=2)
    if shared:
        wf = SharedWorkflow(wf.tasks.values(), wf.files.values())
    return TaskVineManager(env.sim, env.cluster, env.storage, wf,
                           config=TEST_CONFIG)


def _hold(manager, node_id, name):
    manager.agents[node_id].reserve(name, manager._sizes[name])
    manager.replicas.add(name, node_id)


class TestPolicies:
    def test_all_return_none_on_empty(self):
        for shared in (False, True):
            manager = _manager(shared)
            for agent in manager.agents.values():
                agent.assign(f"busy-{agent.node_id}",
                             agent.free_slots())
            assert manager._pick_worker("accum") is None
            assert not manager.free_workers  # full workers pruned

    def test_round_robin_rotates(self):
        manager = _manager(shared=True)
        picks = [manager._pick_worker("proc-0").node_id
                 for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_locality_follows_data(self):
        for shared in (False, True):
            manager = _manager(shared)
            _hold(manager, 2, "partial-0")
            assert manager._pick_worker("accum").node_id == 2

    def test_locality_falls_back(self):
        # no worker holds an input: the first free worker, every time
        manager = _manager(shared=False)
        picks = [manager._pick_worker("accum").node_id
                 for _ in range(3)]
        assert picks == [1, 1, 1]


class TestDynamicWorkers:
    def test_workers_joining_mid_run_take_work(self):
        env = Env(n_workers=1, spec=NodeSpec(cores=1))
        wf = map_reduce_workflow(n_proc=12, compute=5.0)
        manager = TaskVineManager(env.sim, env.cluster, env.storage, wf,
                                  config=TEST_CONFIG, trace=env.trace)

        def reinforcements():
            yield env.sim.timeout(6.0)
            env.cluster.provision(3, NodeSpec(cores=1))

        env.sim.process(reinforcements())
        result = manager.run(limit=1e6)
        assert result.completed
        used = env.trace.gantt()
        assert len(used) == 4, "late workers must receive tasks"
        # nothing ran on a late worker before it joined
        for node_id, intervals in used.items():
            if node_id != 1:
                assert intervals[0][0] >= 6.0

    def test_join_speeds_up_run(self):
        def run(reinforce):
            env = Env(n_workers=1, spec=NodeSpec(cores=1))
            wf = map_reduce_workflow(n_proc=12, compute=5.0)
            manager = TaskVineManager(env.sim, env.cluster, env.storage,
                                      wf, config=TEST_CONFIG,
                                      trace=env.trace)
            if reinforce:
                def late():
                    yield env.sim.timeout(6.0)
                    env.cluster.provision(3, NodeSpec(cores=1))

                env.sim.process(late())
            return manager.run(limit=1e6).makespan

        assert run(True) < run(False)

    def test_startup_delay_workers_join_when_ready(self):
        env = Env(n_workers=0)
        env.cluster.worker_startup_delay = 5.0
        env.cluster.provision(2, NodeSpec(cores=2))
        wf = map_reduce_workflow(n_proc=4, compute=1.0)
        manager = TaskVineManager(env.sim, env.cluster, env.storage, wf,
                                  config=TEST_CONFIG, trace=env.trace)
        result = manager.run(limit=1e6)
        assert result.completed
        # no task could start before any worker booted
        assert min(r.t_start for r in env.trace.tasks) > 0.0
