"""Placement tie-breaking is an explicit rule, not iteration order.

When two workers hold the same cached input bytes for a task, the
manager's locality fast path picks the lowest node id; the multi-tenant
branch (a workflow exposing content-equivalents, as the facility's
composite does) picks the first free worker in dispatch order.  Before
these rules the winner fell out of replica-set iteration order, which
is an implementation detail the incremental index must be free to
change.
"""

from repro.core.files import FileKind, SimFile
from repro.core.manager import TaskVineManager
from repro.core.spec import SimTask, SimWorkflow
from repro.sim.storage import MB

from tests.core.conftest import TEST_CONFIG, Env, SharedWorkflow


def _tie_workflow(cls=SimWorkflow):
    files = [
        SimFile("a", 10 * MB, FileKind.INTERMEDIATE),
        SimFile("b", 5 * MB, FileKind.INTERMEDIATE),
        SimFile("out", 1 * MB, FileKind.OUTPUT),
        SimFile("seed", 1 * MB, FileKind.INPUT),
    ]
    tasks = [
        SimTask(id="make-a", compute=1.0, inputs=("seed",),
                outputs=("a",), category="proc", function="f"),
        SimTask(id="make-b", compute=1.0, inputs=("seed",),
                outputs=("b",), category="proc", function="f"),
        SimTask(id="consume", compute=1.0, inputs=("a", "b"),
                outputs=("out",), category="accum", function="g"),
    ]
    return cls(tasks, files)


def _manager(n_workers=3, workflow_cls=SimWorkflow):
    env = Env(n_workers=n_workers)
    manager = TaskVineManager(env.sim, env.cluster, env.storage,
                              _tie_workflow(workflow_cls),
                              config=TEST_CONFIG)
    return env, manager


def _hold(manager, node_id, name, size):
    manager.agents[node_id].reserve(name, size)
    manager.replicas.add(name, node_id)


def test_pick_worker_tie_prefers_lowest_node_id():
    _env, manager = _manager()
    # workers 2 and 3 hold identical bytes of input "a"
    for node_id in (3, 2):  # insertion order must not matter
        _hold(manager, node_id, "a", 10 * MB)
    chosen = manager._pick_worker("consume")
    assert chosen is not None and chosen.node_id == 2


def test_pick_worker_more_bytes_beats_lower_node_id():
    _env, manager = _manager()
    _hold(manager, 1, "a", 10 * MB)
    _hold(manager, 3, "a", 10 * MB)
    _hold(manager, 3, "b", 5 * MB)  # node 3 holds 15 MB total
    chosen = manager._pick_worker("consume")
    assert chosen is not None and chosen.node_id == 3


def test_shared_cache_tie_prefers_first_free_worker():
    _env, manager = _manager(workflow_cls=SharedWorkflow)
    for node_id in (3, 2):
        _hold(manager, node_id, "a", 10 * MB)
    chosen = manager._pick_worker("consume")
    assert chosen is not None and chosen.node_id == 2
    # move worker 2 behind worker 3 in the free-worker order
    del manager.free_workers[2]
    manager.free_workers[2] = None
    chosen = manager._pick_worker("consume")
    assert chosen is not None and chosen.node_id == 3


def test_shared_cache_more_bytes_wins():
    _env, manager = _manager(workflow_cls=SharedWorkflow)
    _hold(manager, 1, "a", 10 * MB)
    # node 3 holds "a" only as another tenant's copy, plus "b": 15 MB
    _hold(manager, 3, "a-copy", 10 * MB)
    _hold(manager, 3, "b", 5 * MB)
    chosen = manager._pick_worker("consume")
    assert chosen is not None and chosen.node_id == 3
