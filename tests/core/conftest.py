"""Shared scheduler-test harness: tiny clusters and workflows."""

import pytest

from repro.core.config import SchedulerConfig
from repro.core.files import FileKind, SimFile
from repro.core.spec import SimTask, SimWorkflow
from repro.sim.cluster import Cluster, NodeSpec
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.storage import GB, MB, SharedFilesystem, StorageProfile
from repro.sim.trace import TraceRecorder

FAST_FS = StorageProfile(name="fastfs", metadata_latency=0.001,
                         per_stream_bw=1 * GB, aggregate_bw=20 * GB,
                         capacity=1e15)

#: low-overhead config so tiny tests run in tiny simulated time
TEST_CONFIG = SchedulerConfig(
    dispatch_overhead=0.001, collect_overhead=0.001,
    task_startup=0.1, import_cost=0.05,
    function_call_overhead=0.005, library_startup=0.2,
)


class Env:
    """One simulated cluster + storage, ready for a scheduler."""

    def __init__(self, n_workers=2, spec=None, seed=1,
                 preemption_rate=0.0, manager_nic=1.25 * GB,
                 fs_profile=FAST_FS):
        self.sim = Simulation()
        self.trace = TraceRecorder()
        self.network = Network(self.sim, self.trace, latency=0.0001)
        self.cluster = Cluster(self.sim, self.network, self.trace,
                               RngRegistry(seed),
                               manager_nic_bw=manager_nic,
                               preemption_rate=preemption_rate)
        self.storage = SharedFilesystem(self.sim, self.network,
                                        fs_profile, trace=self.trace)
        self.cluster.provision(n_workers, spec or NodeSpec())


class SharedWorkflow(SimWorkflow):
    """Exposes content-equivalents the way the facility's composite
    does, so the manager takes its multi-tenant placement branch:
    "a-copy" holds the bytes of "a" under another tenant's name."""

    def equivalents(self, name):
        return {"a": ["a-copy"], "a-copy": ["a"]}.get(name, [])


@pytest.fixture
def env():
    return Env()


def make_env(**kwargs) -> Env:
    return Env(**kwargs)


def map_reduce_workflow(n_proc=6, chunk=100 * MB, partial=10 * MB,
                        compute=2.0, arity=None) -> SimWorkflow:
    """n_proc processing tasks -> one (flat or tree) reduction."""
    files = []
    tasks = []
    partials = []
    for i in range(n_proc):
        files.append(SimFile(f"chunk-{i}", chunk, FileKind.INPUT))
        files.append(SimFile(f"partial-{i}", partial,
                             FileKind.INTERMEDIATE))
        tasks.append(SimTask(id=f"proc-{i}", compute=compute,
                             inputs=(f"chunk-{i}",),
                             outputs=(f"partial-{i}",),
                             category="proc", function="process"))
        partials.append(f"partial-{i}")
    files.append(SimFile("result", partial, FileKind.OUTPUT))
    tasks.append(SimTask(id="accum", compute=1.0,
                         inputs=tuple(partials), outputs=("result",),
                         category="accum", function="accumulate"))
    return SimWorkflow(tasks, files)
