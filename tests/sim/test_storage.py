"""Unit tests for shared-filesystem and local-disk models."""

import pytest

from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.storage import (
    GB,
    HDFS_PROFILE,
    MB,
    VAST_PROFILE,
    DiskFullError,
    LocalDisk,
    SharedFilesystem,
    StorageProfile,
)
from repro.sim.trace import TraceRecorder


@pytest.fixture
def env():
    sim = Simulation()
    trace = TraceRecorder()
    net = Network(sim, trace, latency=0.0)
    net.add_node(1, capacity=10 * GB)
    return sim, net, trace


def make_fs(sim, net, latency=0.0, stream_bw=1 * GB, agg_bw=10 * GB,
            capacity=100 * GB, model="network", trace=None):
    profile = StorageProfile(
        name="testfs", metadata_latency=latency, per_stream_bw=stream_bw,
        aggregate_bw=agg_bw, capacity=capacity)
    return SharedFilesystem(sim, net, profile, model=model, trace=trace)


class TestSharedFilesystem:
    def test_read_duration(self, env):
        sim, net, _ = env
        fs = make_fs(sim, net, stream_bw=1 * GB)
        done = fs.read(1, 2 * GB)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(2.0)
        assert fs.bytes_read == 2 * GB

    def test_metadata_latency_paid_per_io(self, env):
        sim, net, _ = env
        fs = make_fs(sim, net, latency=0.5)
        sim.run_until_complete(fs.read(1, 1 * MB))
        assert sim.now >= 0.5

    def test_write_accounts_capacity(self, env):
        sim, net, _ = env
        fs = make_fs(sim, net, capacity=10 * GB)
        sim.run_until_complete(fs.write(1, 4 * GB))
        assert fs.used == 4 * GB

    def test_write_beyond_capacity_fails(self, env):
        sim, net, _ = env
        fs = make_fs(sim, net, capacity=1 * GB)
        done = fs.write(1, 2 * GB)
        with pytest.raises(DiskFullError):
            sim.run_until_complete(done)

    def test_delete_frees_space(self, env):
        sim, net, _ = env
        fs = make_fs(sim, net, capacity=10 * GB)
        sim.run_until_complete(fs.write(1, 4 * GB))
        fs.delete(4 * GB)
        assert fs.used == 0

    def test_aggregate_bandwidth_caps_many_readers(self):
        sim = Simulation()
        net = Network(sim, latency=0.0)
        n_clients = 10
        for node in range(1, n_clients + 1):
            net.add_node(node, capacity=10 * GB)
        fs = make_fs(sim, net, stream_bw=10 * GB, agg_bw=1 * GB)
        events = [fs.read(node, 1 * GB) for node in range(1, n_clients + 1)]
        for event in events:
            sim.run_until_complete(event)
        # 10 GB total through a 1 GB/s filesystem pipe.
        assert sim.now == pytest.approx(10.0, rel=0.01)

    def test_hdfs_slower_metadata_than_vast(self):
        assert HDFS_PROFILE.metadata_latency > 10 * VAST_PROFILE.metadata_latency

    def test_metadata_op_counts(self, env):
        sim, net, _ = env
        fs = make_fs(sim, net, latency=0.01)
        sim.run_until_complete(fs.metadata_op())
        assert fs.metadata_ops == 1
        assert sim.now == pytest.approx(0.01)

    def test_reads_traced_with_fs_pseudonode(self, env):
        sim, net, trace = env
        fs = make_fs(sim, net)
        sim.run_until_complete(fs.read(1, 1 * GB))
        assert any(t.src == fs.node_id for t in trace.transfers)
        # Pseudo-node traffic stays out of the worker heatmap.
        mat = trace.transfer_matrix(2)
        assert mat.sum() == 0


class TestQueueModel:
    """The O(1)-event approximation used for large runs."""

    def test_read_duration(self, env):
        sim, net, _ = env
        fs = make_fs(sim, net, stream_bw=1 * GB, model="queue")
        sim.run_until_complete(fs.read(1, 2 * GB))
        assert sim.now == pytest.approx(2.0)

    def test_stream_cap_from_aggregate(self):
        sim = Simulation()
        net = Network(sim, latency=0.0)
        net.add_node(1, capacity=100 * GB)
        # aggregate 2 GB/s at 1 GB/s per stream -> 2 concurrent streams
        fs = make_fs(sim, net, stream_bw=1 * GB, agg_bw=2 * GB,
                     model="queue")
        events = [fs.read(1, 1 * GB) for _ in range(4)]
        for event in events:
            sim.run_until_complete(event)
        # 4 GB total at 2 GB/s effective: 2 seconds.
        assert sim.now == pytest.approx(2.0)

    def test_queue_model_traces_when_given_recorder(self, env):
        sim, net, trace = env
        fs = make_fs(sim, net, model="queue", trace=trace)
        sim.run_until_complete(fs.read(1, 1 * GB))
        assert len(trace.transfers) == 1
        assert trace.transfers[0].src == fs.node_id

    def test_unknown_model_rejected(self, env):
        sim, net, _ = env
        with pytest.raises(Exception):
            make_fs(sim, net, model="quantum")


class TestLocalDisk:
    def test_allocate_and_free(self):
        sim = Simulation()
        disk = LocalDisk(sim, capacity=100)
        disk.allocate(60)
        assert disk.available == 40
        disk.free(60)
        assert disk.available == 100

    def test_overflow_raises(self):
        sim = Simulation()
        disk = LocalDisk(sim, capacity=100)
        disk.allocate(90)
        with pytest.raises(DiskFullError):
            disk.allocate(20)

    def test_free_never_goes_negative(self):
        sim = Simulation()
        disk = LocalDisk(sim, capacity=100)
        disk.allocate(10)
        disk.free(50)
        assert disk.used == 0

    def test_read_write_service_times(self):
        sim = Simulation()
        disk = LocalDisk(sim, capacity=1e12, read_bw=100, write_bw=50,
                         latency=0.0)
        sim.run_until_complete(disk.read(1000))
        assert sim.now == pytest.approx(10.0)
        sim.run_until_complete(disk.write(1000))
        assert sim.now == pytest.approx(30.0)
