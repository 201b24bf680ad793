"""Unit tests for the equal-share flow network."""

import pytest

from repro.sim.engine import Simulation, SimulationError
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder


@pytest.fixture
def env():
    sim = Simulation()
    trace = TraceRecorder()
    net = Network(sim, trace, latency=0.0)
    return sim, net, trace


class TestTopology:
    def test_duplicate_node_rejected(self, env):
        sim, net, _ = env
        net.add_node(1, capacity=100)
        with pytest.raises(SimulationError):
            net.add_node(1, capacity=100)

    def test_zero_capacity_rejected(self, env):
        sim, net, _ = env
        with pytest.raises(SimulationError):
            net.add_node(1, capacity=0)

    def test_unknown_endpoint_rejected(self, env):
        sim, net, _ = env
        net.add_node(1, capacity=100)
        with pytest.raises(SimulationError):
            net.transfer(1, 2, 10)


class TestSingleFlow:
    def test_duration_is_size_over_bandwidth(self, env):
        sim, net, _ = env
        net.add_node(1, capacity=100)
        net.add_node(2, capacity=100)
        done = net.transfer(1, 2, 1000)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(10.0)

    def test_per_stream_cap_limits_single_flow(self, env):
        sim, net, _ = env
        net.add_node(1, capacity=1000, per_stream_cap=10)
        net.add_node(2, capacity=1000)
        done = net.transfer(1, 2, 100)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(10.0)

    def test_latency_added(self):
        sim = Simulation()
        net = Network(sim, latency=0.5)
        net.add_node(1, capacity=100)
        net.add_node(2, capacity=100)
        done = net.transfer(1, 2, 100)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(1.5)

    def test_zero_byte_transfer_completes(self, env):
        sim, net, _ = env
        net.add_node(1, capacity=100)
        net.add_node(2, capacity=100)
        done = net.transfer(1, 2, 0)
        value = sim.run_until_complete(done)
        assert value == 0

    def test_local_transfer_is_free(self, env):
        sim, net, _ = env
        net.add_node(1, capacity=100)
        done = net.transfer(1, 1, 1e12)
        sim.run_until_complete(done)
        assert sim.now == 0.0


class TestSharing:
    def test_two_flows_share_source_capacity(self, env):
        sim, net, _ = env
        net.add_node(0, capacity=100)  # source bottleneck
        net.add_node(1, capacity=1000)
        net.add_node(2, capacity=1000)
        d1 = net.transfer(0, 1, 500)
        d2 = net.transfer(0, 2, 500)
        sim.run_until_complete(d1)
        sim.run_until_complete(d2)
        # Each gets 50 B/s through the shared source: 500/50 = 10 s.
        assert sim.now == pytest.approx(10.0)

    def test_flow_speeds_up_when_contender_finishes(self, env):
        sim, net, _ = env
        net.add_node(0, capacity=100)
        net.add_node(1, capacity=1000)
        net.add_node(2, capacity=1000)
        short = net.transfer(0, 1, 100)   # at 50 B/s: done at t=2
        long = net.transfer(0, 2, 400)
        sim.run_until_complete(short)
        t_short = sim.now
        sim.run_until_complete(long)
        # long ran at 50 B/s for 2 s (100 B), then 100 B/s for the
        # remaining 300 B -> 2 + 3 = 5 s total.
        assert t_short == pytest.approx(2.0)
        assert sim.now == pytest.approx(5.0)

    def test_destination_bottleneck(self, env):
        sim, net, _ = env
        net.add_node(0, capacity=1000)
        net.add_node(1, capacity=1000)
        net.add_node(2, capacity=50)  # destination bottleneck
        d1 = net.transfer(0, 2, 100)
        d2 = net.transfer(1, 2, 100)
        sim.run_until_complete(d1)
        sim.run_until_complete(d2)
        # 25 B/s each through the 50 B/s destination.
        assert sim.now == pytest.approx(4.0)

    def test_many_flows_aggregate_throughput_bounded(self, env):
        sim, net, _ = env
        net.add_node(0, capacity=100)
        for node in range(1, 21):
            net.add_node(node, capacity=1000)
        events = [net.transfer(0, node, 50) for node in range(1, 21)]
        for event in events:
            sim.run_until_complete(event)
        # 20 x 50 = 1000 bytes through a 100 B/s pipe: >= 10 s.
        assert sim.now == pytest.approx(10.0, rel=0.01)


class TestFailure:
    def test_node_removal_fails_inflight_flows(self, env):
        sim, net, _ = env
        net.add_node(1, capacity=10)
        net.add_node(2, capacity=10)
        done = net.transfer(1, 2, 1000)  # would take 100 s
        caught = []

        def killer():
            yield sim.timeout(5)
            net.remove_node(2)

        def waiter():
            try:
                yield done
            except ConnectionError:
                caught.append(sim.now)

        sim.process(killer())
        sim.process(waiter())
        sim.run()
        assert caught == [5]

    def test_removed_node_frees_contended_capacity(self, env):
        sim, net, _ = env
        net.add_node(0, capacity=100)
        net.add_node(1, capacity=1000)
        net.add_node(2, capacity=1000)
        survivor = net.transfer(0, 1, 1000)
        victim = net.transfer(0, 2, 1000)
        victim.callbacks.append(lambda ev: None)  # defuse failure

        def killer():
            yield sim.timeout(2)
            net.remove_node(2)

        sim.process(killer())
        sim.run_until_complete(survivor)
        # 2 s at 50 B/s (100 B), then 900 B at 100 B/s -> 11 s.
        assert sim.now == pytest.approx(11.0)


class TestTraceIntegration:
    def test_transfers_recorded(self, env):
        sim, net, trace = env
        net.add_node(1, capacity=100)
        net.add_node(2, capacity=100)
        sim.run_until_complete(net.transfer(1, 2, 300, kind="peer"))
        assert len(trace.transfers) == 1
        rec = trace.transfers[0]
        assert (rec.src, rec.dst, rec.nbytes, rec.kind) == (1, 2, 300, "peer")
        assert rec.t_end == pytest.approx(3.0)

    def test_transfer_matrix_accumulates(self, env):
        sim, net, trace = env
        for node in range(3):
            net.add_node(node, capacity=100)
        done = [net.transfer(0, 1, 100), net.transfer(0, 2, 100),
                net.transfer(1, 2, 50)]
        for event in done:
            sim.run_until_complete(event)
        mat = trace.transfer_matrix(3)
        assert mat[0, 1] == 100
        assert mat[0, 2] == 100
        assert mat[1, 2] == 50
        assert mat[2, 1] == 0
