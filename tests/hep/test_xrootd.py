"""Tests for the XRootD WAN federation model."""

import pytest

from repro.hep.xrootd import DEFAULT_WAN, WANProfile, XRootDFederation
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.storage import GB, MB
from repro.sim.trace import TraceRecorder


@pytest.fixture
def env():
    sim = Simulation()
    trace = TraceRecorder()
    net = Network(sim, trace, latency=0.0)
    net.add_node(1, capacity=10 * GB)
    net.add_node(2, capacity=10 * GB)
    return sim, net


class TestXRootD:
    def test_read_pays_wan_latency_and_bandwidth(self, env):
        sim, net = env
        profile = WANProfile(round_trip_latency=0.1,
                             per_stream_bw=100 * MB,
                             aggregate_bw=1 * GB)
        fed = XRootDFederation(sim, net, profile)
        done = fed.read(1, 100 * MB)
        sim.run_until_complete(done)
        # 2 RTTs (redirector + open) + 1 s of transfer
        assert sim.now == pytest.approx(1.2, rel=0.05)
        assert fed.bytes_read == 100 * MB
        assert fed.requests == 1

    def test_aggregate_bandwidth_shared(self, env):
        sim, net = env
        profile = WANProfile(round_trip_latency=0.0,
                             per_stream_bw=1 * GB,
                             aggregate_bw=1 * GB)
        fed = XRootDFederation(sim, net, profile)
        events = [fed.read(node, 1 * GB) for node in (1, 2)]
        for event in events:
            sim.run_until_complete(event)
        # 2 GB through a 1 GB/s site uplink
        assert sim.now == pytest.approx(2.0, rel=0.05)

    def test_default_profile_is_wan_like(self):
        assert DEFAULT_WAN.round_trip_latency > 0.01
        assert DEFAULT_WAN.per_stream_bw < 100 * MB

    def test_much_slower_than_local_stream(self, env):
        """The Section III.A rationale, in one comparison."""
        sim, net = env
        fed = XRootDFederation(sim, net)
        done = fed.read(1, 500 * MB)
        sim.run_until_complete(done)
        wan_time = sim.now
        local_time = 500 * MB / (1.2 * GB)  # one VAST stream
        assert wan_time > 10 * local_time
