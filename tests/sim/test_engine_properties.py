"""Property-based tests on kernel invariants (hypothesis)."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Resource, Simulation


class TestClockMonotonicity:
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulation()
        fired = []

        def waiter(d):
            yield sim.timeout(d)
            fired.append(sim.now)

        for d in delays:
            sim.process(waiter(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert sim.now == max(delays)


class TestResourceInvariants:
    @given(st.integers(1, 5), st.lists(st.floats(0.1, 5), min_size=1,
                                       max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_concurrent_holders_never_exceed_capacity(self, capacity,
                                                      durations):
        sim = Simulation()
        resource = Resource(sim, capacity=capacity)
        active = [0]
        peak = [0]

        def user(duration):
            req = resource.request()
            yield req
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield sim.timeout(duration)
            active[0] -= 1
            resource.release(req)

        for d in durations:
            sim.process(user(d))
        sim.run()
        assert peak[0] <= capacity
        assert active[0] == 0
        assert resource.count == 0

    @given(st.integers(1, 4), st.lists(st.floats(0.1, 3), min_size=2,
                                       max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_total_service_conserved(self, capacity, durations):
        """Makespan >= total work / capacity (no work invented)."""
        sim = Simulation()
        resource = Resource(sim, capacity=capacity)

        def user(duration):
            req = resource.request()
            yield req
            yield sim.timeout(duration)
            resource.release(req)

        for d in durations:
            sim.process(user(d))
        sim.run()
        assert sim.now >= sum(durations) / capacity - 1e-9
        assert sim.now <= sum(durations) + 1e-9
