"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import (
    Interrupt,
    Resource,
    Simulation,
    SimulationError,
)


@pytest.fixture
def sim():
    return Simulation()


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(5)

        sim.process(proc())
        sim.run()
        assert sim.now == 5

    def test_timeout_value_passthrough(self, sim):
        results = []

        def proc():
            value = yield sim.timeout(1, value="hello")
            results.append(value)

        sim.process(proc())
        sim.run()
        assert results == ["hello"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_stops_clock_exactly(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run(until=30)
        assert sim.now == 30

    def test_run_until_past_raises(self, sim):
        def proc():
            yield sim.timeout(10)

        sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(3)
            yield sim.timeout(4)

        sim.process(proc())
        sim.run()
        assert sim.now == 7

    def test_same_time_events_fire_in_schedule_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_manual_succeed(self, sim):
        ev = sim.event()
        results = []

        def waiter():
            value = yield ev
            results.append(value)

        def firer():
            yield sim.timeout(2)
            ev.succeed(42)

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert results == [42]
        assert ev.ok and ev.value == 42

    def test_fail_propagates_into_process(self, sim):
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        def firer():
            yield sim.timeout(1)
            ev.fail(ValueError("boom"))

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert caught == ["boom"]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_yield_already_processed_event_resumes_immediately(self, sim):
        ev = sim.event()
        ev.succeed("ready")
        results = []

        def late_waiter():
            yield sim.timeout(10)
            value = yield ev
            results.append((sim.now, value))

        sim.process(late_waiter())
        sim.run()
        assert results == [(10, "ready")]

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        proc = sim.process(bad())
        # Nobody is waiting on the process, so the error surfaces.
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()
        assert proc.triggered and not proc.ok

    def test_unwatched_failure_raises_from_run(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("lost")

        sim.process(bad())
        with pytest.raises(ValueError, match="lost"):
            sim.run()


class TestProcesses:
    def test_return_value_becomes_process_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_process_is_waitable_event(self, sim):
        def inner():
            yield sim.timeout(5)
            return 99

        results = []

        def outer():
            value = yield sim.process(inner())
            results.append(value)

        sim.process(outer())
        sim.run()
        assert results == [99]

    def test_run_until_complete_returns_value(self, sim):
        def proc():
            yield sim.timeout(3)
            return "v"

        p = sim.process(proc())
        assert sim.run_until_complete(p) == "v"

    def test_run_until_complete_raises_failure(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("died")

        p = sim.process(proc())
        with pytest.raises(RuntimeError, match="died"):
            sim.run_until_complete(p)

    def test_run_until_complete_deadlock_detected(self, sim):
        ev = sim.event()

        def proc():
            yield ev

        p = sim.process(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(p)

    def test_run_until_complete_time_limit(self, sim):
        def proc():
            yield sim.timeout(1000)

        p = sim.process(proc())
        with pytest.raises(SimulationError, match="limit"):
            sim.run_until_complete(p, limit=10)

    def test_uncaught_exception_fails_process_event(self, sim):
        def proc():
            yield sim.timeout(1)
            raise KeyError("k")

        p = sim.process(proc())
        waiter_caught = []

        def waiter():
            try:
                yield p
            except KeyError:
                waiter_caught.append(True)

        sim.process(waiter())
        sim.run()
        assert waiter_caught == [True]


class TestInterrupts:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as interrupt:
                causes.append((interrupt.cause, sim.now))

        v = sim.process(victim())

        def attacker():
            yield sim.timeout(5)
            v.interrupt("preempted")

        sim.process(attacker())
        sim.run()
        assert causes == [("preempted", 5)]

    def test_interrupted_process_can_continue(self, sim):
        log = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.timeout(10)
            log.append(("done", sim.now))

        v = sim.process(victim())

        def attacker():
            yield sim.timeout(5)
            v.interrupt()

        sim.process(attacker())
        sim.run()
        assert log == [("interrupted", 5), ("done", 15)]

    def test_interrupt_dead_process_rejected(self, sim):
        def victim():
            yield sim.timeout(1)

        v = sim.process(victim())
        sim.run()
        with pytest.raises(SimulationError):
            v.interrupt()

    def test_same_instant_interrupt_is_deterministic(self, sim):
        resumes = []

        def victim():
            try:
                yield sim.timeout(10)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
            yield sim.timeout(50)
            resumes.append("end")

        v = sim.process(victim())

        def attacker():
            yield sim.timeout(10)  # same instant as the victim's timeout
            if v.is_alive:
                v.interrupt()

        sim.process(attacker())
        # The victim's timeout (scheduled first) resumes it first, so the
        # interrupt lands at the *second* yield, outside the try block,
        # killing the process with an unhandled Interrupt.
        with pytest.raises(Interrupt):
            sim.run()
        assert resumes == ["timeout"]
        assert not v.ok and isinstance(v.value, Interrupt)


class TestResource:
    def test_capacity_enforced(self, sim):
        res = Resource(sim, capacity=2)
        active = []
        peak = []

        def user(uid):
            req = res.request()
            yield req
            active.append(uid)
            peak.append(len(active))
            yield sim.timeout(10)
            active.remove(uid)
            res.release(req)

        for uid in range(5):
            sim.process(user(uid))
        sim.run()
        assert max(peak) == 2
        assert sim.now == 30  # 5 users, 2 at a time, 10s each

    def test_fifo_ordering(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(uid):
            req = res.request()
            yield req
            order.append(uid)
            yield sim.timeout(1)
            res.release(req)

        for uid in range(4):
            sim.process(user(uid))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_hold_rejected(self, sim):
        res = Resource(sim, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.release(req)
            with pytest.raises(SimulationError):
                res.release(req)

        sim.process(proc())
        sim.run()

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        got = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(10)
            res.release(req)

        def impatient():
            yield sim.timeout(1)
            req = res.request()
            yield sim.timeout(1)
            if not req.triggered:
                req.cancel()
            else:
                got.append("got it")

        def patient():
            yield sim.timeout(2)
            req = res.request()
            yield req
            got.append(("patient", sim.now))
            res.release(req)

        sim.process(holder())
        sim.process(impatient())
        sim.process(patient())
        sim.run()
        # The impatient request was withdrawn, so patient got the slot.
        assert got == [("patient", 10)]


class TestDeterminism:
    def test_identical_runs_produce_identical_event_counts(self):
        def build_and_run():
            sim = Simulation()
            res = Resource(sim, capacity=3)
            log = []

            def user(uid):
                req = res.request()
                yield req
                log.append((sim.now, uid))
                yield sim.timeout(1 + uid % 3)
                res.release(req)

            for uid in range(20):
                sim.process(user(uid))
            sim.run()
            return log, sim.events_processed

        first = build_and_run()
        second = build_and_run()
        assert first == second
