"""Tests for the sampling phase profiler (simulator wall time)."""

import threading
import time

import pytest

from repro.obs.profile import (PHASE_RULES, PhaseProfiler,
                               classify_module, format_profile)


class TestClassify:
    def test_longest_prefix_wins(self):
        assert classify_module("repro.sim.engine") == "kernel"
        assert classify_module("repro.sim.engine.calendar") == "kernel"
        assert classify_module("repro.sim.network") == "substrate"
        assert classify_module("repro.sim.rng") == "kernel"
        assert classify_module("repro.core.scheduling") == "scheduler"
        assert classify_module("repro.core.manager") == "scheduler"
        assert classify_module("repro.obs.txlog") == "observability"
        assert classify_module("repro.chaos.inject") == "chaos"

    def test_non_repro_module(self):
        assert classify_module("json.decoder") is None
        assert classify_module("reprolib.x") is None  # not a prefix hit

    def test_rules_are_prefix_consistent(self):
        # every rule must itself classify to its own phase (a longer
        # rule shadowing a shorter one by accident would break this)
        for prefix, phase in PHASE_RULES:
            assert classify_module(prefix) == phase


def busy_repro_work(stop):
    """Run repro code in a hot loop until told to stop."""
    from repro.obs.trace import SpanBuilder
    from tests.obs.test_spans import lifecycle
    events = lifecycle("a", 0.0) + lifecycle("b", 10.0)
    while not stop.is_set():
        builder = SpanBuilder()
        for record in events:
            builder.on_record(record)
        builder.forest()


class TestProfiler:
    def test_attributes_wall_time_to_phases(self):
        stop = threading.Event()
        worker = threading.Thread(target=busy_repro_work, args=(stop,),
                                  daemon=True)
        worker.start()
        try:
            profiler = PhaseProfiler(interval=0.001,
                                     target_thread_id=worker.ident)
            with profiler:
                time.sleep(0.3)
        finally:
            stop.set()
            worker.join(timeout=5)
        report = profiler.report()
        assert report["samples"] > 10
        # the busy loop lives in repro.obs.trace -> observability/trace
        seen = set(report["phases"])
        assert seen & {"observability", "trace"}
        fractions = [p["fraction"] for p in report["phases"].values()]
        assert sum(fractions) == pytest.approx(1.0, abs=1e-6)

    def test_report_fields(self):
        profiler = PhaseProfiler(interval=0.005)
        with profiler:
            time.sleep(0.05)
        report = profiler.report(top=3)
        for key in ("wall_s", "samples", "interval_s", "phases",
                    "hotspots"):
            assert key in report
        assert len(report["hotspots"]) <= 3
        assert report["wall_s"] > 0

    def test_stop_idempotent(self):
        profiler = PhaseProfiler(interval=0.005)
        profiler.start()
        profiler.stop()
        profiler.stop()                  # second stop must not raise

    def test_format_profile_renders(self):
        profiler = PhaseProfiler(interval=0.005)
        with profiler:
            time.sleep(0.05)
        text = format_profile(profiler.report())
        assert "wall" in text
        assert "samples" in text or "%" in text

    def test_zero_overhead_when_not_started(self):
        # constructing a profiler must not install anything global
        before = threading.active_count()
        PhaseProfiler(interval=0.001)
        assert threading.active_count() == before
