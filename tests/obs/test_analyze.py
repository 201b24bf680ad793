"""Tests for the run analyzer over synthetic and simulated logs."""

import pytest

from repro.obs import analyze


def exec_end(task, worker, t_ready, t_dispatch, t_start, t_end,
             category="proc", ok=True):
    return {"type": "EXEC_END", "t": t_end, "task": task,
            "category": category, "worker": worker, "t_ready": t_ready,
            "t_dispatch": t_dispatch, "t_start": t_start, "t_end": t_end,
            "ok": ok}


def transfer(src, dst, nbytes, kind="data", t_end=1.0):
    return {"type": "TRANSFER", "t": t_end, "src": src, "dst": dst,
            "nbytes": nbytes, "t_start": 0.0, "t_end": t_end,
            "kind": kind}


SAMPLE = [
    {"type": "RUN", "t": 0.0, "schema": 1, "scheduler": "taskvine"},
    exec_end("a", 1, 0.0, 0.1, 0.5, 2.5),     # exec 2.0
    exec_end("b", 1, 0.0, 0.1, 0.5, 2.7),     # exec 2.2
    exec_end("c", 2, 0.0, 0.1, 0.5, 10.5),    # exec 10.0 -> straggler
    exec_end("d", 2, 0.0, 0.1, 0.5, 7.5),     # exec 7.0 -> straggler
    exec_end("x", 1, 0.0, 0.0, 0.0, 1.0, ok=False),
    transfer(0, 1, 100.0),
    transfer(2, 1, 900.0, kind="peer"),
    {"type": "CACHE_PUT", "t": 0.0, "worker": 1, "nbytes": 100.0,
     "file": "f"},
    {"type": "CACHE_PUT", "t": 1.0, "worker": 1, "nbytes": 50.0,
     "file": "g"},
    {"type": "CACHE_EVICT", "t": 2.0, "worker": 1, "nbytes": 100.0,
     "file": "f"},
    {"type": "CACHE_PUT", "t": 3.0, "worker": 1, "nbytes": 25.0,
     "file": "h"},
]


class TestRunLog:
    def test_indexing_and_meta(self):
        log = analyze.load(SAMPLE)
        assert log.meta["scheduler"] == "taskvine"
        assert len(log.records) == len(SAMPLE)
        summary = analyze.report_data(log)["summary"]
        assert summary["tasks_ok"] == 4
        assert summary["tasks_failed"] == 1
        assert summary["makespan_s"] == 10.5

    def test_load_passthrough(self):
        log = analyze.load(SAMPLE)
        assert analyze.load(log) is log

    def test_empty(self):
        log = analyze.load([])
        assert log.meta == {}
        assert analyze.report_data(log)["summary"]["makespan_s"] == 0.0


class TestStragglers:
    def test_detection(self):
        report = analyze.report_data(SAMPLE)["stragglers"]
        # median exec of proc = (2.0+2.2+10.0+7.0)/... median = 4.6;
        # c (10.0) is >= 2x median, d (7.0) is not
        assert report["tasks_ok"] == 4
        found = {s["task"] for s in report["stragglers"]}
        assert found == {"c"}
        assert report["stragglers"][0]["worker"] == 2

    def test_slow_workers(self):
        report = analyze.report_data(SAMPLE)["stragglers"]
        slow = {w["worker"] for w in report["slow_workers"]}
        assert slow == {2}

    def test_top_limits_output(self):
        report = analyze.report_data(SAMPLE, top=0)["stragglers"]
        assert report["stragglers"] == []
        assert report["straggler_count"] == 1

    def test_empty_log(self):
        report = analyze.report_data([])["stragglers"]
        assert report["tasks_ok"] == 0
        assert report["stragglers"] == []


class TestTransfers:
    def test_hotspots(self):
        report = analyze.report_data(SAMPLE)["transfers"]
        assert report["transfers"] == 2
        assert report["total_bytes"] == 1000.0
        assert report["manager_share"] == pytest.approx(0.1)
        assert report["top_pairs"][0] == {"src": 2, "dst": 1,
                                          "bytes": 900.0}
        assert report["by_kind"] == {"data": 100.0, "peer": 900.0}
        assert report["top_receivers"][0]["node"] == 1

    def test_empty(self):
        report = analyze.report_data([])["transfers"]
        assert report["total_bytes"] == 0.0
        assert report["manager_share"] == 0.0


class TestCachePressure:
    def test_peaks_account_for_interleaved_evictions(self):
        report = analyze.report_data(SAMPLE)["cache"]
        # worker 1: 100, 150, 50 (evict), 75 -> peak 150, not 175
        peaks = {p["worker"]: p["bytes"]
                 for p in report["peak_by_worker"]}
        assert peaks[1] == 150.0
        assert report["evictions"] == 1
        assert report["evicted_bytes"] == 100.0
        assert report["bytes_cached"] == 175.0

    def test_empty(self):
        report = analyze.report_data([])["cache"]
        assert report["peak_by_worker"] == []
        assert report["replica_losses"] == 0


class TestCriticalPath:
    def test_phases(self):
        report = analyze.report_data(SAMPLE)["critical_path"]
        assert report["tasks"] == 4
        assert report["total_s"]["queued"] == pytest.approx(0.4)
        assert report["total_s"]["stage_in"] == pytest.approx(1.6)
        assert report["total_s"]["exec"] == pytest.approx(21.2)
        assert report["dominant"] == "exec"
        assert sum(report["fraction"].values()) == pytest.approx(1.0)

    def test_empty(self):
        report = analyze.report_data([])["critical_path"]
        assert report["tasks"] == 0
        assert report["dominant"] is None


class TestRenderReport:
    def test_all_sections(self):
        text = analyze.render_report(analyze.report_data(SAMPLE))
        assert "RUN SUMMARY" in text
        assert "CRITICAL PATH" in text
        assert "STRAGGLERS" in text
        assert "TRANSFER HOTSPOTS" in text
        assert "CACHE PRESSURE" in text
        assert "taskvine" in text

    def test_section_filter(self):
        text = analyze.render_report(
            analyze.report_data(SAMPLE, sections=["stragglers"]))
        assert "STRAGGLERS" in text
        assert "CACHE PRESSURE" not in text

    def test_lazy_exports_via_package(self):
        import repro.obs as obs

        assert obs.load is analyze.load
        assert obs.render_report is analyze.render_report
