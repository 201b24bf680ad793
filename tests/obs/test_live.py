"""The streaming == batch contract, truncation handling, and the
``obs watch`` CLI.

The acceptance gate: a :class:`~repro.obs.live.LiveAnalyzer` fed a
transaction log record by record must finish with a snapshot that is
**byte-identical** (as sorted-key JSON) to the post-hoc analyzer's
report over the same log -- on the fig14b-scale run, a chaos run with
preempted/retried attempts, and the 8-tenant facility run.  The same
must hold on a log truncated mid-record, because a live consumer is
always racing the writer.
"""

import json
import os
import threading

import pytest

from repro.obs import analyze
from repro.obs.__main__ import main as obs_main
from repro.obs.live import LiveAnalyzer
from repro.obs.trace import build_spans
from repro.obs.txlog import ReadStatus, read_records
from repro.cli import EXIT_INCOMPLETE, EXIT_OK, EXIT_UNREADABLE
from repro.obs.watch import main as watch_main


def as_bytes(report: dict) -> str:
    """The byte-comparison form: what both CLIs' --json emits."""
    return json.dumps(report, indent=2, sort_keys=True, default=str)


def assert_stream_equals_batch(path: str) -> None:
    live = LiveAnalyzer()
    for record in read_records(path):
        live.on_record(record)
    batch = analyze.report_data(path)
    assert as_bytes(live.snapshot()) == as_bytes(batch)


class TestStreamingEqualsBatch:
    def test_smoke_with_slo_alerts(self, smoke_txlog):
        assert_stream_equals_batch(smoke_txlog)

    def test_chaos_run(self, chaos_txlog):
        assert_stream_equals_batch(chaos_txlog)

    def test_facility_8(self, facility8_txlog):
        assert_stream_equals_batch(facility8_txlog)

    def test_fig14b_2400(self, fig14b_txlog):
        assert_stream_equals_batch(fig14b_txlog)

    def test_mid_stream_snapshots_do_not_perturb(self, chaos_records):
        # snapshot() must be pure: interleaving reads with feeding
        # cannot change the final numbers
        undisturbed = LiveAnalyzer()
        undisturbed.feed(chaos_records)
        live = LiveAnalyzer()
        for i, record in enumerate(chaos_records):
            live.on_record(record)
            if i % 97 == 0:
                live.snapshot(top=3)
                live.progress()
        assert (as_bytes(live.snapshot())
                == as_bytes(undisturbed.snapshot()))

    def test_complete_flag_follows_footer(self, smoke_records):
        live = LiveAnalyzer()
        live.feed(smoke_records[:-1])
        assert not live.complete
        live.on_record(smoke_records[-1])
        assert live.complete

    def test_progress_headline(self, smoke_records):
        live = LiveAnalyzer()
        live.feed(smoke_records)
        p = live.progress()
        assert p["complete"]
        assert p["tasks_ok"] > 60          # 60 proc + reduction tiers
        assert p["tasks_expected"] == p["tasks_ok"]
        assert p["fraction_done"] == pytest.approx(1.0)
        assert p["slo_alerts"] >= 1
        assert p["records"] == len(smoke_records)

    def test_dashboard_renders(self, smoke_records):
        live = LiveAnalyzer()
        live.feed(smoke_records)
        frame = live.render_dashboard()
        assert " ok / 0 failed of " in frame
        assert "100.0%" in frame
        assert "critical path" in frame
        assert "SLO VIOLATED deadline" in frame


def truncate_mid_record(path: str, out: str,
                        fraction: float = 0.6) -> int:
    """Copy ``fraction`` of a txlog, cutting inside a JSON record."""
    with open(path, "rb") as fh:
        data = fh.read()
    cut = int(len(data) * fraction)
    while cut < len(data) and data[cut - 1:cut] == b"\n":
        cut += 1          # never land exactly on a record boundary
    with open(out, "wb") as fh:
        fh.write(data[:cut])
    return cut


class TestTruncatedLogs:
    """Satellite: readers survive logs cut off mid-run."""

    def test_fig14b_cut_mid_record(self, fig14b_txlog, tmp_path):
        trunc = str(tmp_path / "trunc.jsonl")
        cut = truncate_mid_record(fig14b_txlog, trunc)
        status = ReadStatus()
        records = list(read_records(trunc, status))
        assert records, "the complete prefix must be handed out"
        assert status.partial_tail, "the cut fragment is held back"
        assert not status.complete, "no RUN_END was reached"
        assert status.truncated
        assert status.cut_offset < cut
        assert status.records == len(records)
        assert "partial trailing record held back" in status.describe()

    def test_truncated_analysis_does_not_raise(self, fig14b_txlog,
                                               tmp_path):
        trunc = str(tmp_path / "trunc.jsonl")
        truncate_mid_record(fig14b_txlog, trunc)
        report = analyze.report_data(trunc)
        assert report["summary"]["tasks_ok"] > 0
        status = ReadStatus()
        builder = build_spans(trunc, status)
        assert builder.forest()
        assert status.partial_tail

    def test_truncated_live_equals_batch(self, fig14b_txlog,
                                         tmp_path):
        trunc = str(tmp_path / "trunc.jsonl")
        truncate_mid_record(fig14b_txlog, trunc)
        assert_stream_equals_batch(trunc)

    def test_corrupt_middle_line_skipped(self, smoke_txlog, tmp_path):
        lines = open(smoke_txlog, "rb").read().splitlines(True)
        lines[len(lines) // 2] = b'{"type": "EXEC_END", truncated\n'
        bad = tmp_path / "corrupt.jsonl"
        bad.write_bytes(b"".join(lines))
        status = ReadStatus()
        records = list(read_records(str(bad), status))
        assert status.skipped == 1
        assert status.complete    # footer still present
        assert len(records) == len(lines) - 1
        assert "1 corrupt line(s) skipped" in status.describe()

    def test_batch_cli_notes_truncation(self, smoke_txlog, tmp_path,
                                        capsys):
        trunc = str(tmp_path / "trunc.jsonl")
        truncate_mid_record(smoke_txlog, trunc)
        assert obs_main([trunc, "--summary-only"]) == 0
        err = capsys.readouterr().err
        assert "truncated log, analyzing" in err


class TestWatchCli:
    def test_json_byte_identical_to_batch_cli(self, smoke_txlog,
                                              capsys):
        assert obs_main([smoke_txlog, "--json"]) == EXIT_OK
        batch = capsys.readouterr().out
        assert obs_main(["watch", smoke_txlog, "--json"]) == EXIT_OK
        streamed = capsys.readouterr().out
        assert streamed == batch

    def test_one_shot_dashboard(self, smoke_txlog, capsys):
        assert watch_main([smoke_txlog]) == EXIT_OK
        out = capsys.readouterr().out
        assert " ok / 0 failed" in out

    def test_missing_log_exits_2(self, tmp_path, capsys):
        assert watch_main([str(tmp_path / "nope.jsonl")]) \
            == EXIT_UNREADABLE

    def test_follow_times_out_on_stalled_log_exits_3(
            self, smoke_txlog, tmp_path, capsys):
        stalled = str(tmp_path / "stalled.jsonl")
        truncate_mid_record(smoke_txlog, stalled)
        code = watch_main([stalled, "--follow", "--no-clear",
                           "--timeout", "0.3", "--interval", "0.05"])
        assert code == EXIT_INCOMPLETE
        assert "without RUN_END" in capsys.readouterr().err

    def test_follow_sees_growing_log_complete(self, smoke_records,
                                              tmp_path, capsys):
        # a writer thread appends the log while the watcher follows;
        # the watcher must pick up the appended tail and exit 0 at
        # the RUN_END footer
        path = str(tmp_path / "growing.jsonl")
        split = len(smoke_records) // 2
        with open(path, "w") as fh:
            for record in smoke_records[:split]:
                fh.write(json.dumps(record) + "\n")

        def append_rest():
            with open(path, "a") as fh:
                for record in smoke_records[split:]:
                    fh.write(json.dumps(record) + "\n")

        timer = threading.Timer(0.2, append_rest)
        timer.start()
        try:
            code = watch_main([path, "--follow", "--no-clear",
                               "--timeout", "20",
                               "--interval", "0.05"])
        finally:
            timer.join()
        assert code == EXIT_OK

    def test_watcher_side_slo_policy(self, smoke_txlog, tmp_path,
                                     capsys):
        # an independent watcher re-derives alerts from the stream
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            "rules": [{"name": "watch-deadline",
                       "kind": "makespan_deadline",
                       "threshold": 1.0}]}))
        assert watch_main([smoke_txlog, "--slo", str(policy)]) \
            == EXIT_OK
        out = capsys.readouterr().out
        assert "watch-deadline" in out
        assert "VIOLATED" in out

    def test_bad_slo_policy_exits_2(self, smoke_txlog, tmp_path,
                                    capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rules": [{"name": "x", "kind": "bogus", '
                       '"threshold": 1}]}')
        assert watch_main([smoke_txlog, "--slo", str(bad)]) \
            == EXIT_UNREADABLE
