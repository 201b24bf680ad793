"""End-to-end facility tests on a tiny shared cluster."""

import pytest

from repro.bench.workloads import Arrival
from repro.facility import (
    Admitted,
    Facility,
    Queued,
    Rejected,
    Tenant,
    TenantQuota,
)
from repro.obs import events as ev
from repro.obs.txlog import read_records

from .conftest import make_env, small_workflow


def burst(tenants, workflow=None, at=0.0):
    wf = workflow or small_workflow()
    return [Arrival(t=at, tenant=t, workflow=wf, tag="small")
            for t in tenants]


class TestAdmission:
    def test_discipline_installed_in_manager(self, env):
        """Regression: an empty ReadyQueue is falsy, so the manager
        must test `is not None`, not truthiness, or the discipline is
        silently swapped for the default two-tier queue."""
        fac = Facility(env, [Tenant("a")])
        assert fac.manager.ready_queue is fac.discipline

    def test_immediate_admission(self, env):
        fac = Facility(env, [Tenant("a")])
        decision = fac.submit("a", small_workflow())
        assert isinstance(decision, Admitted)
        assert decision.submission_id == "a.0"

    def test_unknown_tenant_rejected(self, env):
        fac = Facility(env, [Tenant("a")])
        decision = fac.submit("mallory", small_workflow())
        assert isinstance(decision, Rejected)
        assert "unknown" in decision.reason

    def test_oversized_submission_rejected(self, env):
        quota = TenantQuota(inflight_tasks=2)
        fac = Facility(env, [Tenant("a", quota=quota)])
        decision = fac.submit("a", small_workflow(n_proc=4))
        assert isinstance(decision, Rejected)
        assert "quota" in decision.reason

    def test_second_submission_queued_then_drained(self, env):
        """Quota fits one submission: the second waits in the backlog
        and is admitted when the first finishes."""
        wf = small_workflow(n_proc=2)      # 3 tasks
        quota = TenantQuota(inflight_tasks=3)
        fac = Facility(env, [Tenant("a", quota=quota)])
        result = fac.run(burst(["a"], wf) + burst(["a"], wf, at=1.0))
        assert result.completed
        kinds = [type(d).__name__ for d in result.decisions]
        assert kinds == ["Admitted", "Queued"]
        # both eventually ran to completion
        assert all(s.t_done is not None
                   for s in result.submissions.values())
        waits = result.tenant_stats["a"].admission_waits
        assert len(waits) == 2 and waits[1] > 0

    def test_backlog_overflow_rejected(self, env):
        quota = TenantQuota(inflight_tasks=5, max_queued=1)
        fac = Facility(env, [Tenant("a", quota=quota)])
        wf = small_workflow()              # 5 tasks: fills the quota
        first = fac.submit("a", wf)
        second = fac.submit("a", wf)
        third = fac.submit("a", wf)
        assert isinstance(first, Admitted)
        assert isinstance(second, Queued)
        assert isinstance(third, Rejected)


class TestRun:
    def test_all_tenants_complete(self, env):
        fac = Facility(env, [Tenant("a"), Tenant("b"), Tenant("c")])
        result = fac.run(burst(["a", "b", "c"]))
        assert result.completed
        assert result.run.tasks_done == 15  # 3 x 5 tasks
        for name in ("a", "b", "c"):
            stats = result.tenant_stats[name]
            assert stats.tasks_done == 5
            assert len(stats.turnarounds) == 1

    def test_cross_tenant_cache_sharing(self, env):
        """The second tenant's identical chunks are served from the
        first tenant's replicas already on the workers."""
        fac = Facility(env, [Tenant("a"), Tenant("b")],
                       discipline="fifo")
        result = fac.run([
            Arrival(t=0.0, tenant="a", workflow=small_workflow()),
            Arrival(t=30.0, tenant="b", workflow=small_workflow()),
        ])
        assert result.completed
        assert result.tenant_stats["b"].peer_cache_bytes > 0
        # the facility staged less than two isolated runs would
        per_run = small_workflow().total_input_bytes()
        assert result.staged_bytes_total() < 2 * per_run

    def test_disciplines_all_complete(self):
        for discipline in ("fifo", "wfs", "priority"):
            fac = Facility(make_env(), [Tenant("a"), Tenant("b")],
                           discipline=discipline)
            result = fac.run(burst(["a", "b"]))
            assert result.completed, discipline
            assert result.run.tasks_done == 10

    def test_chaos_compatible(self):
        from repro.chaos import get_scenario
        tenants = [Tenant("a"), Tenant("b")]
        baseline = Facility(make_env(n_workers=4), tenants).run(
            burst(["a", "b"]))
        fac = Facility(make_env(n_workers=4), tenants)
        # resolved against the fault-free makespan, the storm lands
        # mid-run and preempts a worker of the loaded facility
        result = fac.run(burst(["a", "b"]),
                         chaos=get_scenario("smoke"),
                         chaos_horizon=baseline.run.makespan)
        assert result.completed
        fired = result.run.chaos_injections
        assert [(i["kind"], i["victims"]) for i in fired] == [
            ("preemption-storm", 1)]
        assert fired[0]["t"] < result.run.makespan


class TestObservability:
    def test_txlog_records_submission_lifecycle(self, tmp_path):
        path = str(tmp_path / "fac.jsonl")
        fac = Facility(make_env(), [Tenant("a"), Tenant("b")],
                       txlog_path=path)
        fac.run(burst(["a", "b"]))
        records = list(read_records(path))
        types = {r["type"] for r in records}
        assert {ev.SUBMIT, ev.ADMIT, ev.SUBMISSION_DONE} <= types
        header = next(r for r in records if r["type"] == ev.RUN)
        assert header["facility"] is True
        assert header["tenants"] == ["a", "b"]
        done = [r for r in records
                if r["type"] == ev.SUBMISSION_DONE]
        assert {r["tenant"] for r in done} == {"a", "b"}
        assert all(r["turnaround"] > 0 for r in done)

    def test_task_events_carry_tenant(self, tmp_path):
        path = str(tmp_path / "fac.jsonl")
        fac = Facility(make_env(), [Tenant("a"), Tenant("b")],
                       txlog_path=path)
        fac.run(burst(["a", "b"]))
        records = list(read_records(path))
        for r in records:
            if r["type"] in (ev.DISPATCH, ev.TASK_DONE):
                assert r["tenant"] in ("a", "b")

    def test_stage_in_peer_tenant_field(self, tmp_path):
        path = str(tmp_path / "fac.jsonl")
        fac = Facility(make_env(), [Tenant("a"), Tenant("b")],
                       txlog_path=path, discipline="fifo")
        fac.run([
            Arrival(t=0.0, tenant="a", workflow=small_workflow()),
            Arrival(t=30.0, tenant="b", workflow=small_workflow()),
        ])
        hits = [r for r in read_records(path)
                if r["type"] == ev.STAGE_IN and r.get("cached")
                and r.get("peer_tenant") is not None
                and r["peer_tenant"] != r.get("tenant")]
        assert hits
        assert all(r["tenant"] == "b" and r["peer_tenant"] == "a"
                   for r in hits)

    def test_analyzer_tenant_breakdown(self, tmp_path):
        from repro.obs.analyze import render_report, report_data
        path = str(tmp_path / "fac.jsonl")
        fac = Facility(make_env(), [Tenant("a"), Tenant("b")],
                       txlog_path=path)
        fac.run(burst(["a", "b"]))
        report = report_data(path)
        breakdown = report["tenants"]
        assert [t["tenant"] for t in breakdown["tenants"]] == ["a", "b"]
        for row in breakdown["tenants"]:
            assert row["tasks_done"] == 5
            assert row["mean_turnaround_s"] > 0
        assert "TENANTS" in render_report(report)

    def test_single_tenant_report_unchanged(self, tmp_path):
        """Plain (non-facility) logs render no tenants section."""
        from repro.bench.runners import run_scheduler
        from repro.obs.analyze import render_report, report_data
        path = str(tmp_path / "plain.jsonl")
        run_scheduler(make_env(), small_workflow(), "taskvine",
                      txlog_path=path)
        assert "TENANTS" not in render_report(report_data(path))


class TestValidation:
    def test_no_tenants(self, env):
        with pytest.raises(ValueError):
            Facility(env, [])

    def test_duplicate_tenants(self, env):
        with pytest.raises(ValueError):
            Facility(env, [Tenant("a"), Tenant("a")])
