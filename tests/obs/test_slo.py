"""SLO rules, burn-rate alerting, and in-log alert stamping.

Unit level: each rule kind's state machine on synthetic events
(edge-triggered transitions, terminal violations, warmups/budgets).
Integration level: a monitored run stamps SLO_ALERT records into its
transaction log, the chaos scorecard grades them, and post-hoc
:func:`repro.obs.slo.evaluate` re-derives the identical verdicts from
the log -- idempotently, because stamped alerts are never replayed.
"""

import dataclasses
import json
import os

import pytest

from repro.chaos.scorecard import format_scorecard, score
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.slo import (BURN, NULL_SLO_MONITOR, OK, VIOLATED,
                           RULE_KINDS, SLOMonitor, SLOPolicy, SLORule,
                           evaluate, render_slo_report)

from tests.obs.conftest import SMOKE_SLO_RULES


def policy(*rules) -> SLOPolicy:
    return SLOPolicy.from_dict({"rules": list(rules)})


class TestPolicy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLORule(name="x", kind="bogus", threshold=1.0)

    def test_from_dict_roundtrip(self):
        p = SLOPolicy.from_dict({
            "name": "p", "rules": [
                {"name": "d", "kind": "makespan_deadline",
                 "threshold": 900.0},
                {"name": "f", "kind": "tenant_p95_slowdown",
                 "threshold": 4.0, "tenant": "alice",
                 "baseline_s": 2.0}]})
        out = p.to_dict()
        assert out["name"] == "p"
        assert out["rules"][1]["tenant"] == "alice"
        assert bool(p)
        assert not SLOPolicy()

    def test_from_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(SMOKE_SLO_RULES))
        p = SLOPolicy.from_file(str(path))
        assert [r.name for r in p.rules] == ["deadline", "queue"]

    def test_example_policy_parses(self):
        p = SLOPolicy.from_file("examples/slo.json")
        assert p.name == "near-interactive"
        assert {r.kind for r in p.rules} == set(RULE_KINDS)


class TestMakespanDeadline:
    RULE = {"name": "d", "kind": "makespan_deadline", "threshold": 100.0}

    def test_projection_burn_then_recovery(self):
        m = SLOMonitor(policy(self.RULE), expected_tasks=100)
        # 10% done at t=20 -> projected 200s > 100s deadline: burn
        for i in range(9):
            m.on_event(ev.TASK_DONE, 2.0 * (i + 1), {})
        m.on_event(ev.TASK_DONE, 20.0, {})
        assert m.states() == {"d": BURN}
        # rapid progress pulls the projection back under: recovery
        for i in range(80):
            m.on_event(ev.TASK_DONE, 20.0 + 0.1 * i, {})
        assert m.states() == {"d": OK}
        assert [a["status"] for a in m.alerts] == [BURN, OK]

    def test_passing_deadline_is_terminal(self):
        m = SLOMonitor(policy(self.RULE))
        m.on_event(ev.TASK_DONE, 150.0, {})
        assert m.states() == {"d": VIOLATED}
        m.on_event(ev.TASK_DONE, 151.0, {})
        assert len(m.alerts) == 1, "violations alert exactly once"

    def test_finish_judges_final_makespan(self):
        m = SLOMonitor(policy(self.RULE))
        m.on_event(ev.TASK_DONE, 50.0, {})
        assert m.states() == {"d": OK}
        m.finish(makespan=120.0)
        assert m.states() == {"d": VIOLATED}
        assert m.finish() is m.alerts    # idempotent


class TestTenantSlowdown:
    RULE = {"name": "f", "kind": "tenant_p95_slowdown",
            "threshold": 3.0, "baseline_s": 1.0}

    def sub(self, m, tenant, turnaround, t=1.0):
        m.on_event(ev.SUBMISSION_DONE, t,
                   {"tenant": tenant, "turnaround": turnaround})

    def test_per_tenant_tracking_and_terminal_violation(self):
        m = SLOMonitor(policy(self.RULE))
        for _ in range(3):
            self.sub(m, "alice", 1.0)
        assert m.states() == {"f": OK}
        for _ in range(3):
            self.sub(m, "bob", 5.0)       # p95 5x baseline: violated
        assert m.states() == {"f": VIOLATED}
        assert m.tenant_states()["f"]["bob"] == VIOLATED
        assert m.tenant_states()["f"].get("alice", OK) == OK
        n = len(m.alerts)
        self.sub(m, "bob", 0.5)           # bob stays violated
        assert len(m.alerts) == n

    def test_needs_three_samples(self):
        m = SLOMonitor(policy(self.RULE))
        self.sub(m, "alice", 99.0)
        self.sub(m, "alice", 99.0)
        assert not m.alerts, "p95 of <3 samples is noise, not signal"

    def test_rule_scoped_to_one_tenant(self):
        scoped = dict(self.RULE, tenant="alice")
        m = SLOMonitor(policy(scoped))
        for _ in range(3):
            self.sub(m, "bob", 50.0)
        assert m.states() == {"f": OK}


class TestCacheHitFloor:
    RULE = {"name": "c", "kind": "cache_hit_floor", "threshold": 0.5,
            "warmup": 4}

    def stage(self, m, cached, t=1.0):
        m.on_event(ev.STAGE_IN, t, {"cached": cached})

    def test_warmup_then_burn_then_recovery(self):
        m = SLOMonitor(policy(self.RULE))
        for _ in range(4):
            self.stage(m, False)
        assert not m.alerts, "warmup stage-ins are not judged"
        self.stage(m, False)              # 0/5 below the 0.5 floor
        assert m.states() == {"c": BURN}
        for _ in range(8):
            self.stage(m, True)           # 8/13 -> back over
        assert m.states() == {"c": OK}

    def test_finish_converts_burn_to_violation(self):
        m = SLOMonitor(policy(self.RULE))
        for _ in range(6):
            self.stage(m, False)
        assert m.states() == {"c": BURN}
        m.finish()
        assert m.states() == {"c": VIOLATED}


class TestQueueWaitCeiling:
    RULE = {"name": "q", "kind": "queue_wait_ceiling",
            "threshold": 10.0, "budget_fraction": 0.1}

    def dispatch(self, m, waited, t=1.0):
        m.on_event(ev.DISPATCH, t, {"waited": waited})

    def test_budget_exhaustion_violates(self):
        m = SLOMonitor(policy(self.RULE))
        for _ in range(19):
            self.dispatch(m, 0.0)
        assert not m.alerts, "ramp-up is not judged"
        for _ in range(5):
            self.dispatch(m, 99.0)        # 5/24 > 10% budget
        assert m.states() == {"q": VIOLATED}

    def test_half_budget_burns(self):
        m = SLOMonitor(policy(self.RULE))
        self.dispatch(m, 99.0)
        for _ in range(19):
            self.dispatch(m, 0.0)         # 1/20 = 5% = half budget
        assert m.states() == {"q": BURN}
        alert = m.alerts[-1]
        assert alert["burn_rate"] == pytest.approx(0.5)


class TestWorkerLossBudget:
    RULE = {"name": "w", "kind": "worker_loss_budget", "threshold": 4}

    def test_burn_at_half_then_violated(self):
        m = SLOMonitor(policy(self.RULE))
        m.on_event(ev.WORKER_PREEMPT, 1.0, {"worker": 1})
        assert m.states() == {"w": OK}
        m.on_event(ev.WORKER_PREEMPT, 2.0, {"worker": 2})
        assert m.states() == {"w": BURN}
        for i in range(3):
            m.on_event(ev.WORKER_LEAVE, 3.0 + i, {"worker": 3 + i})
        assert m.states() == {"w": VIOLATED}
        assert [a["status"] for a in m.alerts] == [BURN, VIOLATED]


class TestBusIntegration:
    def test_typed_subscription_never_hears_own_alerts(self):
        bus = EventBus()
        m = SLOMonitor.install(
            policy({"name": "d", "kind": "makespan_deadline",
                    "threshold": 1.0}), bus)
        heard = []
        bus.subscribe([ev.SLO_ALERT],
                      lambda type, t, fields: heard.append(fields))
        bus.emit(ev.TASK_DONE, 5.0, task="a")
        assert m.states() == {"d": VIOLATED}
        assert len(heard) == 1, "the alert reached the bus once"

    def test_install_null_paths(self):
        p = policy({"name": "d", "kind": "makespan_deadline",
                    "threshold": 1.0})
        assert SLOMonitor.install(p, None) is NULL_SLO_MONITOR
        assert SLOMonitor.install(None, EventBus()) is NULL_SLO_MONITOR
        assert SLOMonitor.install(SLOPolicy(), EventBus()) \
            is NULL_SLO_MONITOR


class TestInLogStamping:
    """The run's own monitor stamps alerts into the txlog, the
    scorecard grades them, and replay re-derives them."""

    def test_alerts_stamped_into_txlog(self, smoke_records):
        stamped = [r for r in smoke_records
                   if r.get("type") == ev.SLO_ALERT]
        assert stamped, "the tight deadline must have alerted in-log"
        assert stamped[-1]["rule"] == "deadline"
        assert stamped[-1]["status"] == VIOLATED

    def test_evaluate_reproduces_stamped_alerts(self, smoke_txlog,
                                                smoke_records):
        p = SLOPolicy.from_dict(SMOKE_SLO_RULES)
        stamped = [r for r in smoke_records
                   if r.get("type") == ev.SLO_ALERT]
        m = evaluate(smoke_txlog, p)
        assert m.states() == {"deadline": VIOLATED, "queue": OK}
        assert len(m.alerts) == len(stamped)
        for alert, record in zip(m.alerts, stamped):
            assert alert["rule"] == record["rule"]
            assert alert["status"] == record["status"]

    def test_evaluate_is_idempotent(self, smoke_txlog):
        p = SLOPolicy.from_dict(SMOKE_SLO_RULES)
        a = evaluate(smoke_txlog, p)
        b = evaluate(smoke_txlog, p)
        assert a.states() == b.states()
        assert a.alerts == b.alerts

    def test_scorecard_grades_alerts(self, smoke_txlog):
        card = score(smoke_txlog)
        assert card.slo_alerts >= 1
        assert card.slo_violations == 1    # the deadline rule only
        assert "SLO alerts" in format_scorecard(card)
        assert "SLO rules violated" in format_scorecard(card)

    def test_render_slo_report(self, smoke_txlog):
        m = evaluate(smoke_txlog,
                     SLOPolicy.from_dict(SMOKE_SLO_RULES))
        report = render_slo_report(m)
        assert "deadline" in report
        assert "VIOLATED" in report
        assert render_slo_report(NULL_SLO_MONITOR) == ""


EXAMPLE_POLICY = os.path.join(os.path.dirname(__file__), os.pardir,
                              os.pardir, "examples", "slo.json")


@pytest.fixture(scope="module")
def storm_txlog(tmp_path_factory):
    """``python -m repro.bench run --scale 0.3 --workers 16 --chaos
    preempt-storm-50``: eight of sixteen workers preempted."""
    from repro.bench import calibration as cal
    from repro.bench.runners import build_environment, run_scheduler
    from repro.bench.workloads import build_workflow
    from repro.chaos import get_scenario
    from repro.hep.datasets import TABLE2

    base = TABLE2["DV3-Small"]
    spec = dataclasses.replace(base, name="storm",
                               n_tasks=int(base.n_tasks * 0.3),
                               input_bytes=base.input_bytes * 0.3)
    path = str(tmp_path_factory.mktemp("storm") / "storm.jsonl")
    run_scheduler(build_environment(16, seed=11),
                  build_workflow(spec, arity=cal.REDUCTION_ARITY,
                                 seed=11),
                  "taskvine", txlog_path=path,
                  chaos=get_scenario("preempt-storm-50"))
    return path


class TestReplayStep:
    def test_watch_prints_the_evaluate_table(self, storm_txlog,
                                             capsys):
        from repro.obs.watch import main as watch_main

        expected = render_slo_report(
            evaluate(storm_txlog, SLOPolicy.from_file(EXAMPLE_POLICY)))
        assert "loss-budget   worker_loss_budget   10         BURN" \
            in expected
        assert watch_main([storm_txlog, "--slo", EXAMPLE_POLICY,
                           "--no-clear"]) == 0
        assert capsys.readouterr().out.endswith("\n" + expected + "\n")

    def test_replay_skips_header_footer_and_stamped_alerts(self):
        m = SLOMonitor(policy({"name": "loss", "kind":
                               "worker_loss_budget", "threshold": 2}))
        for record in (
                {"type": ev.RUN, "t": 0.0, "tasks": 7},
                {"type": ev.SLO_ALERT, "t": 1.0, "rule": "loss"},
                {"type": ev.WORKER_PREEMPT, "t": 2.0, "worker": 1},
                {"type": ev.RUN_END, "t": 9.0, "makespan": 3.0}):
            m.replay(record)
        assert m.expected_tasks == 7
        assert m.last_t == 2.0
        assert [a["status"] for a in m.alerts] == [BURN]
