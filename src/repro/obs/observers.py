"""What watches or perturbs one run, opened and closed in one place.

Every assembled run -- :func:`repro.bench.runners.run_scheduler`, a
:class:`repro.facility.Facility`, and the
:class:`repro.serve.FacilityService` that holds a facility open --
attaches the same things to its manager: an event bus carrying every
lifecycle edge, a transaction log, an SLO monitor, a metrics registry
and a chaos scenario's fault injector.  :class:`RunObservers` decides
how once for all of them:

* the bus lives on the run's :class:`~repro.sim.trace.TraceRecorder`
  and is made only when something listens, so a run nothing observes
  keeps :data:`~repro.obs.events.NULL_BUS`;
* teardown stops the sampler and judges the SLOs before the RUN_END
  footer is written, so the final sample and alerts are in the log;
  a run that raised is footered ``completed: false`` with its error.
"""

from __future__ import annotations

from .events import EventBus
from .metrics import Sampler, install_standard_gauges

__all__ = ["RunObservers"]


class RunObservers:
    """The bus, transaction log, SLO monitor, metrics and fault
    injector of one run.

    Build it before the manager (the manager takes its bus from the
    trace), :meth:`start` it once the manager exists, then
    :meth:`close` it with the run's result or :meth:`abort` it with
    the exception that ended the run.
    """

    def __init__(self, env, txlog=None, slo_policy=None, metrics=None,
                 expected_tasks=None):
        self.env = env
        self.txlog = txlog
        self.metrics = metrics
        self.slo_monitor = None
        self.sampler = None
        self.injector = None
        if txlog is not None:
            txlog.attach(self.bus)
        if metrics is not None:
            metrics.bind(self.bus)
        if slo_policy is not None:
            # imported lazily so runs without SLOs never load it
            from .slo import SLOMonitor, SLOPolicy
            if isinstance(slo_policy, str):
                slo_policy = SLOPolicy.from_file(slo_policy)
            self.slo_monitor = SLOMonitor.install(
                slo_policy, self.bus, expected_tasks=expected_tasks)

    @property
    def bus(self) -> EventBus:
        """The run's event bus, made on first use and kept on the
        trace, which forwards its own records onto it."""
        trace = self.env.trace
        if trace.bus is None or not trace.bus.enabled:
            trace.bus = EventBus()
        return trace.bus

    def start(self, manager, chaos=None, horizon=None, arrivals=(),
              sample_interval=None) -> None:
        """Start what needs the live manager.

        ``chaos`` is a :class:`~repro.chaos.scenario.Scenario`; its
        relative injection times resolve against ``horizon`` seconds,
        estimated from ``arrivals`` -- ``(t, workflow)`` pairs -- when
        omitted.  The metrics registry, if any, gets the standard
        gauges over ``manager`` and, with ``sample_interval``, a
        sampler on the sim clock.
        """
        if chaos is not None:
            # imported lazily so fault-free runs never touch repro.chaos
            from ..chaos.inject import Injector, estimate_horizon
            if horizon is None:
                cores = self.env.total_cores
                horizon = (max((t for t, _ in arrivals), default=0.0)
                           + sum(estimate_horizon(workflow, cores)
                                 for _, workflow in arrivals))
            self.injector = Injector(manager, chaos, horizon)
            self.injector.start()
        if self.metrics is not None:
            install_standard_gauges(self.metrics, manager)
            if sample_interval is not None:
                self.sampler = Sampler(self.env.sim, self.metrics,
                                       interval=sample_interval,
                                       bus=manager.bus)
                self.sampler.start()

    def close(self, run):
        """Close after a finished run and hand the observers to
        ``run`` (a :class:`~repro.core.manager.RunResult`)."""
        self._finish(completed=run.completed, makespan=run.makespan,
                     tasks_done=run.tasks_done,
                     task_failures=run.task_failures, error=run.error)
        run.slo_monitor = self.slo_monitor
        run.metrics_registry = self.metrics
        if self.injector is not None:
            run.chaos_injections = self.injector.fired
        return run

    def abort(self, exc: BaseException) -> None:
        """Close after a run that raised ``exc``."""
        self._finish(completed=False, error=repr(exc))

    def _finish(self, **footer) -> None:
        """Stop, judge, then write ``footer`` as the RUN_END record."""
        if self.sampler is not None:
            self.sampler.stop()
        if self.slo_monitor is not None:
            self.slo_monitor.finish(makespan=footer.get("makespan"))
        if self.txlog is not None:
            self.txlog.close(**footer)
