"""Pins the facility's shared-cache placement decisions.

A multi-tenant facility places each task on the first free worker that
holds the most input bytes, counting replicas staged under another
tenant's namespace (content-equivalents); with no holder it rotates
through the free workers.  The digest below is the DISPATCH
``(task, worker)`` sequence of a fixed run, so any change to the
scoring, its tie rule or the fallback's counter shows up here before it
shows up in a benchmark reference digest.
"""

import hashlib

from repro.bench.workloads import Arrival
from repro.facility import Facility, Tenant
from repro.obs import events as ev

from .conftest import make_env, small_workflow

#: sha256 of the "task worker" DISPATCH lines of _pinned_run().
PINNED_DISPATCH_SHA256 = (
    "7363397e6036015a9fd020cfbfd728f96e93f4f933f45ff6409c815a805b78b9")


def _dispatches(facility, arrivals):
    seen = []
    facility.bus.subscribe(
        ev.DISPATCH,
        lambda _type, _t, fields: seen.append(
            (fields["task"], fields["worker"])))
    result = facility.run(arrivals)
    assert result.completed
    return seen


def _pinned_run():
    fac = Facility(make_env(n_workers=4, seed=7),
                   [Tenant("a"), Tenant("b"), Tenant("c")],
                   discipline="wfs")
    return _dispatches(fac, [
        Arrival(t=0.0, tenant="a", workflow=small_workflow(n_proc=6)),
        Arrival(t=0.0, tenant="b", workflow=small_workflow(n_proc=3)),
        Arrival(t=20.0, tenant="c", workflow=small_workflow(n_proc=6)),
        Arrival(t=40.0, tenant="a", workflow=small_workflow(n_proc=4)),
        Arrival(t=40.0, tenant="b", workflow=small_workflow(n_proc=6)),
    ])


def test_dispatch_sequence_pinned():
    seq = _pinned_run()
    assert len(seq) == 7 + 4 + 7 + 5 + 7  # one dispatch per task
    digest = hashlib.sha256("".join(
        f"{task} {worker}\n" for task, worker in seq).encode()).hexdigest()
    assert digest == PINNED_DISPATCH_SHA256


def test_fallback_rotates_when_no_worker_holds_inputs():
    env = make_env(n_workers=4, seed=7)
    fac = Facility(env, [Tenant("a")])
    workers = list(fac.manager.free_workers)
    seq = _dispatches(fac, [
        Arrival(t=0.0, tenant="a", workflow=small_workflow(n_proc=8))])
    # nothing is cached at t=0, so the eight processing tasks go round
    # the free workers in order, twice, instead of piling onto one
    first_wave = [worker for _task, worker in seq[:8]]
    assert first_wave == workers * 2
