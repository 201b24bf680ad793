"""Pins the output of every CLI route that assembles a run.

Four CLIs build runs: ``bench run`` (plain, under chaos with an SLO
policy, and as a multi-tenant facility), ``python -m repro.facility``,
``python -m repro.chaos run`` and ``python -m repro.serve run``.  Each
one opens a bus, a transaction log and maybe an SLO monitor or a fault
injector, and closes them in a fixed order.  The digests below are the
sha256 of each route's transaction logs and of its stdout at smoke
scale, so a change to how a run is set up or torn down shows up here
even when every aggregate still looks right.

The routes run in-process from a temporary working directory with
relative paths, so no machine-specific path reaches stdout.
"""

import hashlib
import os
import signal

import pytest

from repro.bench.__main__ import main as bench_main
from repro.chaos.__main__ import main as chaos_main
from repro.facility.__main__ import main as facility_main
from repro.serve.__main__ import main as serve_main

SLO_POLICY = os.path.join(os.path.dirname(__file__), "..", "examples",
                          "slo.json")

SMOKE = ["--workload", "DV3-Small", "--scale", "0.03", "--workers", "4"]

#: route -> (CLI entry point, argv); every txlog lands under the
#: working directory
ROUTES = {
    "bench-run": (bench_main, ["run", *SMOKE, "--txlog", "run.jsonl"]),
    "bench-run-chaos-slo": (bench_main, [
        "run", "--workload", "DV3-Small", "--scale", "0.05",
        "--workers", "6", "--chaos", "smoke", "--slo", SLO_POLICY,
        "--txlog", "run.jsonl"]),
    "bench-run-tenants": (bench_main, [
        "run", *SMOKE, "--tenants", "3", "--txlog", "run.jsonl"]),
    "facility": (facility_main, [
        *SMOKE, "--tenants", "3", "--txlog", "facility.jsonl"]),
    "chaos-run": (chaos_main, [
        "run", "--scenario", "smoke", "--workload", "DV3-Small",
        "--scale", "0.05", "--workers", "6", "--out", "chaos"]),
    "serve-run": (serve_main, ["run", "--txlog", "serve.jsonl"]),
}

#: route -> (sha256 over its txlogs in path order, sha256 of stdout),
#: recorded before the run-setup paths were merged
PINS = {
    "bench-run": (
        "b71bd98dffa70215788af9d32cea1a562fb1af0a4d50411a7a99a84db6432f82",
        "773effc27c98904c0b9a67805d460df57b18ad123c4bfff3abb9c08bc982065d"),
    "bench-run-chaos-slo": (
        "f2130dbef0446573655aadee214329b3887c75912dae0db868be02299f354608",
        "aa47038ea39247340341bd50eae6c1245c12b6920fa8a9dbc1133b5471e2f7c8"),
    "bench-run-tenants": (
        "60b48ddebd14b9f90cfed5744ddfb593b0e79e1f5e0c852f9816da686f978c16",
        "85c90505289ab6faad8be889960a44174c8315fcc244850288847f267ed75d9c"),
    "facility": (
        "51e9ada1a94b07194741e724b21ce641f5d7d896192ebe835982095374d32ebb",
        "6a9a1aca3aedc0c67443ce89bc7354abf0a68d6ee0d886f589c90d440fc5a20d"),
    "chaos-run": (
        "cb15221dd61ede32d06414a18eed9c3a9061e7d805c52187ac77ea07cae622b8",
        "4859a995907d453c2705ca075b76148956d2b032ac825ef6ab84cae33fcde375"),
    "serve-run": (
        "b0380f888ac3628dec5a849c647d1bb08137b4462c41b9921c1d270100fdd1bb",
        "297e849b0ceea150fba59ccd1f3598323eb63d932c5c376df015ed046c6312ad"),
}


@pytest.fixture(autouse=True)
def restored_handlers():
    # each CLI installs txlog signal handlers; keep them out of the
    # rest of the suite
    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    yield
    for sig, handler in saved.items():
        signal.signal(sig, handler)


def _txlog_digest(root):
    digest = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, name), root)
                   for d, _dirs, names in os.walk(root)
                   for name in names if name.endswith(".jsonl"))
    assert paths, "the route wrote no transaction log"
    for path in paths:
        digest.update(path.encode() + b"\n")
        with open(os.path.join(root, path), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_output_pinned(route, tmp_path, monkeypatch, capsys):
    main, argv = ROUTES[route]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    got = (_txlog_digest(str(tmp_path)),
           hashlib.sha256(stdout.encode()).hexdigest())
    assert got == PINS[route]
