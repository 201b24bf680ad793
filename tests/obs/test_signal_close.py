"""SIGTERM/SIGINT must close transaction logs, not tear them.

Every txlog-writing CLI installs :func:`install_signal_handlers`
after argument parsing: on either signal the open logs are flushed
and footered (``completed: false, terminated: <SIG>``), then the
process exits ``128 + signum``.  Without this, a ``kill`` during a
long campaign leaves a footerless log that every downstream reader
treats as a still-live run and tails forever.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.obs import events as ev
from repro.obs.txlog import (ReadStatus, TailReader, TransactionLog,
                             install_signal_handlers, read_records)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _read(path):
    status = ReadStatus()
    return list(read_records(path, status=status)), status


@pytest.fixture
def restored_handlers():
    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    yield
    for sig, handler in saved.items():
        signal.signal(sig, handler)


class TestInProcess:
    def test_sigterm_footers_open_logs_then_exits(self, tmp_path,
                                                  restored_handlers):
        path = tmp_path / "run.jsonl"
        log = TransactionLog(str(path))
        log.record(ev.TASK_DONE, 1.0, task="x")
        install_signal_handlers()
        with pytest.raises(SystemExit) as err:
            os.kill(os.getpid(), signal.SIGTERM)
        assert err.value.code == 128 + signal.SIGTERM
        records, status = _read(str(path))
        assert status.complete and not status.partial_tail
        footer = records[-1]
        assert footer["type"] == ev.RUN_END
        assert footer["completed"] is False
        assert footer["terminated"] == "SIGTERM"

    def test_sigint_names_the_signal(self, tmp_path,
                                     restored_handlers):
        path = tmp_path / "run.jsonl"
        # the open-log registry holds weak references: bind the log so
        # it is still alive when the handler fires
        log = TransactionLog(str(path))
        install_signal_handlers()
        with pytest.raises(SystemExit) as err:
            os.kill(os.getpid(), signal.SIGINT)
        assert log.records_written >= 1
        assert err.value.code == 128 + signal.SIGINT
        records, status = _read(str(path))
        assert status.complete
        assert records[-1]["terminated"] == "SIGINT"


#: the child process: ``python -c SIGNAL_AT_COMMIT N SIG MODULE ARGS``
#: counts TASK_DONE events on every bus, signals itself with SIG at the
#: N-th, and runs MODULE as ``python -m`` would.  The signal lands at a
#: fixed point of the run, so the run can never finish before it.
SIGNAL_AT_COMMIT = """
import os, runpy, sys
from repro.obs import events
at, sig, module = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
emit, commits = events.EventBus.emit, [0]
def emit_and_count(self, type, t, **fields):
    emit(self, type, t, **fields)
    if type == events.TASK_DONE:
        commits[0] += 1
        if commits[0] == at:
            os.kill(os.getpid(), sig)
events.EventBus.emit = emit_and_count
sys.argv = [module, *sys.argv[4:]]
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""

#: far inside every campaign below (hundreds of tasks each)
AT_COMMIT = 20


def _terminate_midrun(argv, txlog, sig):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SIGNAL_AT_COMMIT, str(AT_COMMIT),
         str(int(sig)), *argv],
        env=env, cwd=os.path.dirname(txlog), timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


class TestCliRegression:
    @pytest.mark.parametrize("argv,flag", [
        (["repro.facility", "--scale", "1.0", "--workers", "2",
          "--submissions", "2"], "--txlog"),
        (["repro.serve", "run", "--scale", "1.0", "--workers",
          "2", "--submissions", "2"], "--txlog"),
    ], ids=["facility", "serve"])
    def test_sigterm_leaves_a_complete_log(self, tmp_path, argv, flag):
        txlog = str(tmp_path / "campaign.jsonl")
        code = _terminate_midrun(
            argv + [flag, txlog], txlog, signal.SIGTERM)
        assert code == 128 + signal.SIGTERM
        records, status = _read(txlog)
        assert status.complete, "terminated log is missing its footer"
        assert not status.partial_tail
        assert status.skipped == 0
        footer = records[-1]
        assert footer["type"] == ev.RUN_END
        assert footer["completed"] is False
        assert footer["terminated"] == "SIGTERM"
        # the log is whole: every line parses
        with open(txlog) as fh:
            for line in fh:
                json.loads(line)
        # a tail consumer sees the footer and stops following -- it
        # never holds back a fragment after a clean stop
        with TailReader(txlog) as tail:
            tailed = tail.poll()
            assert tail.status.complete
            assert not tail.status.partial_tail
            assert tailed[-1]["type"] == ev.RUN_END
