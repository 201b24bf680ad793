"""Byte-identity of the run analyzer's output on the golden txlog.

``python -m repro.obs LOG`` (terminal tables) and ``--json`` over the
stored fig7 capture must print exactly the stored reports in
tests/golden/.  Any change to a fold, a finalizer or the report
layout shows up as a byte diff.

Regenerate (ONLY when a report change lands intentionally)::

    zcat tests/golden/fig7_small_txlog.jsonl.gz > /tmp/fig7.jsonl
    PYTHONPATH=src python -m repro.obs /tmp/fig7.jsonl \\
        > tests/golden/fig7_report.txt
    PYTHONPATH=src python -m repro.obs /tmp/fig7.jsonl --json \\
        > tests/golden/fig7_report.json
"""

import gzip
import os

import pytest

from repro.obs.__main__ import main
from tests.golden.capture import GOLDEN_PATH

GOLDEN_DIR = os.path.dirname(GOLDEN_PATH)


@pytest.fixture(scope="module")
def golden_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "fig7.jsonl"
    with gzip.open(GOLDEN_PATH, "rb") as fh:
        path.write_bytes(fh.read())
    return str(path)


@pytest.mark.parametrize("stored, flags", [
    ("fig7_report.txt", []),
    ("fig7_report.json", ["--json"]),
])
def test_report_matches_golden(golden_log, capsys, stored, flags):
    assert main([golden_log, "--strict", *flags]) == 0
    with open(os.path.join(GOLDEN_DIR, stored)) as fh:
        assert capsys.readouterr().out == fh.read()
