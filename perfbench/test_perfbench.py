"""Self-tests of the benchmark, on a tiny scale of each workload.

    python3 -m pytest perfbench -q

They run the benchmark's command line in a subprocess, as a harness would,
and check its contract: the last line is the JSON result, every metric
``BENCHMARK.json`` names is reported with its unit, a reference digest
that does not match is a failure, a ``batch-fig14b`` that is not
``fig14b-2400`` is a failure, and a directory without the simulator
sources makes the command fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--scale", "tiny", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_prints_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(lines)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} ")
                   and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_is_a_failure(workload, tmp_path):
    ref = str(tmp_path / "reference.json")
    proc, lines = bench("--workload", workload, "--record", ref)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    proc, lines = bench("--workload", workload, "--reference", ref)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result_of(lines)["correct"] is True
    assert "reference: seeds 11" in proc.stdout

    with open(ref) as fh:
        doc = json.load(fh)
    outputs = doc[workload]["tiny"]["11"]
    key = next(k for k in sorted(outputs)
               if k.endswith("sha256") or k.endswith("digest")
               or k == "trace")
    value = outputs[key]
    if isinstance(value, list):
        value[0] = "0" * 64
    else:
        outputs[key] = "0" * 64
    with open(ref, "w") as fh:
        json.dump(doc, fh)

    proc, lines = bench("--workload", workload, "--reference", ref)
    assert proc.returncode == 1
    result = result_of(lines)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert f"{key} differs from the reference" in proc.stdout


def test_batch_unlike_fig14b_2400_is_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import run
    import workloads
    assert run.config_problems() == []
    full = workloads.WORKLOADS["batch-fig14b"].scales["full"]
    monkeypatch.setitem(full, "parts", full["parts"][:1])
    assert run.config_problems()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", WORKLOADS[0], cwd=str(tmp_path),
                        script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
