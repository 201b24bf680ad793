"""Wall-clock performance harness: ``python -m repro.bench perf``.

The paper's argument is about *turnaround time*; ours is only as good
as the simulator's own throughput (ROADMAP: "as fast as the hardware
allows").  This harness pins a small set of representative workloads
and measures what the optimisation work is accountable to:

* **wall seconds** per workload (``time.perf_counter`` around the run),
* **kernel events per second** (``Simulation.events_processed / wall``),
* **peak RSS** (``resource.getrusage`` high-water mark).

Results are merged into a ``BENCH_perf.json`` document keyed by
``(workload, label)`` so a ``baseline`` capture and an ``optimized``
capture can live side by side in ``results/`` and the speedup is
quantified in-repo.

Pinned workloads::

    smoke          DV3-Small x0.05 on 6 workers (CI-sized, seconds)
    fig14b-2400    DV3-Large + RS-TriPhoton at 200 workers / 2400 cores
    fig15-dv3huge  DV3-Huge at 600 workers / 7200 cores (185 k tasks)
    facility-8     8 tenants sharing one manager (DV3-Small x0.25)

Every workload runs with a pinned seed, so before/after measurements
simulate the *identical* event sequence -- the determinism contract
(byte-identical transaction logs) is what makes the wall-clock numbers
comparable at all.

By default each workload runs in its own subprocess so peak-RSS
numbers are not polluted by earlier workloads in the same process
(``ru_maxrss`` is a process-lifetime high-water mark).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "run_workload", "merge_entry",
           "validate_document", "capture_stamp", "current_git_sha",
           "workload_config_hash", "main"]

SCHEMA_VERSION = 1
DEFAULT_OUT = "BENCH_perf.json"

#: required entry fields -> type(s) accepted by the schema check.
ENTRY_FIELDS: Dict[str, tuple] = {
    "workload": (str,),
    "label": (str,),
    "seed": (int,),
    "wall_s": (int, float),
    "events": (int,),
    "events_per_s": (int, float),
    "tasks": (int,),
    "sim_s": (int, float),
    "peak_rss_mb": (int, float),
    "cores": (int,),
    "python": (str,),
}

#: optional entry fields (type-checked when present): the provenance
#: stamp making each capture attributable to a commit + workload
#: definition, the sentinel's repeat samples, and the self-profile.
OPTIONAL_ENTRY_FIELDS: Dict[str, tuple] = {
    "git_sha": (str,),
    "captured_at": (str,),
    "config_hash": (str,),
    "samples": (list,),
    "profile": (dict,),
}


# -- pinned workloads --------------------------------------------------------


def _taskvine_run(spec_name: str, n_workers: int, seed: int,
                  scale: float = 1.0,
                  txlog_path: Optional[str] = None) -> dict:
    from ..hep.datasets import TABLE2
    from . import calibration as cal
    from .runners import build_environment, run_scheduler
    from .workloads import build_workflow

    spec = TABLE2[spec_name].scaled(scale)
    env = build_environment(
        n_workers,
        node=cal.campus_node(disk=spec.worker_disk, ram=spec.worker_ram),
        seed=seed)
    workflow = build_workflow(spec, arity=cal.REDUCTION_ARITY, seed=seed)
    result = run_scheduler(env, workflow, "taskvine",
                           cal.TASKVINE_FUNCTIONS_CONFIG,
                           txlog_path=txlog_path)
    result.raise_for_status()
    return {"events": env.sim.events_processed,
            "tasks": result.tasks_done,
            "sim_s": result.makespan,
            "cores": n_workers * env.cores_per_worker}


def _smoke(seed: int, txlog_path: Optional[str] = None) -> dict:
    return _taskvine_run("DV3-Small", 6, seed, scale=0.05,
                         txlog_path=txlog_path)


def _fig14b_2400(seed: int, txlog_path: Optional[str] = None) -> dict:
    """The 2400-core point of Fig 14b: both workloads, 200 workers.

    A requested txlog captures the DV3-Large component only (the
    dominant one): the two runs are separate schedulers with
    overlapping task ids, so one log cannot hold both.
    """
    total = {"events": 0, "tasks": 0, "sim_s": 0.0, "cores": 2400}
    for spec_name in ("DV3-Large", "RS-TriPhoton"):
        part = _taskvine_run(
            spec_name, 200, seed,
            txlog_path=txlog_path if spec_name == "DV3-Large" else None)
        total["events"] += part["events"]
        total["tasks"] += part["tasks"]
        total["sim_s"] += part["sim_s"]
    return total


def _fig15_dv3huge(seed: int, txlog_path: Optional[str] = None) -> dict:
    return _taskvine_run("DV3-Huge", 600, seed, txlog_path=txlog_path)


def _facility_8(seed: int, txlog_path: Optional[str] = None) -> dict:
    """Eight tenants multiplexed onto one shared manager."""
    from ..facility import Facility
    from .runners import build_environment
    from .serve import serve_campaign

    env = build_environment(24, seed=seed)
    tenants, arrivals = serve_campaign(
        n_tenants=8, per_tenant=1, workload="DV3-Small", scale=0.25,
        arrival="poisson:0.05", seed=seed)
    facility = Facility(env, tenants, txlog_path=txlog_path)
    result = facility.run(arrivals)
    result.run.raise_for_status()
    return {"events": env.sim.events_processed,
            "tasks": result.run.tasks_done,
            "sim_s": result.run.makespan,
            "cores": 24 * env.cores_per_worker}


WORKLOADS: Dict[str, Tuple[str, Callable[[int], dict]]] = {
    "smoke": ("DV3-Small x0.05, 6 workers (CI-sized)", _smoke),
    "fig14b-2400": ("DV3-Large + RS-TriPhoton, 200 workers "
                    "(the 2400-core Fig 14b point)", _fig14b_2400),
    "fig15-dv3huge": ("DV3-Huge, 600 workers (185 k tasks)",
                      _fig15_dv3huge),
    "facility-8": ("8 tenants on one shared manager "
                   "(DV3-Small x0.25, 24 workers)", _facility_8),
}

#: the knobs that define each pinned workload, for config hashing --
#: if these (or the underlying Table II spec) change, old captures
#: stop being comparable and the hash says so.
WORKLOAD_CONFIGS: Dict[str, dict] = {
    "smoke": {"specs": ["DV3-Small"], "scale": 0.05, "workers": 6},
    "fig14b-2400": {"specs": ["DV3-Large", "RS-TriPhoton"],
                    "scale": 1.0, "workers": 200},
    "fig15-dv3huge": {"specs": ["DV3-Huge"], "scale": 1.0,
                      "workers": 600},
    "facility-8": {"specs": ["DV3-Small"], "scale": 0.25,
                   "workers": 24, "tenants": 8},
}


# -- provenance stamps -------------------------------------------------------


def current_git_sha() -> str:
    """HEAD commit of the working tree (``REPRO_GIT_SHA`` overrides;
    ``unknown`` when git is unavailable)."""
    sha = os.environ.get("REPRO_GIT_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def workload_config_hash(name: str, seed: int) -> str:
    """Digest of everything that defines the workload's event sequence:
    the Table II specs, scale, worker count, reduction arity, seed.
    Two captures are comparable iff their hashes match."""
    from ..hep.datasets import TABLE2
    from . import calibration as cal

    config = dict(WORKLOAD_CONFIGS[name])
    config["workload"] = name
    config["seed"] = seed
    config["arity"] = cal.REDUCTION_ARITY
    config["specs"] = {
        spec_name: dataclasses.asdict(TABLE2[spec_name])
        for spec_name in config["specs"]}
    payload = json.dumps(config, sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def capture_stamp(name: str, seed: int) -> dict:
    """The provenance fields stamped onto every capture entry."""
    return {
        "git_sha": current_git_sha(),
        "captured_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "config_hash": workload_config_hash(name, seed),
    }


# -- measurement -------------------------------------------------------------


def run_workload(name: str, label: str, seed: int = 11,
                 self_profile: bool = False,
                 txlog_path: Optional[str] = None) -> dict:
    """Run one pinned workload in-process and return its entry dict.

    With ``self_profile`` the run executes under a
    :class:`~repro.obs.profile.PhaseProfiler` and the entry gains a
    ``profile`` dict attributing the wall time to simulator phases.
    With ``txlog_path`` the run also writes its transaction log there
    (skewing wall time -- never mix txlog and no-txlog captures in a
    comparison; the sentinel only uses this on untimed re-runs for
    differential diagnosis).
    """
    _desc, fn = WORKLOADS[name]
    gc.collect()
    profiler = None
    if self_profile:
        from ..obs.profile import PhaseProfiler
        profiler = PhaseProfiler().start()
    t0 = time.perf_counter()
    stats = (fn(seed, txlog_path=txlog_path) if txlog_path is not None
             else fn(seed))
    wall = time.perf_counter() - t0
    if profiler is not None:
        profiler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    entry = {
        "workload": name,
        "label": label,
        "seed": seed,
        "wall_s": round(wall, 3),
        "events": stats["events"],
        "events_per_s": round(stats["events"] / wall, 1),
        "tasks": stats["tasks"],
        "sim_s": round(stats["sim_s"], 2),
        "peak_rss_mb": round(rss_kb / 1024.0, 1),
        "cores": stats["cores"],
        "python": platform.python_version(),
    }
    entry.update(capture_stamp(name, seed))
    if profiler is not None:
        entry["profile"] = profiler.report()
    return entry


def _run_in_subprocess(name: str, label: str, seed: int,
                       self_profile: bool = False) -> dict:
    """Run one workload in a fresh interpreter (clean peak-RSS)."""
    import tempfile
    fd, json_path = tempfile.mkstemp(prefix=f"perf-{name}-",
                                     suffix=".json")
    os.close(fd)
    try:
        cmd = [sys.executable, "-m", "repro.bench", "perf",
               "--workload", name, "--label", label,
               "--seed", str(seed),
               "--in-process", "--json", json_path, "--out", ""]
        if self_profile:
            cmd.append("--self-profile")
        proc = subprocess.run(cmd, env=os.environ.copy())
        if proc.returncode != 0:
            raise RuntimeError(f"perf workload {name!r} failed "
                               f"(exit {proc.returncode})")
        with open(json_path) as fh:
            return json.load(fh)
    finally:
        try:
            os.unlink(json_path)
        except OSError:
            pass


# -- BENCH_perf.json document ------------------------------------------------


def load_document(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and isinstance(doc.get("entries"), list):
            return doc
    return {"schema": SCHEMA_VERSION,
            "generator": "python -m repro.bench perf",
            "entries": []}


def merge_entry(doc: dict, entry: dict) -> dict:
    """Insert ``entry``, replacing any previous (workload, label)."""
    key = (entry["workload"], entry["label"])
    entries = [e for e in doc["entries"]
               if (e.get("workload"), e.get("label")) != key]
    entries.append(entry)
    doc["entries"] = entries
    return doc


def validate_document(doc: dict) -> List[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION}, "
                      f"got {doc.get('schema')!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        errors.append("entries must be a non-empty list")
        return errors
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            errors.append(f"entries[{i}] is not an object")
            continue
        for field, types in ENTRY_FIELDS.items():
            value = entry.get(field)
            if not isinstance(value, types) or isinstance(value, bool):
                errors.append(f"entries[{i}].{field}: expected "
                              f"{'/'.join(t.__name__ for t in types)}, "
                              f"got {value!r}")
        for field, types in OPTIONAL_ENTRY_FIELDS.items():
            value = entry.get(field)
            if value is not None and (not isinstance(value, types)
                                      or isinstance(value, bool)):
                errors.append(f"entries[{i}].{field}: expected "
                              f"{'/'.join(t.__name__ for t in types)}, "
                              f"got {value!r}")
        key = (entry.get("workload"), entry.get("label"))
        if key in seen:
            errors.append(f"duplicate entry for {key}")
        seen.add(key)
        if isinstance(entry.get("wall_s"), (int, float)) \
                and entry["wall_s"] <= 0:
            errors.append(f"entries[{i}].wall_s must be positive")
    return errors


def _format_report(entries: List[dict]) -> str:
    from .report import format_table
    rows = [(e["workload"], e["label"], e["wall_s"],
             f"{e['events_per_s']:,.0f}", e["events"], e["tasks"],
             e["peak_rss_mb"]) for e in entries]
    return format_table(
        ["Workload", "Label", "Wall (s)", "Events/s", "Events",
         "Tasks", "Peak RSS (MB)"],
        rows, title="PERF: simulator wall-clock benchmark")


# -- CLI ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Measure simulator wall-clock performance on "
                    "pinned workloads and record BENCH_perf.json.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"],
                        help="pinned workload to run (default: all)")
    parser.add_argument("--label", default="current",
                        help="entry label, e.g. baseline/optimized "
                             "(default: current)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"BENCH_perf.json to merge into "
                             f"(default: {DEFAULT_OUT}; empty string "
                             f"skips writing)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also dump this invocation's entries as "
                             "raw JSON (used by the subprocess driver)")
    parser.add_argument("--in-process", action="store_true",
                        help="run workloads in this process instead of "
                             "one subprocess each (peak RSS then "
                             "accumulates across workloads)")
    parser.add_argument("--self-profile", action="store_true",
                        help="sample the simulator's own wall time by "
                             "kernel phase (repro.obs.profile) and "
                             "attach the breakdown to each entry")
    parser.add_argument("--check", action="store_true",
                        help="validate the --out document and exit")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check:
        if not args.out or not os.path.exists(args.out):
            print(f"perf: no such file {args.out!r}", file=sys.stderr)
            return 2
        with open(args.out) as fh:
            doc = json.load(fh)
        errors = validate_document(doc)
        if errors:
            for err in errors:
                print(f"perf: schema error: {err}", file=sys.stderr)
            return 1
        print(f"{args.out}: schema OK "
              f"({len(doc['entries'])} entries)")
        return 0

    names = (sorted(WORKLOADS) if args.workload == "all"
             else [args.workload])
    entries = []
    for name in names:
        if args.in_process or args.workload != "all":
            entry = run_workload(name, args.label, seed=args.seed,
                                 self_profile=args.self_profile)
        else:
            entry = _run_in_subprocess(name, args.label, args.seed,
                                       self_profile=args.self_profile)
        entries.append(entry)

    if args.json:
        payload = entries[0] if len(entries) == 1 else entries
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.self_profile:
        from ..obs.profile import format_profile
        for entry in entries:
            if "profile" in entry:
                print(f"\n[{entry['workload']}] "
                      + format_profile(entry["profile"]))
    if args.out:
        doc = load_document(args.out)
        for entry in entries:
            merge_entry(doc, entry)
        errors = validate_document(doc)
        if errors:  # pragma: no cover - defensive
            raise SystemExit("perf: refusing to write invalid "
                             "document: " + "; ".join(errors))
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(_format_report(entries))
    if args.out:
        print(f"\nmerged into {args.out} "
              f"(validate: python -m repro.bench perf --check "
              f"--out {args.out})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
