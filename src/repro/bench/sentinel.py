"""Perf-regression sentinel: ``python -m repro.bench sentinel``.

``BENCH_perf.json`` holds schema-validated wall-clock captures; this
module is the thing that *compares* them over time.  It answers, on
every commit, "did the simulator get slower?" without a human eyeballing
numbers -- and without crying wolf on machine noise:

* **Interleaved medians** -- ``sentinel run`` measures each workload
  ``--repeats`` times round-robin (w1 w2 w3, w1 w2 w3, ...), so slow
  drift of the machine (thermal, co-tenancy) lands evenly on every
  workload instead of biasing the last one.  The entry's ``wall_s`` is
  the median; the raw ``samples`` ride along for noise estimation.
* **Noise-aware verdicts** -- a workload regresses only when its
  current/baseline wall ratio exceeds ``1 + band`` where ``band`` is
  the larger of ``--tolerance`` and the measured relative spread
  (IQR/median) of whichever side is noisier.  Two captures of identical
  code stay quiet; a real 1.3x slowdown is flagged.
* **A trajectory** -- every ``sentinel run`` appends one JSONL row to
  ``results/BENCH_trajectory.jsonl`` (commit SHA, per-workload ratios,
  verdicts), turning isolated captures into a perf history the repo
  carries with it.
* **Explanations** -- with ``--explain``, a flagged regression is
  re-run once (untimed) with a transaction log and diffed against the
  workload's reference txlog (``--txlog-dir``, refreshed with
  ``--refresh-refs``) through :mod:`repro.obs.diff`, so the verdict
  ships with *where the time went* ("execute flat, schedule-wait
  +38%...") instead of just a ratio.  ``--diff-report`` writes the
  full differential as a JSON artifact for CI to upload.

Exit codes: ``0`` no regression (ok/improved), ``3`` at least one
regression, ``2`` usage or baseline errors.  CI runs the sentinel as a
*reporting* job (``continue-on-error``): the trajectory row and the log
are the product, not a merge gate -- wall-clock numbers from shared
runners are evidence, not verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from ..cli import EXIT_INCOMPLETE as EXIT_REGRESSION
from ..cli import EXIT_OK
from ..cli import EXIT_UNREADABLE as EXIT_ERROR
from .perf import (WORKLOADS, capture_stamp, load_document,
                   merge_entry, run_workload, validate_document)

__all__ = ["compare_entries", "capture", "append_trajectory",
           "read_trajectory", "refresh_reference_txlogs",
           "explain_regressions", "main"]

TRAJECTORY_SCHEMA = 1
DEFAULT_BASELINE = os.path.join("results", "BENCH_perf.json")
DEFAULT_TRAJECTORY = os.path.join("results", "BENCH_trajectory.jsonl")
DEFAULT_TXLOG_DIR = os.path.join("results", "sentinel-txlogs")
DEFAULT_TOLERANCE = 0.15
DEFAULT_REPEATS = 3
DEFAULT_WORKLOADS = ("smoke", "fig14b-2400")


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _relative_spread(samples: Optional[List[float]]) -> float:
    """IQR / median -- a robust relative noise estimate; 0.0 when
    fewer than three samples exist."""
    if not samples or len(samples) < 3:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    q1 = ordered[max(0, (n - 1) // 4)]
    q3 = ordered[min(n - 1, (3 * (n - 1) + 3) // 4)]
    med = _median(ordered)
    return (q3 - q1) / med if med > 0 else 0.0


def compare_entries(baseline: dict, current: dict,
                    tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Verdict on one workload: current vs baseline wall time.

    The noise band is ``max(tolerance, 1.5 * spread)`` where spread is
    the worse relative IQR of the two entries' samples -- so noisy
    workloads demand a bigger effect before they alarm, and captures
    without samples fall back to the flat tolerance.
    """
    base_wall = float(baseline["wall_s"])
    cur_wall = float(current["wall_s"])
    ratio = cur_wall / base_wall if base_wall > 0 else float("inf")
    spread = max(_relative_spread(baseline.get("samples")),
                 _relative_spread(current.get("samples")))
    band = max(tolerance, 1.5 * spread)
    if ratio > 1.0 + band:
        verdict = "regression"
    elif ratio < 1.0 - band:
        verdict = "improved"
    else:
        verdict = "ok"
    result = {
        "workload": current["workload"],
        "wall_s": cur_wall,
        "baseline_wall_s": base_wall,
        "baseline_label": baseline.get("label"),
        "ratio": round(ratio, 4),
        "band": round(band, 4),
        "verdict": verdict,
    }
    base_hash = baseline.get("config_hash")
    cur_hash = current.get("config_hash")
    if base_hash and cur_hash and base_hash != cur_hash:
        # the workload definition changed between captures: the ratio
        # measures the workload, not the simulator
        result["verdict"] = "incomparable"
        result["config_mismatch"] = True
    return result


def capture(workloads: List[str], repeats: int = DEFAULT_REPEATS,
            seed: int = 11, label: str = "sentinel",
            log=print) -> Dict[str, dict]:
    """Measure each workload ``repeats`` times, interleaved, and
    return ``{workload: entry}`` with median wall and raw samples."""
    samples: Dict[str, List[float]] = {w: [] for w in workloads}
    entries: Dict[str, dict] = {}
    for repeat in range(max(1, repeats)):
        for name in workloads:
            entry = run_workload(name, label, seed=seed)
            samples[name].append(entry["wall_s"])
            entries[name] = entry
            if log is not None:
                log(f"  [{repeat + 1}/{repeats}] {name}: "
                    f"{entry['wall_s']:.3f} s")
    for name, entry in entries.items():
        entry["samples"] = samples[name]
        entry["wall_s"] = round(_median(samples[name]), 3)
        entry["events_per_s"] = round(
            entry["events"] / entry["wall_s"], 1)
    return entries


def _pick_baseline(doc: dict, workload: str,
                   label: Optional[str]) -> Optional[dict]:
    """The baseline entry for a workload: the requested label, else
    ``optimized``, else ``baseline``, else any single match."""
    entries = [e for e in doc.get("entries", [])
               if e.get("workload") == workload]
    if not entries:
        return None
    if label:
        for e in entries:
            if e.get("label") == label:
                return e
        return None
    by_label = {e.get("label"): e for e in entries}
    for preferred in ("optimized", "baseline"):
        if preferred in by_label:
            return by_label[preferred]
    return entries[-1]


def append_trajectory(path: str, row: dict) -> None:
    out_dir = os.path.dirname(path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(row, sort_keys=True,
                            separators=(",", ":")) + "\n")


def read_trajectory(path: str) -> List[dict]:
    if not os.path.exists(path):
        return []
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    return rows


def _ref_txlog_path(txlog_dir: str, workload: str, seed: int) -> str:
    return os.path.join(txlog_dir, f"{workload}-seed{seed}.jsonl")


def refresh_reference_txlogs(txlog_dir: str, workloads: List[str],
                             seed: int, log=print) -> Dict[str, str]:
    """Record one untimed reference run (with txlog) per workload.

    These logs are the "known-good" side of ``--explain`` diffs; call
    again after intentional perf work so future regressions diff
    against the current behaviour.
    """
    os.makedirs(txlog_dir, exist_ok=True)
    out = {}
    for name in workloads:
        path = _ref_txlog_path(txlog_dir, name, seed)
        run_workload(name, "reference", seed=seed, txlog_path=path)
        out[name] = path
        if log is not None:
            log(f"  reference txlog [{name}] -> {path}")
    return out


def explain_regressions(regressed: List[str], txlog_dir: str,
                        seed: int, log=print) -> Dict[str, dict]:
    """Differential diagnosis for each regressed workload.

    Re-runs the workload once, untimed, with a transaction log, and
    diffs it against the reference txlog.  Returns ``{workload:
    diff}`` (see :func:`repro.obs.diff.diff_runs`); workloads without
    a reference get ``{"error": ...}`` instead of a diff.
    """
    from ..obs.diff import diff_runs

    out: Dict[str, dict] = {}
    for name in regressed:
        ref = _ref_txlog_path(txlog_dir, name, seed)
        if not os.path.exists(ref):
            out[name] = {"error": f"no reference txlog at {ref}; "
                                  "run with --refresh-refs first"}
            if log is not None:
                log(f"  explain [{name}]: {out[name]['error']}")
            continue
        current = os.path.join(txlog_dir,
                               f"{name}-seed{seed}-current.jsonl")
        run_workload(name, "explain", seed=seed, txlog_path=current)
        diff = diff_runs(ref, current)
        out[name] = diff
        if log is not None:
            log(f"  explain [{name}]: {diff['explanation']}")
    return out


# -- CLI ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench sentinel",
        description="Noise-aware wall-clock regression detection "
                    "against checked-in BENCH_perf.json captures.")
    parser.add_argument("--workloads",
                        default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated pinned workloads "
                             f"(default {','.join(DEFAULT_WORKLOADS)}; "
                             "'all' for every workload)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="interleaved repeats per workload "
                             f"(default {DEFAULT_REPEATS})")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="flat relative tolerance before the noise "
                             f"band kicks in (default "
                             f"{DEFAULT_TOLERANCE})")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"BENCH_perf.json to compare against "
                             f"(default {DEFAULT_BASELINE})")
    parser.add_argument("--baseline-label", default=None,
                        help="baseline entry label (default: prefer "
                             "'optimized', then 'baseline')")
    parser.add_argument("--trajectory", default=DEFAULT_TRAJECTORY,
                        help=f"JSONL perf history to append to "
                             f"(default {DEFAULT_TRAJECTORY}; empty "
                             f"string skips)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--update", metavar="LABEL", default=None,
                        help="also merge this run's entries into the "
                             "baseline document under LABEL")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the comparison result as JSON")
    parser.add_argument("--explain", action="store_true",
                        help="diff each flagged regression against "
                             "its reference txlog (repro.obs.diff) "
                             "and print where the time went")
    parser.add_argument("--txlog-dir", default=DEFAULT_TXLOG_DIR,
                        help="directory of reference transaction "
                             f"logs (default {DEFAULT_TXLOG_DIR})")
    parser.add_argument("--refresh-refs", action="store_true",
                        help="record fresh reference txlogs for the "
                             "selected workloads (untimed runs) "
                             "before comparing")
    parser.add_argument("--diff-report", default=None, metavar="PATH",
                        help="with --explain: write the full "
                             "differential diagnosis JSON here")
    parser.add_argument("--history", action="store_true",
                        help="print the recorded trajectory and exit "
                             "(no new capture)")
    return parser


def _print_history(path: str) -> int:
    rows = read_trajectory(path)
    if not rows:
        print(f"no trajectory at {path}", file=sys.stderr)
        return EXIT_ERROR
    for row in rows:
        verdicts = ", ".join(
            f"{w}: {r['ratio']:.2f}x ({r['verdict']})"
            for w, r in sorted(row.get("workloads", {}).items()))
        print(f"{row.get('captured_at', '?'):<21} "
              f"{row.get('git_sha', '?')[:12]:<13} "
              f"{row.get('verdict', '?'):<11} {verdicts}")
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.history:
        return _print_history(args.trajectory)

    if args.workloads == "all":
        workloads = sorted(WORKLOADS)
    else:
        workloads = [w.strip() for w in args.workloads.split(",")
                     if w.strip()]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"sentinel: unknown workloads {unknown}; "
              f"have {sorted(WORKLOADS)}", file=sys.stderr)
        return EXIT_ERROR
    if not os.path.exists(args.baseline):
        print(f"sentinel: no baseline document at {args.baseline}",
              file=sys.stderr)
        return EXIT_ERROR
    with open(args.baseline) as fh:
        baseline_doc = json.load(fh)
    problems = validate_document(baseline_doc)
    if problems:
        for p in problems:
            print(f"sentinel: baseline schema error: {p}",
                  file=sys.stderr)
        return EXIT_ERROR

    print(f"sentinel: capturing {len(workloads)} workload(s) x "
          f"{args.repeats} interleaved repeats")
    entries = capture(workloads, repeats=args.repeats, seed=args.seed)

    comparisons: Dict[str, dict] = {}
    missing: List[str] = []
    for name in workloads:
        base = _pick_baseline(baseline_doc, name, args.baseline_label)
        if base is None:
            missing.append(name)
            continue
        comparisons[name] = compare_entries(base, entries[name],
                                            tolerance=args.tolerance)
    if missing:
        print(f"sentinel: no baseline entry for {missing} "
              f"(label {args.baseline_label or 'auto'})",
              file=sys.stderr)
        if not comparisons:
            return EXIT_ERROR

    regressions = [c for c in comparisons.values()
                   if c["verdict"] == "regression"]
    overall = ("regression" if regressions else
               "ok" if comparisons else "no-baseline")

    if args.refresh_refs:
        refresh_reference_txlogs(args.txlog_dir, workloads, args.seed)
    diffs: Dict[str, dict] = {}
    if args.explain and regressions:
        diffs = explain_regressions(
            [c["workload"] for c in regressions], args.txlog_dir,
            args.seed)
        for name, diff in diffs.items():
            if name in comparisons:
                comparisons[name]["explanation"] = (
                    diff.get("explanation", diff.get("error")))
    stamp = capture_stamp(workloads[0], args.seed)
    row = {
        "schema": TRAJECTORY_SCHEMA,
        "git_sha": stamp["git_sha"],
        "captured_at": stamp["captured_at"],
        "seed": args.seed,
        "repeats": args.repeats,
        "tolerance": args.tolerance,
        "workloads": comparisons,
        "verdict": overall,
    }

    for name in workloads:
        c = comparisons.get(name)
        if c is None:
            print(f"  {name:<14} {entries[name]['wall_s']:8.3f} s   "
                  f"(no baseline)")
            continue
        print(f"  {name:<14} {c['wall_s']:8.3f} s  vs "
              f"{c['baseline_wall_s']:8.3f} s "
              f"[{c['baseline_label']}]  "
              f"{c['ratio']:.2f}x (band ±{c['band']:.0%})  "
              f"-> {c['verdict']}")
        if c.get("explanation"):
            print(f"                 why: {c['explanation']}")

    if args.trajectory:
        append_trajectory(args.trajectory, row)
        print(f"trajectory row -> {args.trajectory}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(row, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.diff_report and diffs:
        report_dir = os.path.dirname(args.diff_report)
        if report_dir:
            os.makedirs(report_dir, exist_ok=True)
        with open(args.diff_report, "w") as fh:
            json.dump({"schema": TRAJECTORY_SCHEMA,
                       "git_sha": stamp["git_sha"],
                       "captured_at": stamp["captured_at"],
                       "diffs": diffs}, fh, indent=2,
                      sort_keys=True, default=str)
            fh.write("\n")
        print(f"diff report -> {args.diff_report}")
    if args.update:
        doc = load_document(args.baseline)
        for name in workloads:
            entry = dict(entries[name])
            entry["label"] = args.update
            merge_entry(doc, entry)
        problems = validate_document(doc)
        if problems:
            print("sentinel: refusing to update baseline: "
                  + "; ".join(problems), file=sys.stderr)
            return EXIT_ERROR
        with open(args.baseline, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline entries [{args.update}] -> {args.baseline}")

    print(f"sentinel verdict: {overall}")
    return EXIT_REGRESSION if regressions else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
