"""Self-profiling: attribute simulator *wall* time to kernel phases.

Everything else in :mod:`repro.obs` measures **sim time** -- where the
simulated seconds of a DV3 run go.  This module measures where the
**simulator's own** seconds go: how much of a 30 s wall-clock run was
spent inside the event kernel, the network/storage substrate, the
scheduler, or the observability layer itself.  That is the measurement
the tiered-kernel optimisation work needs: you cannot decide what to
vectorise until you know which phase owns the wall time.

A :class:`PhaseProfiler` is a sampling profiler on a daemon thread: at
a fixed interval it grabs the target thread's stack via
``sys._current_frames()`` and charges the sample to the **innermost**
``repro.*`` frame's phase (see :data:`PHASE_RULES`).  Sampling (rather
than ``sys.setprofile`` tracing) keeps the perturbation to a few
percent at the default 2 ms interval and needs no changes to the
simulation kernel -- it observes any run, including the subprocess
workloads of ``python -m repro.bench perf --self-profile``.

Zero-overhead contract: nothing is installed unless a profiler is
explicitly started; an unstarted module costs one import.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["PhaseProfiler", "PHASE_RULES", "classify_module",
           "format_profile"]

#: longest-prefix-wins module -> phase table.  Order matters only for
#: documentation; lookup is by longest matching prefix.
PHASE_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "kernel"),
    ("repro.sim.network", "substrate"),
    ("repro.sim.storage", "substrate"),
    ("repro.sim.cluster", "substrate"),
    ("repro.sim.trace", "trace"),
    ("repro.sim", "kernel"),
    ("repro.core.cache", "replica-map"),
    ("repro.core.worker", "worker"),
    ("repro.core", "scheduler"),
    ("repro.workqueue", "scheduler"),
    ("repro.daskdist", "scheduler"),
    ("repro.engine", "serverless"),
    ("repro.obs", "observability"),
    ("repro.facility", "facility"),
    ("repro.chaos", "chaos"),
    ("repro.bench", "harness"),
    ("repro", "other-repro"),
)


def classify_module(module: str) -> Optional[str]:
    """Phase for a module name, or None for non-repro frames."""
    best = None
    best_len = -1
    for prefix, phase in PHASE_RULES:
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = phase, len(prefix)
    return best


class PhaseProfiler:
    """Wall-clock sampling profiler over one thread.

    Use as a context manager around the code to measure::

        with PhaseProfiler() as prof:
            manager.run()
        report = prof.report()
        # {"wall_s": ..., "samples": ...,
        #  "phases": {"kernel": {"samples": ..., "fraction": ...,
        #                        "est_s": ...}, ...},
        #  "hotspots": [{"site": "repro.sim.engine:step", ...}, ...]}

    The default target is the calling thread.  ``interval`` trades
    resolution against perturbation; 2 ms gives ~500 samples/s, enough
    for phase fractions of any run longer than a second.
    """

    def __init__(self, interval: float = 0.002,
                 target_thread_id: Optional[int] = None):
        if interval <= 0:
            raise ValueError("profiler interval must be positive")
        self.interval = interval
        self._target = (target_thread_id if target_thread_id is not None
                        else threading.get_ident())
        self.phase_samples: Dict[str, int] = {}
        self.site_samples: Dict[str, int] = {}
        self.samples = 0
        self.missed = 0
        self.wall_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = 0.0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "PhaseProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._t0 = time.monotonic()
        self._thread = threading.Thread(
            target=self._loop, name="phase-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "PhaseProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        self.wall_s = time.monotonic() - self._t0
        return self

    def __enter__(self) -> "PhaseProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._take_sample()

    def _take_sample(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is None:
            self.missed += 1
            return
        phase = None
        site = None
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            found = classify_module(module)
            if found is not None:
                phase = found
                site = f"{module}:{frame.f_code.co_name}"
                break
            frame = frame.f_back
        self.samples += 1
        key = phase if phase is not None else "non-repro"
        self.phase_samples[key] = self.phase_samples.get(key, 0) + 1
        if site is not None:
            self.site_samples[site] = self.site_samples.get(site, 0) + 1

    # -- reporting -----------------------------------------------------------
    def report(self, top: int = 10) -> dict:
        wall = self.wall_s or (time.monotonic() - self._t0)
        total = self.samples
        phases = {}
        for phase in sorted(self.phase_samples,
                            key=lambda p: (-self.phase_samples[p], p)):
            n = self.phase_samples[phase]
            fraction = n / total if total else 0.0
            phases[phase] = {"samples": n,
                             "fraction": fraction,
                             "est_s": fraction * wall}
        hotspots: List[dict] = []
        for site in sorted(self.site_samples,
                           key=lambda s: (-self.site_samples[s], s))[:top]:
            n = self.site_samples[site]
            hotspots.append({"site": site, "samples": n,
                             "fraction": n / total if total else 0.0})
        return {"wall_s": wall, "samples": total, "missed": self.missed,
                "interval_s": self.interval, "phases": phases,
                "hotspots": hotspots}


def format_profile(report: dict) -> str:
    """Human-readable rendering of :meth:`PhaseProfiler.report`."""
    lines = [
        "== self-profile (simulator wall time by phase) ==",
        f"wall {report['wall_s']:.3f} s, "
        f"{report['samples']} samples "
        f"@ {report['interval_s'] * 1000:.1f} ms",
    ]
    for phase, row in report["phases"].items():
        lines.append(f"  {phase:<16} {row['fraction'] * 100:5.1f}%  "
                     f"~{row['est_s']:.3f} s  ({row['samples']})")
    if report["hotspots"]:
        lines.append("  hottest sites:")
        for spot in report["hotspots"][:5]:
            lines.append(f"    {spot['fraction'] * 100:5.1f}%  "
                         f"{spot['site']}")
    return "\n".join(lines)
