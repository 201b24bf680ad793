"""Synthetic physics datasets for DV3 and RS-TriPhoton.

The paper's datasets are CMS collision data we do not have; these
generators produce events with the same *analysis-relevant structure*:

* **DV3** searches for Higgs decays to two b-quarks / two gluons seen as
  particle jets.  We generate QCD-like background jets (falling pt
  spectrum, uniform phi, central eta) and inject a fraction of events
  with a dijet resonance at the Higgs mass (125 GeV): two jets with
  ``pt = m/2`` back-to-back in phi at equal eta have an invariant mass
  of exactly ``m`` in the massless limit, which we then smear to model
  detector resolution.  The b-jets carry a high b-tag discriminant.

* **RS-TriPhoton** searches for a heavy resonance X decaying to a photon
  plus a light particle ``a`` that decays to two photons.  We construct
  exact three-photon systems: photons 1 and 2 back-to-back with
  ``pt = m_a / 2`` (diphoton mass ``m_a``), photon 3 perpendicular with
  ``pt = (m_X^2 - m_a^2) / (2 m_a)`` so the triphoton mass is ``m_X``,
  all at eta = 0 before smearing.

Both signals are exactly reconstructable by the analyses in
:mod:`repro.apps`, so the example runs show real physics peaks.

The module also carries the paper's Table II workload catalog
(DV3-Small/Medium/Large/Huge, RS-TriPhoton) as :class:`DatasetSpec`
descriptors used by the benchmark harness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from .jagged import JaggedArray
from .root import write_root_file

__all__ = [
    "generate_dv3_events",
    "generate_triphoton_events",
    "write_dataset",
    "DatasetSpec",
    "TABLE2",
    "HIGGS_MASS",
    "TRIPHOTON_MX",
    "TRIPHOTON_MA",
]

HIGGS_MASS = 125.0          # GeV
HIGGS_WIDTH = 12.0          # detector-resolution-dominated width
TRIPHOTON_MX = 1000.0       # heavy resonance mass
TRIPHOTON_MA = 200.0        # light pseudo-scalar mass


def _smear(rng: np.random.Generator, values: np.ndarray,
           resolution: float) -> np.ndarray:
    return values * (1.0 + rng.normal(0.0, resolution, size=values.shape))


def generate_dv3_events(n_events: int, rng: np.random.Generator,
                        signal_fraction: float = 0.05,
                        gluon_fraction: float = 0.3,
                        ) -> Dict[str, object]:
    """Branches for DV3: jets with b-tags, plus missing energy.

    DV3 searches for Higgs decays "to two bottom quarks and to two
    gluons" (Section II.A): a ``gluon_fraction`` of the injected signal
    events decay to gluon jets (kinematically identical dijets, but
    with *light-jet* b-tag scores), the rest to b-jets.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    # Background jet multiplicity: Poisson, at least sometimes empty.
    n_bkg = rng.poisson(3.5, size=n_events)
    is_signal = rng.random(n_events) < signal_fraction
    counts = n_bkg + 2 * is_signal

    total_bkg = int(n_bkg.sum())
    # Falling pt spectrum, central eta, uniform phi, light jet masses.
    bkg_pt = rng.exponential(35.0, size=total_bkg) + 20.0
    bkg_eta = rng.normal(0.0, 1.6, size=total_bkg)
    bkg_phi = rng.uniform(-np.pi, np.pi, size=total_bkg)
    bkg_mass = rng.exponential(8.0, size=total_bkg) + 2.0
    bkg_btag = rng.beta(1.2, 6.0, size=total_bkg)  # mostly light jets

    n_sig = int(is_signal.sum())
    sig_mass_h = rng.normal(HIGGS_MASS, HIGGS_WIDTH / 2.35, size=n_sig)
    sig_pt = sig_mass_h / 2.0
    sig_eta = rng.normal(0.0, 0.8, size=n_sig)
    sig_phi1 = rng.uniform(-np.pi, np.pi, size=n_sig)
    sig_phi2 = np.mod(sig_phi1 + np.pi + np.pi, 2 * np.pi) - np.pi
    # H -> gg events carry light-jet tags; H -> bb events b-like tags
    is_gluon = rng.random(n_sig) < gluon_fraction
    sig_btag = np.where(is_gluon,
                        rng.beta(1.2, 6.0, size=n_sig),
                        rng.beta(8.0, 1.5, size=n_sig))
    sig_btag2 = np.where(is_gluon,
                         rng.beta(1.2, 6.0, size=n_sig),
                         rng.beta(8.0, 1.5, size=n_sig))

    # Interleave: per event, background jets first, then signal pair.
    jet_pt = np.empty(int(counts.sum()))
    jet_eta = np.empty_like(jet_pt)
    jet_phi = np.empty_like(jet_pt)
    jet_mass = np.empty_like(jet_pt)
    jet_btag = np.empty_like(jet_pt)

    offsets = np.zeros(n_events + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    bkg_offsets = np.zeros(n_events + 1, dtype=np.int64)
    np.cumsum(n_bkg, out=bkg_offsets[1:])

    # Vectorised placement of background jets.
    bkg_dest = _segment_positions(offsets[:-1], n_bkg)
    jet_pt[bkg_dest] = _smear(rng, bkg_pt, 0.08)
    jet_eta[bkg_dest] = bkg_eta
    jet_phi[bkg_dest] = bkg_phi
    jet_mass[bkg_dest] = bkg_mass
    jet_btag[bkg_dest] = bkg_btag

    # Signal pair occupies the last two slots of each signal event.
    sig_events = np.nonzero(is_signal)[0]
    first = offsets[sig_events] + n_bkg[sig_events]
    second = first + 1
    jet_pt[first] = _smear(rng, sig_pt, 0.06)
    jet_pt[second] = _smear(rng, sig_pt, 0.06)
    jet_eta[first] = sig_eta
    jet_eta[second] = sig_eta + rng.normal(0, 0.05, size=n_sig)
    jet_phi[first] = sig_phi1
    jet_phi[second] = sig_phi2 + rng.normal(0, 0.02, size=n_sig)
    jet_mass[first] = rng.exponential(6.0, size=n_sig) + 4.0
    jet_mass[second] = rng.exponential(6.0, size=n_sig) + 4.0
    jet_btag[first] = sig_btag
    jet_btag[second] = sig_btag2

    met_pt = rng.exponential(25.0, size=n_events)
    met_phi = rng.uniform(-np.pi, np.pi, size=n_events)

    return {
        "Jet_pt": JaggedArray.from_counts(counts, jet_pt),
        "Jet_eta": JaggedArray.from_counts(counts, jet_eta),
        "Jet_phi": JaggedArray.from_counts(counts, jet_phi),
        "Jet_mass": JaggedArray.from_counts(counts, jet_mass),
        "Jet_btag": JaggedArray.from_counts(counts, jet_btag),
        "MET_pt": met_pt,
        "MET_phi": met_phi,
        "genWeight": np.ones(n_events),
    }


def generate_triphoton_events(n_events: int, rng: np.random.Generator,
                              signal_fraction: float = 0.02,
                              m_x: float = TRIPHOTON_MX,
                              m_a: float = TRIPHOTON_MA,
                              ) -> Dict[str, object]:
    """Branches for RS-TriPhoton: photons with an X -> gamma a signal."""
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    n_bkg = rng.poisson(1.2, size=n_events)
    is_signal = rng.random(n_events) < signal_fraction
    counts = n_bkg + 3 * is_signal

    total_bkg = int(n_bkg.sum())
    bkg_pt = rng.exponential(40.0, size=total_bkg) + 15.0
    bkg_eta = rng.normal(0.0, 1.4, size=total_bkg)
    bkg_phi = rng.uniform(-np.pi, np.pi, size=total_bkg)

    n_sig = int(is_signal.sum())
    # Exact construction at eta=0 (see module docstring), then smeared.
    pair_pt = np.full(n_sig, m_a / 2.0)
    third_pt = np.full(n_sig, (m_x ** 2 - m_a ** 2) / (2.0 * m_a))
    base_phi = rng.uniform(-np.pi, np.pi, size=n_sig)

    pho_pt = np.empty(int(counts.sum()))
    pho_eta = np.empty_like(pho_pt)
    pho_phi = np.empty_like(pho_pt)

    offsets = np.zeros(n_events + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    bkg_dest = _segment_positions(offsets[:-1], n_bkg)
    pho_pt[bkg_dest] = bkg_pt
    pho_eta[bkg_dest] = bkg_eta
    pho_phi[bkg_dest] = bkg_phi

    sig_events = np.nonzero(is_signal)[0]
    leg0 = offsets[sig_events] + n_bkg[sig_events]
    smear = 0.02
    pho_pt[leg0] = _smear(rng, pair_pt, smear)
    pho_pt[leg0 + 1] = _smear(rng, pair_pt, smear)
    pho_pt[leg0 + 2] = _smear(rng, third_pt, smear)
    pho_eta[leg0] = rng.normal(0, 0.02, size=n_sig)
    pho_eta[leg0 + 1] = rng.normal(0, 0.02, size=n_sig)
    pho_eta[leg0 + 2] = rng.normal(0, 0.02, size=n_sig)
    pho_phi[leg0] = base_phi
    pho_phi[leg0 + 1] = _wrap(base_phi + np.pi)
    pho_phi[leg0 + 2] = _wrap(base_phi + np.pi / 2.0)

    return {
        "Photon_pt": JaggedArray.from_counts(counts, pho_pt),
        "Photon_eta": JaggedArray.from_counts(counts, pho_eta),
        "Photon_phi": JaggedArray.from_counts(counts, pho_phi),
        "genWeight": np.ones(n_events),
    }


def _wrap(phi: np.ndarray) -> np.ndarray:
    return np.mod(phi + np.pi, 2 * np.pi) - np.pi


def _segment_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Destination indices 'starts[i] + 0..counts[i]-1', concatenated."""
    total = int(counts.sum())
    if total == 0:
        return np.array([], dtype=np.int64)
    pos = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=pos[1:])
    local = np.arange(total) - np.repeat(pos[:-1], counts)
    return np.repeat(starts, counts) + local


GENERATORS = {
    "dv3": generate_dv3_events,
    "triphoton": generate_triphoton_events,
}


def write_dataset(directory: str, kind: str, n_files: int,
                  events_per_file: int, seed: int = 0,
                  basket_size: int = 2_000,
                  **generator_kwargs) -> List[str]:
    """Materialise a dataset as ROOT files on disk; returns the paths."""
    try:
        generator = GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown dataset kind {kind!r}; "
                         f"have {sorted(GENERATORS)}") from None
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i in range(n_files):
        rng = np.random.default_rng([seed, i])
        branches = generator(events_per_file, rng, **generator_kwargs)
        path = os.path.join(directory, f"{kind}_{i:04d}.npz")
        write_root_file(path, tree="Events", branches=branches,
                        basket_size=basket_size)
        paths.append(path)
    return paths


@dataclass(frozen=True)
class DatasetSpec:
    """One row of the paper's Table II: an application configuration.

    ``intermediate_bytes_per_task`` is a calibration constant (the paper
    only notes that intermediate data "may be even larger than the
    initial set of data", Section III, and Fig 7 implies ~8 TB of
    manager-routed traffic for DV3-Large under Work Queue).  ``stages``
    models graph depth: DV3-Huge runs 185 k tasks over the same data
    with only "10,000 initial executable tasks" (Fig 15), i.e. chains of
    dependent computation before accumulation.
    """

    name: str
    application: str          # "dv3" | "triphoton"
    input_bytes: float        # total dataset size
    n_tasks: int              # tasks in the generated workflow
    n_files: int              # input ROOT files
    mean_task_seconds: float  # nominal per-task compute (Fig 8: bulk 1-10 s)
    intermediate_bytes_per_task: float  # partial-result payload per task
    stages: int = 1           # depth of per-chunk processing chains
    worker_disk: float = 108e9   # per-worker disk allocation (Section IV)
    worker_ram: float = 96e9     # per-worker memory allocation

    def scaled(self, factor: float) -> "DatasetSpec":
        """This configuration with ``n_tasks`` and ``input_bytes``
        scaled by ``factor`` and the factor in its name
        (``DV3-Small-x0.05``); the spec itself when ``factor`` is 1."""
        if factor == 1.0:
            return self
        return replace(self, name=f"{self.name}-x{factor:g}",
                       n_tasks=max(1, int(self.n_tasks * factor)),
                       input_bytes=self.input_bytes * factor)


TB = 1e12
GB = 1e9
MB = 1e6

#: Table II of the paper, as workload descriptors for the simulator.
TABLE2: Dict[str, DatasetSpec] = {
    "DV3-Small": DatasetSpec(
        name="DV3-Small", application="dv3", input_bytes=25 * GB,
        n_tasks=400, n_files=80, mean_task_seconds=4.0,
        intermediate_bytes_per_task=40 * MB),
    "DV3-Medium": DatasetSpec(
        name="DV3-Medium", application="dv3", input_bytes=200 * GB,
        n_tasks=2_800, n_files=560, mean_task_seconds=4.0,
        intermediate_bytes_per_task=80 * MB),
    "DV3-Large": DatasetSpec(
        name="DV3-Large", application="dv3", input_bytes=1.2 * TB,
        n_tasks=17_000, n_files=3_400, mean_task_seconds=4.0,
        intermediate_bytes_per_task=400 * MB),
    "DV3-Huge": DatasetSpec(
        name="DV3-Huge", application="dv3", input_bytes=1.2 * TB,
        n_tasks=185_000, n_files=3_400, mean_task_seconds=20.0,
        intermediate_bytes_per_task=12 * MB, stages=18),
    "RS-TriPhoton": DatasetSpec(
        name="RS-TriPhoton", application="triphoton",
        input_bytes=500 * GB, n_tasks=4_000, n_files=1_000,
        mean_task_seconds=9.0,
        intermediate_bytes_per_task=1000 * MB,
        worker_disk=700e9, worker_ram=200e9),
}
