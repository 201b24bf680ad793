"""Discrete-event simulation substrate.

Provides the event kernel, network, storage, and cluster models on which
the scheduler implementations (:mod:`repro.core`, :mod:`repro.workqueue`,
:mod:`repro.daskdist`) run at paper scale (up to 7200 simulated cores).
"""

from .engine import (
    Event,
    Interrupt,
    Process,
    Resource,
    Simulation,
    SimulationError,
    Timeout,
)
from .cluster import CAMPUS_WORKER, Cluster, NodeSpec, WorkerNode
from .network import Flow, Network, Pipe
from .rng import RngRegistry
from .storage import (
    GB,
    HDFS_PROFILE,
    MB,
    SHARED_FS_NODE,
    TB,
    VAST_PROFILE,
    DiskFullError,
    LocalDisk,
    SharedFilesystem,
    StorageProfile,
)
from .viz import render_gantt, render_heatmap, render_timeline
from .trace import (
    CacheDelta,
    TaskRecord,
    TraceRecorder,
    TransferRecord,
    WorkerEvent,
    step_series,
)

__all__ = [
    "Simulation", "Event", "Process", "Timeout", "Interrupt",
    "Resource", "SimulationError",
    "Network", "Pipe", "Flow",
    "RngRegistry",
    "StorageProfile", "HDFS_PROFILE", "VAST_PROFILE", "SharedFilesystem",
    "LocalDisk", "DiskFullError", "SHARED_FS_NODE", "TB", "GB", "MB",
    "Cluster", "NodeSpec", "WorkerNode", "CAMPUS_WORKER",
    "TraceRecorder", "TaskRecord", "TransferRecord", "CacheDelta",
    "WorkerEvent", "step_series",
    "render_heatmap", "render_timeline", "render_gantt",
]
