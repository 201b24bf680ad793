"""TaskVine: the paper's task + data scheduler (simulated at scale)."""

from .cache import ReplicaMap
from .config import TASK_MODE_FUNCTIONS, TASK_MODE_TASKS, SchedulerConfig
from .files import FileKind, SimFile, cachename
from .manager import MANAGER_NODE, RunResult, SchedulerError, TaskVineManager
from .spec import SimTask, SimWorkflow, WorkflowError
from .worker import CacheEntry, WorkerAgent

__all__ = [
    "TaskVineManager", "RunResult", "SchedulerError", "MANAGER_NODE",
    "SchedulerConfig", "TASK_MODE_TASKS", "TASK_MODE_FUNCTIONS",
    "SimFile", "FileKind", "cachename",
    "SimTask", "SimWorkflow", "WorkflowError",
    "WorkerAgent", "CacheEntry", "ReplicaMap",
]
