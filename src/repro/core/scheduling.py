"""Ready-queue disciplines: which ready task the manager dispatches next.

The default :class:`TwoTierReadyQueue` reproduces TaskVine's
downstream-first ordering (consumers of intermediates dispatch before
fresh processing tasks, so retained partials drain instead of piling up
past worker disks).  The multi-tenant facility layers fair-share
disciplines (:mod:`repro.facility.fairshare`) on this interface.

Which worker a task runs on is decided by the manager alone
(``TaskVineManager._pick_worker``): it places tasks "where data
dependencies are already available, reducing the need for unnecessary
data movement" (Section IV.B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, Optional

from .spec import SimTask

__all__ = ["ReadyQueue", "TwoTierReadyQueue"]


class ReadyQueue(ABC):
    """Orders ready tasks for dispatch.

    The manager pushes a task when it becomes ready and pops the next
    one to place.  ``defer`` returns a popped task to the *front* (no
    worker had capacity; it must stay first in line).  A discipline may
    return ``None`` from :meth:`pop` while tasks are pending -- e.g. a
    fair-share queue whose eligible tenants are all at quota -- and the
    manager then waits for the next wake-up.

    ``task_running``/``task_released`` are dispatch-lifecycle hooks so
    stateful disciplines (per-tenant deficit or quota accounting) can
    track in-flight work exactly; the default discipline ignores them.
    """

    @abstractmethod
    def push(self, task_id: str, task: SimTask, downstream: bool) -> None:
        """Append a newly ready task."""

    @abstractmethod
    def pop(self) -> Optional[str]:
        """Next task to dispatch, or None if nothing is eligible now."""

    @abstractmethod
    def defer(self, task_id: str, task: SimTask, downstream: bool) -> None:
        """Return a popped task to the front of its line."""

    @abstractmethod
    def __len__(self) -> int:
        """Tasks currently queued (eligible or not)."""

    def __bool__(self) -> bool:
        return len(self) > 0

    def task_running(self, task_id: str, task: SimTask) -> None:
        """A popped task was actually assigned to a worker."""

    def task_released(self, task_id: str, task: SimTask) -> None:
        """A running task released its slot (success or failure)."""

    def snapshot(self) -> Dict[str, int]:
        """Telemetry: queue depth broken down by the discipline's own
        internal lanes (exported as per-lane gauges by
        :func:`repro.obs.metrics.install_standard_gauges`).  The base
        discipline has a single undifferentiated lane."""
        return {"all": len(self)}


class TwoTierReadyQueue(ReadyQueue):
    """TaskVine's default ordering: downstream tasks (consumers of
    intermediates) dispatch before fresh processing tasks."""

    def __init__(self):
        self._high: deque = deque()
        self._normal: deque = deque()

    def push(self, task_id, task, downstream):
        (self._high if downstream else self._normal).append(task_id)

    def pop(self):
        if self._high:
            return self._high.popleft()
        if self._normal:
            return self._normal.popleft()
        return None

    def defer(self, task_id, task, downstream):
        (self._high if downstream else self._normal).appendleft(task_id)

    def __len__(self):
        return len(self._high) + len(self._normal)

    def snapshot(self):
        return {"downstream": len(self._high),
                "fresh": len(self._normal)}
