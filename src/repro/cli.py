"""Exit codes shared by every ``python -m repro.*`` command.

* ``0`` -- done: report produced, run complete, no regression.
* ``2`` -- unreadable or empty input (``bench sentinel``: usage
  or baseline errors).
* ``3`` -- the run did not complete: aborted, crashed, truncated
  before its RUN_END footer, or followed past ``--timeout``
  (``bench sentinel``: a regression was flagged).
* ``137`` -- ``serve --kill-after``: the process killed itself the
  way SIGKILL would (128 + 9), for crash drills.
"""

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_INCOMPLETE = 3
EXIT_KILLED = 137
