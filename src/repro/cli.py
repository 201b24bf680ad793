"""Conventions shared by every ``python -m repro.*`` command.

:func:`print_json` writes every ``--json`` document; the exit codes are:

* ``0`` -- done: report produced, run complete, no regression.
* ``2`` -- unreadable or empty input (``bench sentinel``: usage
  or baseline errors).
* ``3`` -- the run did not complete: aborted, crashed, truncated
  before its RUN_END footer, or followed past ``--timeout``
  (``bench sentinel``: a regression was flagged).
* ``137`` -- ``serve --kill-after``: the process killed itself the
  way SIGKILL would (128 + 9), for crash drills.
"""

import json

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_INCOMPLETE = 3
EXIT_KILLED = 137


def print_json(doc) -> None:
    """Print ``doc`` the way every ``--json`` flag does: indented,
    sorted keys, non-JSON values as ``str``."""
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))
