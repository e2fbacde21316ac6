"""Worker failures injected from tests, with no hook in the product.

:func:`failing_shards` replaces ``repro.sim.supervisor._grade_shard``
while it is active.  Supervised workers are forked after the patch, so
they inherit it and the named shards fail inside their workers, as real
failures would:

* ``exit``   — the worker exits hard (``os._exit``), as if OOM-killed;
* ``raise``  — grading raises, and the worker reports the exception;
* ``damage`` — the worker sends a record one first-detection entry
  short of its shard, which ``validate_partial`` rejects on arrival.
"""

import contextlib
import os

from repro.sim import supervisor

#: Every way :func:`failing_shards` can fail a shard.
MODES = ("exit", "raise", "damage")

#: Exit status of a worker told to ``exit``.
EXIT_CODE = 77


@contextlib.contextmanager
def failing_shards(indices, mode):
    """Fail every shard in ``indices`` the ``mode`` way while active."""
    assert mode in MODES, mode
    grade = supervisor._grade_shard

    def failing(simulator, index, *args):
        if index not in indices:
            return grade(simulator, index, *args)
        if mode == "exit":
            os._exit(EXIT_CODE)
        if mode == "raise":
            raise RuntimeError(f"injected failure in shard {index}")
        record = grade(simulator, index, *args)
        record["firsts"] = record["firsts"][:-1]
        return record

    supervisor._grade_shard = failing
    try:
        yield
    finally:
        supervisor._grade_shard = grade
