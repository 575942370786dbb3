"""One pause of CPython's cyclic garbage collector around the hot loops.

A run of the recording engine or of the tool tree allocates one record
per operation and several per tool message, and keeps most of them
until it ends. CPython's cyclic collector walks that heap every few
hundred allocations, so its cost grows with the heap and therefore
with p — and a run makes no cyclic garbage for it to find: a finished
run is freed by reference counting alone (the refcount-only tests in
``tests/unit/test_injector.py`` and ``tests/unit/test_gcpause.py`` pin
that, inline and sharded).

:func:`collector_paused` is the only place the program touches the
collector. It is entered around ``Engine.run``, ``ToolTree.drive``
and a shard worker's command loop, and it nests: a process-wide depth
count under a lock makes the first entry save :func:`gc.isenabled`
and disable the collector, and the last exit restore exactly the saved
state, whatever thread entered first and however the block ended. It
never collects by itself; cyclic garbage that a rank program makes
during a run is freed by the first collection after it.
"""
from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
#: Open pauses in this process, and the collector state the first one
#: found (what the last one restores).
_depth = 0
_was_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off (see the module
    docstring); safe to nest and to enter from several threads."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()


def _after_fork_in_child() -> None:
    # Only the forking thread survives a fork, and the lock may have
    # been held by another: the child gets a fresh one.
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_after_fork_in_child)
