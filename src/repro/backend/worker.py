"""One supervised worker process: the primitive under a ``repro serve``
slot's job worker (:mod:`repro.serve.pool`) and a sharded run's shard
workers (:mod:`repro.backend.sharded`).

A :class:`Worker` forks ``target(conn, *args)`` — after the imports, so
the child starts warm — and talks to it over one duplex pipe of framed
picklable data. The supervisor always gets an answer, whatever the
child does: :meth:`Worker.recv` returns a message, raises
:class:`WorkerDied` the moment the child is gone (it waits on the pipe
and a pidfd together) or :class:`WorkerTimeout` at the caller's
wall-clock deadline (a ``SIGSTOP``\\ ped child is not dead);
:meth:`Worker.kill` signals and reaps, and takes the child's process
group along when it was forked ``own_group=True``.

The child ignores ``SIGINT`` (its supervisor cleans up), resets
``SIGTERM`` and the signal wake-up fd (an asyncio parent's handlers
must not fire in a copy) and sets ``RLIMIT_AS`` when asked. On Linux
it also dies with its supervisor: the kernel sends it ``SIGKILL`` when
the thread that forked it exits (``PR_SET_PDEATHSIG``), so a
``SIGKILL``\\ ed daemon does not leave a busy worker finishing its job
— which is also why a worker must not outlive the thread that made
it. A fork of a
worker is not a worker: the workers it spawns itself drop its pipe, any
other copy (an upload's ``os.fork()``) exits at once, before it can run
the job twice or write a frame. The supervisor closing the pipe or
vanishing (``EOFError``/``OSError`` on the child's end) ends the child
quietly. POSIX with pidfds (Linux 5.3+) only.
"""
from __future__ import annotations

import os
import resource
import signal
import sys
import threading
import traceback
from multiprocessing.connection import Connection, Pipe, wait
from typing import Any, Callable, Optional, Tuple

from repro.util.errors import ReproError

#: Seconds a supervisor waits for one answer — a serve job's result, a
#: shard's round — before it calls the worker hung and kills it.
DEADLINE_S = 300.0

#: ``RLIMIT_AS`` of a serve worker: an upload that allocates past it
#: gets a ``MemoryError``, the machine does not get the OOM killer.
ADDRESS_SPACE_BYTES = 4 << 30

#: True while this module forks: what tells a worker's own worker from
#: a stray copy of it (``_after_fork``).
_spawning = False

#: The ``prctl(2)`` option that names the signal a child gets when its
#: parent dies.
_PR_SET_PDEATHSIG = 1


class WorkerDied(ReproError):
    """The worker exited (``exitcode``) or was killed (``signal``)
    before it answered."""

    def __init__(self, name: str, status: int) -> None:
        self.exitcode = status if status >= 0 else None
        self.signal = -status if status < 0 else None
        super().__init__(
            f"{name} exited with code {status}" if status >= 0
            else f"{name} was killed by {signal.Signals(-status).name}"
        )


class WorkerTimeout(ReproError):
    """The worker is alive but did not answer inside the deadline."""


def _usage(*rusages: Any) -> Tuple[float, float]:
    return (
        sum(ru.ru_utime + ru.ru_stime for ru in rusages),
        max(ru.ru_maxrss for ru in rusages) / 1024.0,
    )


def own_usage() -> Tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of this process and the children
    it reaped — what a worker reports of itself."""
    return _usage(
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN),
    )


class Worker:
    """A forked ``target(conn, *args)`` and the supervisor's handle on it.

    ``send``, ``recv`` and ``stop`` belong to the one thread that owns
    the worker; ``kill`` may come from any thread (a cancel), and the
    owner's pending ``recv`` then raises :class:`WorkerDied`.
    """

    def __init__(
        self,
        target: Callable[..., None],
        *args: Any,
        name: str = "worker",
        address_space: Optional[int] = None,
        own_group: bool = False,
    ) -> None:
        global _spawning
        self.name = name
        self._own_group = own_group
        #: Exit status once reaped (negative: minus the signal), and the
        #: (CPU seconds, peak RSS MB) the reaped child had used.
        self.exitcode: Optional[int] = None
        self.usage: Tuple[float, float] = (0.0, 0.0)
        self._reaping = threading.Lock()
        self._conn, child_end = Pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        parent = os.getpid()
        _spawning = True
        try:
            self.pid = os.fork()
        finally:
            _spawning = False
        if self.pid == 0:
            self._conn.close()
            _child(child_end, target, args, address_space, own_group, parent)
        child_end.close()
        if own_group:
            try:  # both sides set it, so neither has to wait for the other
                os.setpgid(self.pid, self.pid)
            except OSError:
                pass  # the child already did, or is already gone
        self._pidfd = os.pidfd_open(self.pid)

    def alive(self) -> bool:
        return self.exitcode is None and not wait([self._pidfd], 0)

    def send(self, message: Any) -> None:
        try:
            self._conn.send(message)
        except OSError:
            raise self._died() from None

    def recv(self, timeout: Optional[float] = None) -> Any:
        ready = wait([self._conn, self._pidfd], timeout)
        if not ready:
            raise WorkerTimeout(
                f"{self.name} did not answer within {timeout:g} s"
            )
        # A dying child's last words are read before its death is.
        if self._conn in ready or self._conn.poll():
            try:
                return self._conn.recv()
            except (EOFError, OSError):  # closed, or reset mid-frame
                pass
        raise self._died()

    def _died(self) -> WorkerDied:
        self.kill()
        assert self.exitcode is not None
        return WorkerDied(self.name, self.exitcode)

    def kill(self) -> None:
        """SIGKILL the child (its group, when it leads one) and reap
        it. Idempotent and thread-safe; a no-op on a reaped child."""
        with self._reaping:
            if self.exitcode is not None:
                return
            try:
                (os.killpg if self._own_group else os.kill)(
                    self.pid, signal.SIGKILL
                )
            except ProcessLookupError:
                pass
            _pid, status, rusage = os.wait4(self.pid, 0)
            self.exitcode = os.waitstatus_to_exitcode(status)
            self.usage = _usage(rusage)

    def stop(self, grace: float = 5.0) -> None:
        """Close the pipe — an idle child reads end-of-file and returns —
        wait up to ``grace`` seconds, kill what is left, free the
        handles. The worker is unusable afterwards."""
        self._conn.close()
        if self.exitcode is None and grace > 0:
            wait([self._pidfd], grace)
        self.kill()
        os.close(self._pidfd)


def _after_fork(conn: Connection) -> None:
    """In every process forked from a worker: its own worker drops the
    pipe it must not share, anything else is a stray copy and ends."""
    if not _spawning:
        os._exit(1)
    conn.close()


def _dies_with(parent: int) -> bool:
    """Have the kernel ``SIGKILL`` this child when ``parent``'s forking
    thread exits (Linux; elsewhere a no-op), and say whether ``parent``
    is still there — it may have died before the call. ``ctypes`` is
    imported here, so only the children pay for loading it."""
    if sys.platform.startswith("linux"):
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    return os.getppid() == parent


def _child(
    conn: Connection,
    target: Callable[..., None],
    args: Tuple[Any, ...],
    address_space: Optional[int],
    own_group: bool,
    parent: int,
) -> None:
    """The forked side: never returns."""
    code = 1
    try:
        if not _dies_with(parent):
            return
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if own_group:
            os.setpgid(0, 0)
        if address_space is not None:
            resource.setrlimit(
                resource.RLIMIT_AS, (address_space, address_space)
            )
        os.register_at_fork(after_in_child=lambda: _after_fork(conn))
        target(conn, *args)
        code = 0
    except (EOFError, OSError):
        code = 0  # the supervisor closed the pipe or is gone
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
