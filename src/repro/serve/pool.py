"""The bounded worker pool behind the analysis service.

Each of the ``workers`` slots supervises one long-lived worker
*process* (:class:`repro.backend.worker.Worker`, forked when the pool
is built: after the imports, before the daemon listens). The child
owns the reused :class:`~repro.api.Session` (built from the service's
:class:`~repro.api.AnalysisConfig`, live telemetry on so ``watch``
subscriptions see ``repro-live/1`` windows) and runs
:func:`~repro.serve.jobs.execute_job`; the slot's thread only relays —
the job's spec down, windows and the result document or error string
up — so no job runs in the daemon, under its GIL or inside its address
space. A child that exits, is killed or overruns the deadline fails
*its job* and is respawned; the daemon and the other slots keep
serving.

Jobs wait in one bounded queue. A full queue rejects the submit
immediately — :class:`QueueFull` carries the ``retry_after`` hint the
protocol turns into a retryable ``queue-full`` error — rather than
stalling the event loop. :meth:`WorkerPool.drain` implements the
SIGTERM contract: no new work, queued jobs finish, children exit,
threads join.
"""
from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import AnalysisConfig, Session
from repro.backend.worker import (
    ADDRESS_SPACE_BYTES,
    DEADLINE_S,
    Worker,
    WorkerDied,
    WorkerTimeout,
    own_usage,
)
from repro.serve.jobs import (
    DONE,
    FAILED,
    Job,
    RUNNING,
    TERMINAL_STATES,
    execute_job,
)
from repro.util.errors import ReproError

#: Retry hint for a full queue: roughly one queue turn at the default
#: small-workload latency; the service does not yet smooth this.
QUEUE_RETRY_AFTER = 0.5


class QueueFull(ReproError):
    """The job queue is at capacity; try again later."""

    def __init__(self, limit: int, retry_after: float) -> None:
        super().__init__(f"job queue is full ({limit} waiting)")
        self.limit = limit
        self.retry_after = retry_after


class PoolDraining(ReproError):
    """The pool is shutting down and accepts no new jobs."""


def _job_worker(conn: Connection, config: AnalysisConfig) -> None:
    """The child: one Session, one job at a time, until the pipe closes.

    Down: ``(id, tenant, spec)``. Up: ``("window", doc)`` for every live
    window, then ``(DONE, result doc, usage)`` or ``(FAILED, error
    string, usage)`` with the child's cumulative CPU seconds and peak
    RSS.
    """
    session = Session(
        config, on_snapshot=lambda window: conn.send(("window", window))
    )
    while True:
        job = Job(*conn.recv())
        try:
            answer: Tuple[str, Any] = (DONE, execute_job(session, job))
        except Exception as exc:
            answer = (FAILED, str(exc))
        conn.send(answer + (own_usage(),))


@dataclass
class _Slot:
    """One pool slot: its live child and what its children have cost."""

    index: int
    child: Worker
    restarts: int = 0
    #: CPU seconds of the children before this one (read off ``wait4``),
    #: and what the live one last reported of itself.
    retired_cpu: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0


class WorkerPool:
    """N supervised worker processes, one reusable Session each, one
    bounded queue."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 32,
        config: Optional[AnalysisConfig] = None,
        on_complete: Optional[Callable[[Job], None]] = None,
        deadline: float = DEADLINE_S,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_limit < 1:
            raise ValueError("queue limit must be positive")
        self.workers = workers
        self.queue_limit = queue_limit
        self.deadline = deadline
        base = config or AnalysisConfig()
        # Live telemetry on every worker session: watch subscriptions
        # receive windows without per-job reconfiguration.
        self.config = base.replace(live=True)
        self._on_complete = on_complete
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=queue_limit + workers  # headroom for drain sentinels
        )
        self._lock = threading.Lock()
        self._pending = 0
        self._running = 0
        self._draining = False
        self._slots = [_Slot(i, self._spawn(i)) for i in range(workers)]
        #: Running job id -> its child; written under the job's lock.
        self._child_of: Dict[str, Worker] = {}
        self._threads = [
            threading.Thread(
                target=self._slot_loop,
                args=(slot,),
                name=f"repro-serve-worker-{slot.index}",
                daemon=True,
            )
            for slot in self._slots
        ]
        for thread in self._threads:
            thread.start()

    def _spawn(self, index: int) -> Worker:
        # Its own process group: killing it takes its shard workers and
        # whatever an upload forked along.
        return Worker(
            _job_worker,
            self.config,
            name=f"serve worker {index}",
            address_space=ADDRESS_SPACE_BYTES,
            own_group=True,
        )

    # -- submission (event-loop side) -----------------------------------

    def submit(self, job: Job) -> None:
        with self._lock:
            if self._draining:
                raise PoolDraining("service is draining; resubmit elsewhere")
            if self._pending >= self.queue_limit:
                raise QueueFull(self.queue_limit, QUEUE_RETRY_AFTER)
            self._pending += 1
        self._queue.put(job)

    def depth(self) -> int:
        """Jobs waiting in the queue (not yet picked up)."""
        with self._lock:
            return self._pending

    def running(self) -> int:
        with self._lock:
            return self._running

    def abort(self, job: Job, state: str, error: Optional[str]) -> bool:
        """End a *running* job as ``state`` by killing its child — the
        one kill routine under ``cancel`` and the deadline. False when
        the job is not running (any more). The job's lock settles this
        against the slot's own running -> done/failed step; the slot
        then respawns the child and completes the job."""
        with job.lock:
            if job.state != RUNNING:
                return False
            job.state, job.error = state, error
            self._child_of[job.id].kill()
        return True

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per slot: live child pid, restarts, CPU seconds (every child
        the slot has had) and peak RSS, as of the last finished job."""
        with self._lock:
            return [
                {
                    "pid": slot.child.pid,
                    "restarts": slot.restarts,
                    "cpu_seconds": slot.retired_cpu + slot.cpu,
                    "peak_rss_mb": slot.peak_rss_mb,
                }
                for slot in self._slots
            ]

    # -- slot side -------------------------------------------------------

    def _slot_loop(self, slot: _Slot) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                break
            with self._lock:
                self._pending -= 1
            if not slot.child.alive():  # died while idle
                self._replace(slot)
            with job.lock:
                if job.state in TERMINAL_STATES:  # cancelled queued
                    continue
                job.state = RUNNING
                job.started_at = time.time()
                self._child_of[job.id] = slot.child
            self._run_job(slot, job)
        slot.child.stop()

    def _run_job(self, slot: _Slot, job: Job) -> None:
        child = slot.child
        with self._lock:
            self._running += 1
        state, payload, usage = FAILED, None, (0.0, 0.0)
        try:
            state, payload, usage = self._relay(child, job)
        except WorkerTimeout:
            self.abort(
                job, FAILED, f"job exceeded its {self.deadline:g} s deadline"
            )
        except WorkerDied as exc:
            payload = str(exc)
        with job.lock:
            if job.state == RUNNING:  # else aborted: state and error set
                job.state = state
                if state == DONE:
                    job.result = payload
                else:
                    job.error = payload
            del self._child_of[job.id]
        # No abort can kill the child from here on: the job is settled.
        if child.exitcode is not None:
            self._replace(slot)
        with self._lock:
            if child.exitcode is None:
                slot.cpu = usage[0]
                slot.peak_rss_mb = max(slot.peak_rss_mb, usage[1])
            self._running -= 1
        job.finished_at = time.time()
        job.release_payload()
        job.done.set()
        if self._on_complete is not None:
            self._on_complete(job)

    def _replace(self, slot: _Slot) -> None:
        """Bury the slot's dead child and fork the next one."""
        slot.child.stop(grace=0)
        cpu, rss = slot.child.usage
        fresh = self._spawn(slot.index)
        with self._lock:
            slot.child = fresh
            slot.restarts += 1
            slot.retired_cpu += cpu
            slot.cpu = 0.0
            slot.peak_rss_mb = max(slot.peak_rss_mb, rss)

    def _relay(self, child: Worker, job: Job) -> Tuple[str, Any, Any]:
        """Send the job down; pass windows up to its watchers until the
        final message arrives or the deadline does."""
        child.send((job.id, job.tenant, job.spec))
        deadline = time.monotonic() + self.deadline
        while True:
            message = child.recv(max(0.0, deadline - time.monotonic()))
            if message[0] != "window":
                return message
            for watcher in list(job.watchers):
                watcher(message[1])

    # -- lifecycle -------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting work, finish the queue, stop the children,
        join the slots.

        Returns True when every slot finished within ``timeout``
        (None = wait forever). Idempotent: later calls just re-join.
        """
        with self._lock:
            first = not self._draining
            self._draining = True
        if first:
            for _ in self._threads:
                self._queue.put(None)
        deadline = None if timeout is None else time.time() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.time())
            )
            thread.join(remaining)
        return not any(thread.is_alive() for thread in self._threads)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining
