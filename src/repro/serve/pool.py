"""The bounded worker pool behind the analysis service.

``workers`` threads each own one long-lived
:class:`~repro.api.Session` (built from the service's
:class:`~repro.api.AnalysisConfig`, with live telemetry enabled so
``watch`` subscriptions see ``repro-live/1`` windows) and pull jobs
from one bounded queue. A full queue rejects the submit immediately —
:class:`QueueFull` carries the ``retry_after`` hint the protocol turns
into a retryable ``queue-full`` error — rather than stalling the
event loop. :meth:`WorkerPool.drain` implements the SIGTERM contract:
no new work, queued jobs finish, workers join, sessions close.
"""
from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.api import AnalysisConfig, Session
from repro.serve.jobs import (
    CANCELLED,
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


class WorkerPool:
    """N worker threads, one reusable Session each, one bounded queue."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 32,
        config: Optional[AnalysisConfig] = None,
        on_complete: Optional[Callable[[Job], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_limit < 1:
            raise ValueError("queue limit must be positive")
        self.workers = workers
        self.queue_limit = queue_limit
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
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

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

    # -- worker side -----------------------------------------------------

    def _worker_loop(self) -> None:
        current: Dict[str, Optional[Job]] = {"job": None}

        def dispatch_window(window: Dict[str, Any]) -> None:
            job = current["job"]
            if job is None:
                return
            for watcher in list(job.watchers):
                watcher(window)

        session = Session(self.config, on_snapshot=dispatch_window)
        try:
            while True:
                job = self._queue.get()
                if job is None:
                    return
                with self._lock:
                    self._pending -= 1
                with job.lock:
                    if job.state in TERMINAL_STATES:  # cancelled queued
                        continue
                    job.state = RUNNING
                    job.started_at = time.time()
                self._run_job(session, job, current)
        finally:
            session.close()

    def _run_job(
        self, session: Session, job: Job, current: Dict[str, Optional[Job]]
    ) -> None:
        current["job"] = job
        with self._lock:
            self._running += 1
        try:
            job.result = execute_job(session, job)
            job.state = DONE
        except Exception as exc:
            job.error = str(exc)
            job.state = FAILED
        except SystemExit as exc:
            # An uploaded program called sys.exit(): that ends the job,
            # not the worker thread every later job needs.
            job.error = f"program exited (exit code {exc.code!r})"
            job.state = FAILED
        finally:
            current["job"] = None
            with self._lock:
                self._running -= 1
            job.finished_at = time.time()
            job.release_payload()
            job.done.set()
            if self._on_complete is not None:
                self._on_complete(job)

    # -- lifecycle -------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting work, finish the queue, join the workers.

        Returns True when every worker exited within ``timeout``
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
