"""The ``repro serve`` daemon: an asyncio NDJSON analysis service.

One event loop accepts connections (TCP and/or a Unix socket), parses
``repro-serve/1`` request envelopes, and routes them onto the
:class:`~repro.serve.pool.WorkerPool`. Neither the loop nor any other
thread of the daemon runs an analysis — jobs run in the pool's worker
processes; submits enqueue, result waits park on an executor thread,
and ``watch`` subscriptions receive ``repro-live/1`` windows the pool's
slot threads relay from their child via ``call_soon_threadsafe`` — so
admission control (per-tenant quotas, queue backpressure, drain
rejection) stays responsive no matter how loaded the pool is or what
an uploaded program does.

Shutdown contract: SIGTERM (or the ``shutdown`` op) stops admission
with retryable ``draining`` errors, lets queued and running jobs
finish, stops every worker process and joins its slot, closes the
listeners, and wakes :meth:`ReproService.run_until_stopped`.
"""
from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api import AnalysisConfig
from repro.backend.worker import DEADLINE_S
from repro.obs.service import ServiceTelemetry
from repro.serve import protocol
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    Job,
    JobError,
    JobSpec,
    JobTable,
    QUEUED,
    TERMINAL_STATES,
)
from repro.serve.pool import PoolDraining, QueueFull, WorkerPool
from repro.serve.protocol import MAX_REQUEST_BYTES
from repro.serve.quotas import QuotaExceeded, TenantQuotas

#: Retry hint clients get while the daemon drains.
DRAIN_RETRY_AFTER = 5.0

#: Default cap on how long a ``result``/``watch`` wait may park.
DEFAULT_WAIT_TIMEOUT = 300.0


@dataclass(frozen=True)
class ServeSettings:
    """Everything ``repro serve`` needs to stand up a daemon."""

    host: str = "127.0.0.1"
    port: Optional[int] = 0
    unix_path: Optional[str] = None
    workers: int = 2
    queue_limit: int = 32
    quota: int = 4
    backend: str = "inline"
    shards: int = 2
    #: Seconds a job may run before its worker is killed (no CLI flag:
    #: a field only so that tests can shorten it).
    job_deadline: float = DEADLINE_S


class ReproService:
    """The daemon: envelope router + worker pool + telemetry."""

    def __init__(
        self,
        settings: Optional[ServeSettings] = None,
        *,
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.settings = settings or ServeSettings()
        self.config = config or AnalysisConfig(
            backend=self.settings.backend, shards=self.settings.shards
        )
        self.jobs = JobTable()
        self.quotas = TenantQuotas(self.settings.quota)
        self.telemetry = ServiceTelemetry()
        self.pool: Optional[WorkerPool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._stopped: Optional[asyncio.Event] = None
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._connections = 0
        self._conn_tasks: "set[asyncio.Task]" = set()
        #: job id -> asyncio queues of active watch subscriptions; the
        #: completion callback pushes the ``None`` sentinel into each.
        self._watch_queues: Dict[str, List[asyncio.Queue]] = {}
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self.pool = WorkerPool(
            workers=self.settings.workers,
            queue_limit=self.settings.queue_limit,
            config=self.config,
            on_complete=self._job_completed,
            deadline=self.settings.job_deadline,
        )
        self.telemetry.set_workers(self.settings.workers)
        if self.settings.port is not None:
            server = await asyncio.start_server(
                self._handle_client,
                self.settings.host,
                self.settings.port,
                limit=MAX_REQUEST_BYTES,
            )
            self._servers.append(server)
            sock = server.sockets[0]
            self.address = sock.getsockname()[:2]
        if self.settings.unix_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_client,
                    path=self.settings.unix_path,
                    limit=MAX_REQUEST_BYTES,
                )
            )
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.begin_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support

    def begin_shutdown(self) -> None:
        """Start the graceful drain (idempotent, signal-handler safe)."""
        if self._draining:
            return
        self._draining = True
        assert self._loop is not None
        self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        assert self.pool is not None and self._loop is not None
        await self._loop.run_in_executor(None, self.pool.drain)
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        assert self._stopped is not None
        self._stopped.set()

    async def run_until_stopped(self) -> None:
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain and wait for full shutdown (test/CLI teardown hook)."""
        self.begin_shutdown()
        await self.run_until_stopped()

    # -- pool callbacks (slot threads) -----------------------------------

    def _job_completed(self, job: Job) -> None:
        latency = (job.finished_at or time.time()) - (
            job.started_at or job.submitted_at
        )
        self.quotas.release(job.tenant, latency=latency)
        self.telemetry.job_finished(job.tenant, job.state, latency)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._finish_watches, job.id)

    def _finish_watches(self, job_id: str) -> None:
        for queue in self._watch_queues.pop(job_id, []):
            queue.put_nowait(None)

    # -- connection handling ---------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        self.telemetry.set_connections(self._connections)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                line, oversize = await self._read_line(reader)
                if oversize:
                    self.telemetry.protocol_error()
                    await self._send(
                        writer,
                        protocol.make_error(
                            "-",
                            "bad-request",
                            "request line exceeds "
                            f"{MAX_REQUEST_BYTES} bytes",
                        ),
                    )
                    continue
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    envelope = protocol.parse_envelope(text)
                except protocol.ProtocolError as exc:
                    self.telemetry.protocol_error()
                    await self._send(
                        writer,
                        protocol.make_error("-", "bad-request", str(exc)),
                    )
                    continue
                if envelope["kind"] != "request":
                    self.telemetry.protocol_error()
                    await self._send(
                        writer,
                        protocol.make_error(
                            envelope["id"],
                            "bad-request",
                            "only request envelopes are accepted here",
                        ),
                    )
                    continue
                await self._dispatch(envelope, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # drain closed us; exit cleanly
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._connections -= 1
            self.telemetry.set_connections(self._connections)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> Tuple[bytes, bool]:
        """The next line (empty at end of stream) and whether it was
        over the reader's limit; an oversize line is dropped through
        its newline, so the connection stays in step."""
        oversize = False
        while True:
            try:
                return await reader.readuntil(b"\n"), oversize
            except asyncio.IncompleteReadError as exc:
                return exc.partial, oversize
            except asyncio.LimitOverrunError as exc:
                oversize = True
                await reader.readexactly(exc.consumed)

    async def _send(
        self, writer: asyncio.StreamWriter, envelope: Dict[str, Any]
    ) -> None:
        writer.write(protocol.encode(envelope))
        await writer.drain()

    # -- request routing -------------------------------------------------

    async def _dispatch(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = request["op"]
        rid = request["id"]
        self.telemetry.request(op)
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            await self._send(
                writer,
                protocol.make_error(rid, "unknown-op", f"unknown op {op!r}"),
            )
            return
        await handler(rid, request, writer)

    def _refresh_gauges(self) -> None:
        assert self.pool is not None
        self.telemetry.set_queue_depth(self.pool.depth())
        self.telemetry.set_running(self.pool.running())

    async def _op_submit(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        assert self.pool is not None
        tenant = str(request.get("tenant", "default"))
        if self._draining:
            self.telemetry.job_rejected(tenant, "draining")
            await self._send(
                writer,
                protocol.make_error(
                    rid,
                    "draining",
                    "service is draining; resubmit later",
                    retry_after=DRAIN_RETRY_AFTER,
                ),
            )
            return
        try:
            spec = JobSpec.from_request(request)
        except JobError as exc:
            await self._send(
                writer, protocol.make_error(rid, "bad-request", str(exc))
            )
            return
        try:
            self.quotas.acquire(tenant)
        except QuotaExceeded as exc:
            self.telemetry.job_rejected(tenant, "over-quota")
            await self._send(
                writer,
                protocol.make_error(
                    rid,
                    "over-quota",
                    str(exc),
                    retry_after=exc.retry_after,
                ),
            )
            return
        job = self.jobs.create(tenant, spec)
        try:
            self.pool.submit(job)
        except QueueFull as exc:
            self._reject_created(job, tenant, "queue-full")
            await self._send(
                writer,
                protocol.make_error(
                    rid, "queue-full", str(exc), retry_after=exc.retry_after
                ),
            )
            return
        except PoolDraining as exc:
            self._reject_created(job, tenant, "draining")
            await self._send(
                writer,
                protocol.make_error(
                    rid, "draining", str(exc), retry_after=DRAIN_RETRY_AFTER
                ),
            )
            return
        self.telemetry.job_submitted(tenant)
        self._refresh_gauges()
        await self._send(
            writer,
            protocol.make_response(rid, {"job": job.id, "state": job.state}),
        )

    def _reject_created(self, job: Job, tenant: str, code: str) -> None:
        """Roll back a job admitted past quota but refused by the pool."""
        with job.lock:
            job.state = CANCELLED
        job.error = code
        job.release_payload()
        job.done.set()
        self.quotas.release(job.tenant)
        self.telemetry.job_rejected(tenant, code)

    async def _op_status(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self.jobs.get(str(request.get("job", "")))
        if job is None:
            await self._send(
                writer,
                protocol.make_error(
                    rid, "not-found", f"no job {request.get('job')!r}"
                ),
            )
            return
        await self._send(writer, protocol.make_response(rid, job.status_doc()))

    async def _op_result(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self.jobs.get(str(request.get("job", "")))
        if job is None:
            await self._send(
                writer,
                protocol.make_error(
                    rid, "not-found", f"no job {request.get('job')!r}"
                ),
            )
            return
        if request.get("wait"):
            timeout = float(request.get("timeout", DEFAULT_WAIT_TIMEOUT))
            assert self._loop is not None
            await self._loop.run_in_executor(None, job.done.wait, timeout)
        if job.state == DONE:
            doc = job.status_doc()
            doc["result"] = job.result
            await self._send(writer, protocol.make_response(rid, doc))
        elif job.state == FAILED:
            await self._send(
                writer,
                protocol.make_error(
                    rid, "job-failed", job.error or "job failed"
                ),
            )
        elif job.state == CANCELLED:
            await self._send(
                writer,
                protocol.make_error(rid, "not-done", "job was cancelled"),
            )
        else:
            await self._send(
                writer,
                protocol.make_error(
                    rid, "not-done", f"job is {job.state}; pass wait=true"
                ),
            )

    async def _op_cancel(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self.jobs.get(str(request.get("job", "")))
        if job is None:
            await self._send(
                writer,
                protocol.make_error(
                    rid, "not-found", f"no job {request.get('job')!r}"
                ),
            )
            return
        assert self.pool is not None
        with job.lock:
            queued = job.state == QUEUED
            if queued:
                job.state = CANCELLED
        if queued:  # no slot will pick it up: complete it here
            job.finished_at = time.time()
            job.release_payload()
            job.done.set()
            self.quotas.release(job.tenant)
            self.telemetry.job_finished(job.tenant, CANCELLED, 0.0)
            self._finish_watches(job.id)
        elif not self.pool.abort(job, CANCELLED, None):
            await self._send(
                writer,
                protocol.make_error(
                    rid,
                    "bad-request",
                    f"job is {job.state}; only queued and running jobs "
                    "cancel",
                ),
            )
            return
        # A running job's worker is dead by now; its slot completes the
        # job (quota, telemetry, watchers) through ``_job_completed``.
        await self._send(
            writer, protocol.make_response(rid, job.status_doc())
        )

    async def _op_jobs(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        tenant = request.get("tenant")
        listed = [
            job.status_doc()
            for job in self.jobs.all()
            if tenant is None or job.tenant == tenant
        ]
        await self._send(
            writer,
            protocol.make_response(
                rid, {"jobs": listed, "counts": self.jobs.counts()}
            ),
        )

    async def _op_stats(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        assert self.pool is not None
        self._refresh_gauges()
        await self._send(
            writer,
            protocol.make_response(
                rid,
                {
                    "queue_depth": self.pool.depth(),
                    "running": self.pool.running(),
                    "workers": self.settings.workers,
                    "quota": self.settings.quota,
                    "queue_limit": self.settings.queue_limit,
                    "draining": self._draining,
                    "uptime_s": time.time() - self.telemetry.started_at,
                    "tenants": self.quotas.snapshot(),
                    "jobs": self.jobs.counts(),
                },
            ),
        )

    async def _op_metrics(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        assert self.pool is not None
        self._refresh_gauges()
        self.telemetry.set_worker_stats(self.pool.worker_stats())
        text = self.telemetry.openmetrics(
            extra_gauges={
                "serve.quota.limit": self.settings.quota,
                "serve.queue.limit": self.settings.queue_limit,
            }
        )
        await self._send(
            writer,
            protocol.make_response(
                rid,
                {
                    "content_type": "application/openmetrics-text",
                    "text": text,
                },
            ),
        )

    async def _op_watch(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job = self.jobs.get(str(request.get("job", "")))
        if job is None:
            await self._send(
                writer,
                protocol.make_error(
                    rid, "not-found", f"no job {request.get('job')!r}"
                ),
            )
            return
        assert self._loop is not None
        loop = self._loop
        queue: asyncio.Queue = asyncio.Queue()

        def forward(window: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, window)

        job.watchers.append(forward)
        self._watch_queues.setdefault(job.id, []).append(queue)
        if job.state in TERMINAL_STATES:
            # Completed before we registered: the completion callback
            # already fired, so push our own sentinel.
            queue.put_nowait(None)
        try:
            while True:
                window = await queue.get()
                if window is None:
                    break
                await self._send(writer, protocol.make_event(rid, window))
        finally:
            if forward in job.watchers:
                job.watchers.remove(forward)
            queues = self._watch_queues.get(job.id)
            if queues and queue in queues:
                queues.remove(queue)
        doc = job.status_doc()
        if job.state == DONE:
            doc["result"] = job.result
        await self._send(writer, protocol.make_response(rid, doc))

    async def _op_ping(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        import repro

        await self._send(
            writer,
            protocol.make_response(
                rid,
                {
                    "pong": True,
                    "version": repro.__version__,
                    "draining": self._draining,
                },
            ),
        )

    async def _op_shutdown(
        self, rid: str, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        await self._send(
            writer, protocol.make_response(rid, {"draining": True})
        )
        self.begin_shutdown()


def parse_address(address: str) -> Tuple[Optional[str], Optional[int]]:
    """``host:port`` -> (host, port); a bare path means a Unix socket.

    Returns ``(None, None)`` with the path when the address contains a
    slash (callers check for that shape first).
    """
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValueError(f"address {address!r} is not host:port")
    return host or "127.0.0.1", int(port)


async def serve_forever(settings: ServeSettings) -> None:
    """Stand up a service and run until a drain completes."""
    service = ReproService(settings)
    await service.start()
    if service.address is not None:
        host, port = service.address
        print(f"repro serve: listening on {host}:{port}", flush=True)
    if settings.unix_path:
        print(
            f"repro serve: listening on unix:{settings.unix_path}",
            flush=True,
        )
    await service.run_until_stopped()


__all__ = [
    "ReproService",
    "ServeSettings",
    "parse_address",
    "serve_forever",
]
