"""``repro serve``: a persistent multi-tenant analysis service.

The daemon accepts newline-delimited ``repro-serve/1`` JSON envelopes
over TCP and/or a Unix socket and runs analysis jobs — built-in
workloads, uploaded rank programs, uploaded matched traces — on a
bounded pool of worker threads, each reusing one
:class:`~repro.api.Session`. Admission control is per-tenant quotas
plus queue backpressure, both surfaced as retryable protocol errors;
SIGTERM drains gracefully. See ``DESIGN.md`` section 17.

Layering::

    protocol.py   envelope schemas + codec (repro-serve/1)
    jobs.py       job model, table, and execution on a Session
    quotas.py     per-tenant admission control
    pool.py       bounded worker pool (threads, Session reuse)
    service.py    the asyncio daemon: router, drain, telemetry
    client.py     blocking socket client (repro submit / repro jobs)
"""
from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.jobs import Job, JobError, JobSpec, JobTable
    from repro.serve.pool import PoolDraining, QueueFull, WorkerPool
    from repro.serve.protocol import (
        OPS,
        ProtocolError,
        SERVE_FORMAT,
        make_error,
        make_event,
        make_request,
        make_response,
        parse_envelope,
    )
    from repro.serve.quotas import QuotaExceeded, TenantQuotas
    from repro.serve.service import (
        ReproService,
        ServeSettings,
        serve_forever,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "Job": "repro.serve.jobs",
    "JobError": "repro.serve.jobs",
    "JobSpec": "repro.serve.jobs",
    "JobTable": "repro.serve.jobs",
    "PoolDraining": "repro.serve.pool",
    "QueueFull": "repro.serve.pool",
    "WorkerPool": "repro.serve.pool",
    "OPS": "repro.serve.protocol",
    "ProtocolError": "repro.serve.protocol",
    "SERVE_FORMAT": "repro.serve.protocol",
    "make_error": "repro.serve.protocol",
    "make_event": "repro.serve.protocol",
    "make_request": "repro.serve.protocol",
    "make_response": "repro.serve.protocol",
    "parse_envelope": "repro.serve.protocol",
    "QuotaExceeded": "repro.serve.quotas",
    "TenantQuotas": "repro.serve.quotas",
    "ReproService": "repro.serve.service",
    "ServeSettings": "repro.serve.service",
    "serve_forever": "repro.serve.service",
})
