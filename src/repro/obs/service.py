"""Service-level telemetry for the ``repro serve`` daemon.

Job analysis runs carry their own per-job observers (built by the
worker sessions); this module is the *daemon's* instrumentation — one
long-lived :class:`~repro.obs.observer.Observer` whose metrics
registry counts submissions, completions, and rejections per tenant
and gauges the queue. :meth:`ServiceTelemetry.openmetrics` renders the
scrape through the same
:func:`~repro.obs.exporters.openmetrics_text` exposition the offline
``repro stats --format openmetrics`` path uses, so one Prometheus
relabel config covers files and the daemon alike.
"""
from __future__ import annotations

import re
import time
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.obs.exporters import openmetrics_text
from repro.obs.observer import Observer, make_observer

_TENANT_SAFE = re.compile(r"[^A-Za-z0-9_]")


def _tenant_key(tenant: str) -> str:
    """A metric-name-safe rendering of a tenant id."""
    return _TENANT_SAFE.sub("_", tenant) or "default"


class ServiceTelemetry:
    """Counters and gauges describing the daemon, not the analyses."""

    def __init__(self, observer: Optional[Observer] = None) -> None:
        self.observer = observer if observer is not None else make_observer()
        self.started_at = time.time()

    @property
    def metrics(self):
        return self.observer.metrics

    # -- recording -------------------------------------------------------

    def job_submitted(self, tenant: str) -> None:
        self.metrics.inc("serve.jobs.submitted")
        self.metrics.inc(f"serve.tenant.{_tenant_key(tenant)}.submitted")

    def job_finished(self, tenant: str, state: str, latency: float) -> None:
        self.metrics.inc(f"serve.jobs.{state}")
        self.metrics.inc(f"serve.tenant.{_tenant_key(tenant)}.{state}")
        self.metrics.observe("serve.job.latency_s", latency)

    def job_rejected(self, tenant: str, code: str) -> None:
        key = code.replace("-", "_")
        self.metrics.inc(f"serve.rejected.{key}")
        self.metrics.inc(f"serve.tenant.{_tenant_key(tenant)}.rejected")

    def request(self, op: str) -> None:
        self.metrics.inc(f"serve.requests.{op}")

    def protocol_error(self) -> None:
        self.metrics.inc("serve.requests.protocol_error")

    def set_queue_depth(self, depth: int) -> None:
        self.metrics.set_gauge("serve.queue.depth", depth)

    def set_running(self, running: int) -> None:
        self.metrics.set_gauge("serve.jobs.running", running)

    def set_workers(self, workers: int) -> None:
        self.metrics.set_gauge("serve.workers", workers)

    def set_connections(self, count: int) -> None:
        self.metrics.set_gauge("serve.connections", count)

    def set_worker_stats(self, stats: Sequence[Mapping[str, Any]]) -> None:
        """What the worker processes cost, which ``/proc/<daemon>`` no
        longer shows: per slot CPU seconds and peak RSS, and how many
        children were replaced after a crash, a kill or the deadline."""
        self.metrics.set_gauge(
            "serve.worker.restarts", sum(s["restarts"] for s in stats)
        )
        for slot, stat in enumerate(stats):
            for key in ("cpu_seconds", "peak_rss_mb"):
                self.metrics.set_gauge(f"serve.worker.{slot}.{key}", stat[key])

    # -- exposition ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    def openmetrics(
        self, *, extra_gauges: Optional[Mapping[str, float]] = None
    ) -> str:
        gauges = {"serve.uptime_s": time.time() - self.started_at}
        if extra_gauges:
            gauges.update(extra_gauges)
        return openmetrics_text(self.snapshot(), extra_gauges=gauges)
