"""Exporters: JSONL streams, Chrome ``trace_event`` files, OpenMetrics.

The Chrome exporter writes the *object* form of the trace-event format
(a top-level dict with ``traceEvents``), which both ``chrome://tracing``
and Perfetto load directly. Run metadata — workload name, verdict, and
the full metrics snapshot — rides along under the top-level ``repro``
key (the format explicitly allows extra keys), so one file is both the
visual trace and the machine-readable input of ``repro stats``.

:func:`openmetrics_text` renders a metrics snapshot in the OpenMetrics
/ Prometheus text exposition format (dependency-free): counters get
the ``_total`` suffix, gauges export value plus high-water mark,
histogram summaries become OpenMetrics ``summary`` families with
``quantile`` labels. ``repro watch --openmetrics FILE`` scrapes the
live monitor through it.
"""
from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.events import (
    TraceEvent,
    process_name_metadata,
    shard_of_pid,
)
from repro.obs.observer import Observer
from repro.obs.tracer import Tracer
from repro.util.errors import TraceError

#: Version of the ``repro`` metadata block inside trace files.
RUN_FORMAT_VERSION = 1


def chrome_trace_document(
    tracer: Tracer, *, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The full Chrome trace-event document for one run."""
    shard_names = {
        event.pid: "shard %d worker (reconciled wall clock)" % shard
        for event in tracer.events
        for shard in (shard_of_pid(event.pid),)
        if shard is not None
    }
    events = process_name_metadata(shard_names) + list(tracer.events)
    doc: Dict[str, Any] = {
        "traceEvents": [event.to_json() for event in events],
        "displayTimeUnit": "ms",
        "repro": {
            "version": RUN_FORMAT_VERSION,
            "dropped_events": tracer.dropped,
            **(metadata or {}),
        },
    }
    return doc


def write_chrome_trace(
    path: str, tracer: Tracer, *, metadata: Optional[Dict[str, Any]] = None
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace_document(tracer, metadata=metadata), handle)
        handle.write("\n")


def write_jsonl(path: str, tracer: Tracer) -> None:
    """One event per line — greppable, streamable, append-friendly."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in tracer.events:
            handle.write(json.dumps(event.to_json()) + "\n")


def export_run(
    observer: Observer,
    *,
    trace_out: Optional[str] = None,
    jsonl_out: Optional[str] = None,
    workload: Optional[str] = None,
    deadlocked: bool = False,
    ranks: Optional[int] = None,
    profile: Optional[Dict[str, Any]] = None,
) -> None:
    """Write one run's trace artifacts: the Chrome trace to
    ``trace_out``, the raw event stream to ``jsonl_out``.

    The one place the trace's run metadata is assembled: ``workload``,
    ``deadlocked``, ``ranks``, ``metrics`` (the observer's snapshot),
    and ``profile`` when the backend profiled the run.
    """
    if trace_out:
        metadata = {
            "workload": workload,
            "deadlocked": bool(deadlocked),
            "ranks": ranks,
            "metrics": observer.metrics.snapshot(),
        }
        if profile is not None:
            metadata["profile"] = profile
        write_chrome_trace(trace_out, observer.tracer, metadata=metadata)
    if jsonl_out:
        write_jsonl(jsonl_out, observer.tracer)


def read_jsonl(path: str) -> List[TraceEvent]:
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise TraceError(
                    f"{path}:{lineno}: malformed event record: {exc}"
                ) from exc
    return events


#: OpenMetrics metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
_OM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Summary quantiles exported from histogram summaries.
_OM_QUANTILES = (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99"))


def _om_name(name: str, prefix: str) -> str:
    """Sanitize a dotted instrument name into an OpenMetrics name."""
    clean = _OM_INVALID.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return prefix + clean


def _om_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def openmetrics_text(
    snapshot: Mapping[str, Any],
    *,
    prefix: str = "repro_",
    extra_gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """A :meth:`MetricsRegistry.snapshot` in OpenMetrics text format.

    ``extra_gauges`` lets callers append computed gauges (the health
    engine's verdict code, per-window dwell figures) to the scrape
    without registering them as instruments.
    """
    lines: List[str] = []
    for name, value in sorted(dict(snapshot.get("counters", {})).items()):
        om = _om_name(name, prefix)
        lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total {_om_value(value)}")
    gauges: Dict[str, Any] = dict(snapshot.get("gauges", {}))
    for name, g in sorted(gauges.items()):
        om = _om_name(name, prefix)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om} {_om_value(g['value'])}")
        lines.append(f"# TYPE {om}_max gauge")
        lines.append(f"{om}_max {_om_value(g['max'])}")
    for name, summary in sorted(
        dict(snapshot.get("histograms", {})).items()
    ):
        om = _om_name(name, prefix)
        lines.append(f"# TYPE {om} summary")
        for key, quantile in _OM_QUANTILES:
            if key in summary:
                lines.append(
                    f'{om}{{quantile="{quantile}"}} '
                    f"{_om_value(summary[key])}"
                )
        lines.append(f"{om}_count {_om_value(summary.get('count', 0))}")
        lines.append(f"{om}_sum {_om_value(summary.get('sum', 0.0))}")
    for name, value in sorted(dict(extra_gauges or {}).items()):
        om = _om_name(name, prefix)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om} {_om_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    path: str,
    snapshot: Mapping[str, Any],
    *,
    prefix: str = "repro_",
    extra_gauges: Optional[Mapping[str, float]] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            openmetrics_text(
                snapshot, prefix=prefix, extra_gauges=extra_gauges
            )
        )


def load_run(path: str) -> Dict[str, Any]:
    """Load a ``--obs-trace`` artifact, validating the ``repro`` block."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise TraceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise TraceError("not a Chrome trace-event document")
    meta = doc.get("repro")
    if not isinstance(meta, dict) or "metrics" not in meta:
        raise TraceError(
            "no 'repro' run metadata (was this written by --obs-trace?)"
        )
    return doc
