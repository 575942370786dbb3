"""`repro.obs` — structured event tracing and metrics (observability).

A zero-dependency observability subsystem threaded through every layer
of the reproduction:

* :mod:`repro.obs.tracer` — structured span/event records on explicit
  clocks (wall-clock for the engine, the simulated network clock for
  the TBON and the per-rank wait-state rows) with a hard event limit
  that leaves a ``truncated`` marker behind;
* :mod:`repro.obs.metrics` — counters, gauges, and histograms keyed by
  dotted names, generalizing :class:`repro.perf.timers.PhaseTimers`
  into one registry;
* :mod:`repro.obs.exporters` — JSONL and Chrome ``trace_event``
  exporters (a run opens directly in ``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.flight` — the always-on flight recorder: a bounded
  per-rank ring of the last N events, embedded in deadlock reports;
* :mod:`repro.obs.timeline` — aligns the engine's wall clock and the
  TBON's simulated clock into one unified timeline;
* :mod:`repro.obs.causal` — wait-state blame analysis: blocked-interval
  reconstruction, blocked-time attribution to root-cause ranks, blame
  chains, and the critical path (``repro blame``);
* :mod:`repro.obs.stats` — the ``repro stats`` summary tables
  (per-message-type traffic and the Figure 10(b)/11(b) five-phase
  detection-time breakdown, from an actual run rather than a model);
* :mod:`repro.obs.dist` — cross-shard distributed tracing: the
  worker-side observer spec (which shares the coordinator tracer's
  epoch) and the coordinator-side :class:`TraceMerger` that folds the
  workers' events into one trace;
* :mod:`repro.obs.prof` — the deterministic BSP round profiler behind
  ``repro profile`` (per-round/per-shard sections, critical-shard
  attribution, codec accounting, the ``repro-profile/1`` document);
* :mod:`repro.obs.live` / :mod:`repro.obs.health` — live telemetry:
  :class:`LiveMonitor` streams ``repro-live/1`` snapshot documents
  while a run is in flight and :class:`HealthEngine` grades each
  window PROGRESSING / SOFT-HANG / DEADLOCK-CONFIRMED (the last only
  ever with the runtime wait-for graph's agreement).

The default backend is :data:`NULL_OBSERVER`: a disabled observer with
no-op tracer/metrics, so every instrumented hot path costs exactly one
attribute check when observability is off.
"""
from typing import TYPE_CHECKING

from repro.util.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.causal import (
        BlameReport,
        BlockedInterval,
        analyze_events,
        blame_chain,
    )
    from repro.obs.dist import (
        TraceMerger,
        WorkerObsSpec,
        make_worker_observer,
    )
    from repro.obs.events import (
        CLOCK_OF,
        CLOCK_SIMULATED,
        CLOCK_WALL,
        PID_COORD,
        PID_ENGINE,
        PID_TBON,
        PID_WAIT,
        TraceEvent,
        clock_of,
        pid_of_shard,
        shard_of_pid,
    )
    from repro.obs.exporters import (
        chrome_trace_document,
        load_run,
        openmetrics_text,
        read_jsonl,
        write_chrome_trace,
        write_jsonl,
        write_openmetrics,
    )
    from repro.obs.flight import (
        NULL_FLIGHT_RECORDER,
        FlightRecorder,
        NullFlightRecorder,
    )
    from repro.obs.metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        NullMetricsRegistry,
    )
    from repro.obs.health import (
        DEADLOCK_CONFIRMED,
        PROGRESSING,
        SOFT_HANG,
        VERDICT_CODE,
        VERDICT_STATES,
        HealthEngine,
        HealthVerdict,
    )
    from repro.obs.live import (
        LIVE_FORMAT,
        LiveMonitor,
        feed_exit_code,
        is_live_artifact,
        load_live_feed,
        render_health_table,
        render_health_timeline,
    )
    from repro.obs.observer import NULL_OBSERVER, Observer, make_observer
    from repro.obs.prof import (
        PROFILE_FORMAT,
        ShardRoundProfiler,
        build_profile,
        render_profile,
        row_busy_seconds,
    )
    from repro.obs.stats import (
        render_explore_table,
        render_shard_table,
        render_summary,
        render_timeline_table,
        render_tracer_health,
    )
    from repro.obs.timeline import UnifiedTimeline
    from repro.obs.tracer import NullTracer, Tracer

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "BlameReport": "repro.obs.causal",
    "BlockedInterval": "repro.obs.causal",
    "analyze_events": "repro.obs.causal",
    "blame_chain": "repro.obs.causal",
    "TraceMerger": "repro.obs.dist",
    "WorkerObsSpec": "repro.obs.dist",
    "make_worker_observer": "repro.obs.dist",
    "CLOCK_OF": "repro.obs.events",
    "CLOCK_SIMULATED": "repro.obs.events",
    "CLOCK_WALL": "repro.obs.events",
    "PID_COORD": "repro.obs.events",
    "PID_ENGINE": "repro.obs.events",
    "PID_TBON": "repro.obs.events",
    "PID_WAIT": "repro.obs.events",
    "TraceEvent": "repro.obs.events",
    "clock_of": "repro.obs.events",
    "pid_of_shard": "repro.obs.events",
    "shard_of_pid": "repro.obs.events",
    "chrome_trace_document": "repro.obs.exporters",
    "load_run": "repro.obs.exporters",
    "openmetrics_text": "repro.obs.exporters",
    "read_jsonl": "repro.obs.exporters",
    "write_chrome_trace": "repro.obs.exporters",
    "write_jsonl": "repro.obs.exporters",
    "write_openmetrics": "repro.obs.exporters",
    "FlightRecorder": "repro.obs.flight",
    "NULL_FLIGHT_RECORDER": "repro.obs.flight",
    "NullFlightRecorder": "repro.obs.flight",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "NullMetricsRegistry": "repro.obs.metrics",
    "DEADLOCK_CONFIRMED": "repro.obs.health",
    "HealthEngine": "repro.obs.health",
    "HealthVerdict": "repro.obs.health",
    "PROGRESSING": "repro.obs.health",
    "SOFT_HANG": "repro.obs.health",
    "VERDICT_CODE": "repro.obs.health",
    "VERDICT_STATES": "repro.obs.health",
    "LIVE_FORMAT": "repro.obs.live",
    "LiveMonitor": "repro.obs.live",
    "feed_exit_code": "repro.obs.live",
    "is_live_artifact": "repro.obs.live",
    "load_live_feed": "repro.obs.live",
    "render_health_table": "repro.obs.live",
    "render_health_timeline": "repro.obs.live",
    "NULL_OBSERVER": "repro.obs.observer",
    "Observer": "repro.obs.observer",
    "make_observer": "repro.obs.observer",
    "PROFILE_FORMAT": "repro.obs.prof",
    "ShardRoundProfiler": "repro.obs.prof",
    "build_profile": "repro.obs.prof",
    "render_profile": "repro.obs.prof",
    "row_busy_seconds": "repro.obs.prof",
    "render_explore_table": "repro.obs.stats",
    "render_shard_table": "repro.obs.stats",
    "render_summary": "repro.obs.stats",
    "render_timeline_table": "repro.obs.stats",
    "render_tracer_health": "repro.obs.stats",
    "UnifiedTimeline": "repro.obs.timeline",
    "NullTracer": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
})
