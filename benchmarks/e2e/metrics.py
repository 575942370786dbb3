"""Names, units, directions, bounds and estimators of every metric.

``BENCHMARK.json`` at the repo root repeats the names, units and
directions (the self-test keeps the two in step); the estimator column
lives only here.

Calibrated seconds. The box this runs on is shared, and what shares it
slows Python code by up to 60% for seconds to minutes at a time: ten
back-to-back runs of seven ``straggler_epochs_p512`` samples read
1.05 s to 1.73 s on their per-run medians (Q3-Q1 over the median: 22%)
and 20% on their per-run minima. A slow stretch can outlast a whole
run, so no statistic of the raw samples helps. Every timed block is
therefore bracketed by ``harness.calibrate()``, a fixed kernel of heap
and dictionary work that belongs to the benchmark, and its time is
scaled by ``REFERENCE_S / mean(kernel before, kernel after)``: a time
reads what it would have read with the kernel at its quiet-box speed.
The same ten runs spread 3.7% on their calibrated medians. The raw
median is printed and stored next to every end-to-end time. Numbers
from two machines compare only through ratios against a common commit.

A run's samples become its value by the median; rates too. Latency
percentiles keep their own definition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class MetricDef:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: median | p95 -- how a run's samples become its value.
    stat: str
    #: Share of the parent's value an end-to-end metric may worsen by;
    #: None for per-layer metrics.
    bound: Optional[float] = None
    #: The driver's contract wants every end-to-end metric on every
    #: workload; the serve-only and exact-zero ones cannot be, so
    #: BENCHMARK.json lists them under ``per_layer`` (see README).
    every_workload: bool = True


def _t(name: str) -> MetricDef:
    return MetricDef(name, "s", "lower", "median")


def _n(name: str, unit: str = "count", better: str = "lower") -> MetricDef:
    return MetricDef(name, unit, better, "median")


def _rate(name: str) -> MetricDef:
    return MetricDef(name, "1/s", "higher", "median")


END_TO_END: Tuple[MetricDef, ...] = (
    MetricDef("cli_wall_s", "s", "lower", "median", 0.25),
    MetricDef("verdict_wall_s", "s", "lower", "median", 0.25),
    MetricDef("verdict_cpu_s", "s", "lower", "median", 0.25),
    MetricDef("ops_per_s", "1/s", "higher", "median", 0.25),
    MetricDef("peak_rss_mb", "MB", "lower", "median", 0.10),
    MetricDef("job_p50_s", "s", "lower", "median", 0.25, False),
    MetricDef("job_p95_s", "s", "lower", "p95", 0.25, False),
    MetricDef("jobs_per_s", "1/s", "higher", "median", 0.25, False),
    MetricDef("setup_s", "s", "lower", "median", 0.25),
    MetricDef("failed_share", "ratio", "lower", "median", 0.0, False),
)

PER_LAYER: Tuple[MetricDef, ...] = (
    _t("cli.startup_s"),
    _t("cli.overhead_s"),
    _t("runtime.record_s"),
    _n("runtime.ops"),
    _rate("runtime.ops_per_s"),
    _t("mpi.save_s"),
    _t("mpi.load_s"),
    _n("mpi.trace_bytes", "B"),
    _rate("mpi.codec_msgs_per_s"),
    _t("core.track_s"),
    _t("core.detect_s"),
    _n("core.epochs"),
    _t("core.epoch_s"),
    _n("core.tool_msgs"),
    _n("core.tool_bytes", "B"),
    _n("core.peak_window"),
    _rate("tbon.msgs_per_s"),
    _t("tbon.sim_seconds"),
    _t("wfg.build_s"),
    _t("wfg.check_s"),
    _t("wfg.simplify_s"),
    _t("wfg.render_dot_s"),
    _t("wfg.render_html_s"),
    _t("wfg.render_json_s"),
    _n("wfg.arcs"),
    _n("wfg.nodes"),
    _n("wfg.agg_arcs"),
    _n("wfg.report_bytes", "B"),
    _t("backend.inline_run_s"),
    _t("backend.sharded_run_s"),
    _n("backend.sharded_over_inline", "ratio"),
    _n("backend.rounds"),
    _n("backend.xshard_msgs"),
    _t("backend.modeled_s"),
    _n("backend.cpu_over_wall", "ratio", "higher"),
    _n("obs.on_over_off", "ratio"),
    _n("obs.events"),
    _t("analysis.extract_s"),
    _t("analysis.explore_s"),
    _n("analysis.states"),
    _rate("analysis.states_per_s"),
    _t("analysis.fastpath_s"),
    _t("analysis.witness_replay_s"),
    _t("serve.ping_rtt_s"),
    _t("serve.submit_rtt_s"),
    _t("serve.queue_wait_s"),
    _t("serve.exec_s"),
    _t("serve.overhead_s"),
    _n("serve.rejected"),
    _t("serve.start_s"),
    _n("bench.unattributed_share", "ratio"),
    _n("bench.trace_overhead", "ratio"),
)

#: End-to-end metrics the driver gates on every workload.
GATED: Tuple[MetricDef, ...] = tuple(m for m in END_TO_END if m.every_workload)

#: What ``--trace 1`` prints on its result line: the per-layer metrics
#: plus the end-to-end ones that are not defined on every workload.
TRACED: Tuple[MetricDef, ...] = PER_LAYER + tuple(
    m for m in END_TO_END if not m.every_workload
)

#: Counts that must repeat exactly between two runs of one commit.
EXACT_COUNTS = (
    "wfg.arcs", "core.tool_msgs", "core.epochs", "analysis.states",
    "backend.rounds",
)
