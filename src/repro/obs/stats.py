"""Summary tables for ``repro stats`` and ``--obs`` runs.

Renders a metrics snapshot (:meth:`MetricsRegistry.snapshot`) into the
two tables the paper's evaluation revolves around:

* per-message-type tool traffic — sends, bytes, and deliveries for
  every protocol message (``PassSend``, ``RecvActive``,
  ``RecvActiveAck``, ``CollectiveReady``, ``CollectiveAck``, the
  Section 5 detection messages, …); and
* the five-phase detection-time breakdown of Figures 10(b)/11(b)
  (synchronization, WFG gather, graph build, deadlock check, output
  generation) with per-phase shares — reproduced from the actual run's
  registry, not from the cost model.
"""
from __future__ import annotations

from typing import Dict, List, Mapping

from repro.obs.timeline import UnifiedTimeline
from repro.perf.timers import ALL_PHASES

#: The one ledger: sends by ``tbon.network.count_sent``, deliveries
#: published from the nodes' ``stats`` at read-off (``core.detector``).
SENT_PREFIX = "tbon.sent."
SENT_BYTES_PREFIX = "tbon.sent_bytes."
RECV_PREFIX = "tbon.recv."
#: Histogram prefix for the detection phases.
PHASE_PREFIX = "detection.phase."


def _with_prefix(counters: Mapping[str, int], prefix: str) -> Dict[str, int]:
    return {
        name[len(prefix):]: value
        for name, value in counters.items()
        if name.startswith(prefix)
    }


def render_message_table(snapshot: Mapping[str, object]) -> List[str]:
    counters: Mapping[str, int] = snapshot.get("counters", {})  # type: ignore[assignment]
    sent = _with_prefix(counters, SENT_PREFIX)
    sent_bytes = _with_prefix(counters, SENT_BYTES_PREFIX)
    received = _with_prefix(counters, RECV_PREFIX)
    types = sorted(set(sent) | set(received))
    lines = [
        f"{'message type':<24} {'sent':>10} {'bytes':>12} {'received':>10}"
    ]
    if not types:
        lines.append("  (no tool messages recorded)")
        return lines
    total_sent = total_bytes = total_recv = 0
    for mtype in types:
        s = sent.get(mtype, 0)
        b = sent_bytes.get(mtype, 0)
        r = received.get(mtype, 0)
        total_sent += s
        total_bytes += b
        total_recv += r
        lines.append(f"{mtype:<24} {s:>10,} {b:>12,} {r:>10,}")
    lines.append(
        f"{'total':<24} {total_sent:>10,} {total_bytes:>12,} "
        f"{total_recv:>10,}"
    )
    return lines


def render_phase_table(snapshot: Mapping[str, object]) -> List[str]:
    histograms: Mapping[str, Mapping[str, float]] = snapshot.get(
        "histograms", {}
    )  # type: ignore[assignment]
    sums: Dict[str, float] = {}
    for name, summary in histograms.items():
        if name.startswith(PHASE_PREFIX):
            sums[name[len(PHASE_PREFIX):]] = float(summary.get("sum", 0.0))
    # Canonical order first, then any extra phases a future layer adds.
    phases = list(ALL_PHASES) + sorted(p for p in sums if p not in ALL_PHASES)
    total = sum(sums.values())
    lines = [f"{'detection phase':<24} {'total ms':>12} {'share':>8}"]
    for phase in phases:
        seconds = sums.get(phase, 0.0)
        share = (seconds / total * 100.0) if total > 0 else 0.0
        lines.append(f"{phase:<24} {seconds * 1e3:>12.3f} {share:>7.1f}%")
    lines.append(f"{'total':<24} {total * 1e3:>12.3f} {100.0:>7.1f}%")
    return lines


def render_wait_table(snapshot: Mapping[str, object]) -> List[str]:
    """Wait-state dwell-time histograms (per rank), if any."""
    histograms: Mapping[str, Mapping[str, float]] = snapshot.get(
        "histograms", {}
    )  # type: ignore[assignment]
    prefix = "waitstate.dwell.rank"
    rows = []
    for name in sorted(histograms):
        if not name.startswith(prefix):
            continue
        rank = name[len(prefix):]
        s = histograms[name]
        if not s.get("count"):
            continue
        rows.append(
            f"{'rank ' + rank:<10} {int(s['count']):>8} "
            f"{s['mean'] * 1e6:>12.2f} {s['p50'] * 1e6:>12.2f} "
            f"{s['p99'] * 1e6:>12.2f} {s['max'] * 1e6:>12.2f}"
        )
    if not rows:
        return []
    header = (
        f"{'wait dwell':<10} {'blocks':>8} {'mean us':>12} {'p50 us':>12} "
        f"{'p99 us':>12} {'max us':>12}"
    )
    return [header] + rows


#: Counter prefix written by the match-set explorer (``repro verify``).
VERIFY_PREFIX = "verify."

#: Row order of the exploration table (raw counter name, row label).
_VERIFY_ROWS = (
    ("runs", "explorations"),
    ("states_explored", "states explored"),
    ("states_pruned", "states pruned (POR)"),
    ("memo_hits", "memoization hits"),
    ("transitions", "transitions"),
    ("deadlocks_found", "deadlocks found"),
    ("bound_exceeded", "bounds exceeded"),
)


def render_explore_table(snapshot: Mapping[str, object]) -> List[str]:
    """Match-set exploration effort (``verify.*`` counters), if any."""
    counters: Mapping[str, int] = snapshot.get("counters", {})  # type: ignore[assignment]
    values = _with_prefix(counters, VERIFY_PREFIX)
    if not values:
        return []
    # Routing/classification counters have their own table.
    values = {
        k: v
        for k, v in values.items()
        if not k.startswith(("fastpath.", "fragment."))
    }
    if not values:
        return []
    lines = [f"{'exploration':<24} {'count':>12}"]
    known = set()
    for key, label in _VERIFY_ROWS:
        known.add(key)
        if key in values:
            lines.append(f"{label:<24} {values[key]:>12,}")
    for key in sorted(values):
        if key not in known:
            lines.append(f"{key:<24} {values[key]:>12,}")
    return lines


#: Counter prefixes of the decidable-fragment fast path.
FASTPATH_PREFIX = "verify.fastpath."
FRAGMENT_PREFIX = "verify.fragment."


def render_classification_table(
    snapshot: Mapping[str, object]
) -> List[str]:
    """Fragment counts and fast-path hit rate, when a run carried
    classifier artifacts (``verify.fastpath.*`` / ``verify.fragment.*``
    counters)."""
    counters: Mapping[str, int] = snapshot.get("counters", {})  # type: ignore[assignment]
    fastpath = _with_prefix(counters, FASTPATH_PREFIX)
    fragments = _with_prefix(counters, FRAGMENT_PREFIX)
    if not fastpath and not fragments:
        return []
    lines = [f"{'fragment':<28} {'programs':>10}"]
    for label in sorted(fragments):
        lines.append(f"{label:<28} {fragments[label]:>10,}")
    hits = fastpath.get("hits", 0)
    misses = fastpath.get("misses", 0)
    routed = hits + misses
    if routed:
        rate = hits / routed * 100.0
        lines.append(
            f"{'fast-path hit rate':<28} "
            f"{hits}/{routed} ({rate:.1f}%)".rjust(0)
        )
    if "linear_ops" in fastpath:
        lines.append(
            f"{'ops linearly matched':<28} {fastpath['linear_ops']:>10,}"
        )
    if "deadlocks_found" in fastpath:
        lines.append(
            f"{'fast-path deadlocks':<28} "
            f"{fastpath['deadlocks_found']:>10,}"
        )
    return lines


#: Counter prefix written by the parameterized prover (``repro prove``).
PROVE_PREFIX = "prove."

#: Row order of the proof table (raw counter name, row label).
_PROVE_ROWS = (
    ("runs", "programs proved"),
    ("proved", "PROVED-ALL-P"),
    ("refuted", "REFUTED (min p found)"),
    ("unknown", "UNKNOWN"),
    ("undecidable", "UNDECIDABLE fragment"),
    ("sizes_checked", "sizes checked"),
    ("linear_ops", "ops linearly matched"),
    ("channels.always", "channels always-matched"),
    ("channels.never", "channels never-matched"),
    ("channels.p_dependent", "channels p-dependent"),
)


def render_prove_table(snapshot: Mapping[str, object]) -> List[str]:
    """Parameterized-proof effort (``prove.*`` counters), if any."""
    counters: Mapping[str, int] = snapshot.get("counters", {})  # type: ignore[assignment]
    values = _with_prefix(counters, PROVE_PREFIX)
    if not values:
        return []
    lines = [f"{'parameterized proof':<28} {'count':>12}"]
    known = set()
    for key, label in _PROVE_ROWS:
        known.add(key)
        if key in values:
            lines.append(f"{label:<28} {values[key]:>12,}")
    for key in sorted(values):
        if key not in known:
            lines.append(f"{key:<28} {values[key]:>12,}")
    return lines


def render_timeline_table(timeline: UnifiedTimeline) -> List[str]:
    """Per-clock-domain rows of the unified timeline."""
    rows = timeline.summary()
    if not rows:
        return []
    lines = [
        f"{'clock domain':<16} {'events':>8} {'span ms':>12} "
        f"{'offset ms':>12} {'pids':<12}"
    ]
    for row in rows:
        pids = ",".join(str(p) for p in row["pids"])
        lines.append(
            f"{row['clock']:<16} {row['events']:>8,} "
            f"{row['span_us'] / 1e3:>12.3f} {row['offset_us'] / 1e3:>12.3f} "
            f"{pids:<12}"
        )
    lines.append(
        f"{'unified (' + timeline.mode + ')':<16} "
        f"{len(timeline.events):>8,} {timeline.total_span_us / 1e3:>12.3f}"
    )
    return lines


def render_shard_table(snapshot: Mapping[str, object]) -> List[str]:
    """Per-shard rows of a sharded run (busy time, shipped events,
    per-shard drop counts) plus the round-skew summary, if any."""
    gauges: Mapping[str, Mapping[str, float]] = snapshot.get(
        "gauges", {}
    )  # type: ignore[assignment]
    counters: Mapping[str, int] = snapshot.get("counters", {})  # type: ignore[assignment]
    histograms: Mapping[str, Mapping[str, float]] = snapshot.get(
        "histograms", {}
    )  # type: ignore[assignment]
    shard_ids = sorted(
        int(name[len("backend.shard"):-len(".busy_seconds")])
        for name in gauges
        if name.startswith("backend.shard")
        and name.endswith(".busy_seconds")
    )
    if not shard_ids:
        return []
    lines = [
        f"{'shard':<7} {'busy ms':>10} {'queue peak':>11} {'events':>9} "
        f"{'dropped':>9}"
    ]
    for sid in shard_ids:
        busy = gauges.get(f"backend.shard{sid}.busy_seconds", {}).get(
            "value", 0.0
        )
        depth = gauges.get(f"backend.shard{sid}.queue_depth", {}).get(
            "value", 0.0
        )
        events = counters.get(f"obs.shard{sid}.events", 0)
        dropped = counters.get(f"obs.tracer.dropped.shard{sid}", 0)
        lines.append(
            f"{'s%d' % sid:<7} {busy * 1e3:>10.3f} {int(depth):>11,} "
            f"{events:>9,} {dropped:>9,}"
        )
    skew = histograms.get("obs.shard.skew", {})
    if skew.get("count"):
        lines.append(
            "round skew (max/mean busy): mean %.2f  p99 %.2f  max %.2f "
            "over %d round(s)" % (
                skew.get("mean", 0.0), skew.get("p99", 0.0),
                skew.get("max", 0.0), int(skew["count"]),
            )
        )
    return lines


def render_tracer_health(snapshot: Mapping[str, object]) -> List[str]:
    """Warning lines about dropped trace events, if any."""
    counters: Mapping[str, int] = snapshot.get("counters", {})  # type: ignore[assignment]
    dropped = counters.get("obs.tracer.dropped", 0)
    if not dropped:
        return []
    return [
        f"WARNING: tracer event limit hit -- {dropped:,} event(s) dropped; "
        "the artifact ends with a 'truncated' marker and analyses of it "
        "are incomplete"
    ]


def render_summary(snapshot: Mapping[str, object]) -> List[str]:
    """The full ``repro stats`` body: traffic, phases, wait states,
    and (when present) match-set exploration counters."""
    lines = ["-- tool message traffic (per message type) --"]
    lines += render_message_table(snapshot)
    lines.append("")
    lines.append("-- detection-time breakdown (Fig. 10(b)/11(b) phases) --")
    lines += render_phase_table(snapshot)
    waits = render_wait_table(snapshot)
    if waits:
        lines.append("")
        lines.append("-- wait-state dwell times --")
        lines += waits
    explore = render_explore_table(snapshot)
    if explore:
        lines.append("")
        lines.append("-- match-set exploration (repro verify) --")
        lines += explore
    classified = render_classification_table(snapshot)
    if classified:
        lines.append("")
        lines.append("-- decidable-fragment classification --")
        lines += classified
    proved = render_prove_table(snapshot)
    if proved:
        lines.append("")
        lines.append("-- parameterized proof (repro prove) --")
        lines += proved
    shardtab = render_shard_table(snapshot)
    if shardtab:
        lines.append("")
        lines.append("-- shard workers (sharded backend) --")
        lines += shardtab
    health = render_tracer_health(snapshot)
    if health:
        lines.append("")
        lines += health
    return lines
