"""The BSP round profiler for the sharded backend.

Each shard worker runs a :class:`ShardRoundProfiler` that times the
five sections of a BSP round — ``recv`` (delivering decoded wire
messages), ``decode``, ``step`` (pumping the local network), ``encode``
(wire-encoding outbound messages), ``flush`` — and answers each round
with the closed row. The coordinator completes the row with the
round's traffic, which it counts itself as it ships the shard's batch
(:func:`traffic_in`) and routes the shard's output
(:func:`traffic_out`): every cross-process message passes through its
hands, so nothing rides the wire for this. :func:`build_profile` folds
the rows, together with the coordinator's own round spans, into the
versioned ``repro-profile/1`` document that ``repro profile`` renders:

* per-round **critical-shard attribution** — which shard's busy time
  bounded that round of ``modeled_latency_seconds`` (the max term in
  ``coordinator_busy + max(shard_busy)``, viewed round by
  round), and
* per-round **skew** — max/mean busy across shards, the imbalance
  signal the ROADMAP's adaptive re-sharding item needs (also observed
  into the ``obs.shard.skew`` histogram).
"""
from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.docs import format_tag
from repro.obs.events import TraceEvent, pid_of_shard
from repro.obs.observer import Observer

#: Timed sections of one BSP round, in execution order.
ROUND_SECTIONS = ("recv", "decode", "step", "encode", "flush")

#: Version tag of the profile document (registry-owned).
PROFILE_FORMAT = format_tag("profile")


# Row layout of one round. A flat list with integer indexes keeps the
# worker's per-round hot path to list-index arithmetic;
# rows_to_records materializes the dict form on the coordinator. The
# worker writes the timing slots, the coordinator appends the traffic
# slots.
_R_ROUND = 0
_R_START = 1
_R_RECV = 2
_R_DECODE = 3
_R_STEP = 4
_R_ENCODE = 5
_R_FLUSH = 6
_R_END = 7
_R_MSGS_IN = 8
_R_BYTES_IN = 9
_R_MSGS_OUT = 10
_R_BYTES_OUT = 11
_R_SOURCES = 12

_SECTION_SLOT = {
    "recv": _R_RECV,
    "decode": _R_DECODE,
    "step": _R_STEP,
    "encode": _R_ENCODE,
    "flush": _R_FLUSH,
}

#: The ``sources`` key of traffic the coordinator's own nodes sent.
_FROM_COORDINATOR = -1


class ShardRoundProfiler:
    """Per-round section timing inside one worker.

    Only constructed when the run traces across shards; the disabled
    path never touches this class, keeping the zero-cost default. The
    in-round methods run inside the busy-time windows the <5% tracing
    bound is scored on, so they do nothing but clock reads and list
    writes; the round/section *trace spans* are not emitted here at
    all — :func:`spans_from_records` rebuilds them on the coordinator
    from the rows.
    """

    def __init__(self, observer: Observer) -> None:
        self.observer = observer
        self._row: Optional[list] = None
        self._slot = 0
        self._section_t0 = 0.0

    def begin_round(self, round_no: int) -> None:
        self._row = [
            round_no, self.observer.tracer.now_us(),
            0.0, 0.0, 0.0, 0.0, 0.0,   # section seconds
            0.0,                       # end_us
        ]

    def begin_section(self, name: str) -> None:
        """Start timing ``name``, closing the open section if any."""
        self.end_section()
        self._slot = _SECTION_SLOT[name]
        self._section_t0 = time.perf_counter()

    def end_section(self) -> None:
        row = self._row
        if row is None or not self._slot:
            return
        row[self._slot] += time.perf_counter() - self._section_t0
        self._slot = 0

    def note_out(self, encode_seconds: float) -> None:
        """Account one outbound message's encode time."""
        row = self._row
        if row is not None:
            row[_R_ENCODE] += encode_seconds

    def end_round(self) -> Optional[list]:
        """Close the round and hand over its timing row."""
        self.end_section()
        row = self._row
        if row is not None:
            row[_R_END] = self.observer.tracer.now_us()
            self._row = None
        return row


def traffic_in(
    batch: Sequence[Sequence[Any]], shard_of: Mapping[int, int]
) -> list:
    """The traffic slots of a shard's round row, as the coordinator
    ships it ``batch`` (``(src, dst, wire, size)`` entries): messages,
    bytes and per-source counts in (``shard_of[src]``, or the
    coordinator for a source outside the first layer), nothing out
    yet."""
    sources: Dict[int, int] = {}
    for entry in batch:
        src = shard_of.get(entry[0], _FROM_COORDINATOR)
        sources[src] = sources.get(src, 0) + 1
    return [len(batch), sum(entry[3] for entry in batch), 0, 0, sources]


def traffic_out(traffic: list, batch: Sequence[Sequence[Any]]) -> None:
    """Credit one routed output ``batch`` of the shard to ``traffic``."""
    traffic[_R_MSGS_OUT - _R_MSGS_IN] += len(batch)
    traffic[_R_BYTES_OUT - _R_MSGS_IN] += sum(entry[3] for entry in batch)


def rows_to_records(
    shard_id: int, rows: Sequence[Sequence[Any]]
) -> List[Dict[str, Any]]:
    """Materialize completed rows (timing slots plus
    :func:`traffic_in` slots) into the record dicts the profile
    document builder consumes."""
    out = []
    for row in rows:
        out.append({
            "round": row[_R_ROUND],
            "shard": shard_id,
            "start_us": row[_R_START],
            "end_us": row[_R_END],
            "recv_s": row[_R_RECV],
            "decode_s": row[_R_DECODE],
            "step_s": row[_R_STEP],
            "encode_s": row[_R_ENCODE],
            "flush_s": row[_R_FLUSH],
            "busy_s": row_busy_seconds(row),
            "msgs_in": row[_R_MSGS_IN],
            "bytes_in": row[_R_BYTES_IN],
            "msgs_out": row[_R_MSGS_OUT],
            "bytes_out": row[_R_BYTES_OUT],
            "sources": {
                ("c" if src == _FROM_COORDINATOR else "s%d" % src): n
                for src, n in sorted(row[_R_SOURCES].items())
            },
        })
    return out


def row_busy_seconds(row: Sequence[Any]) -> float:
    """Total busy seconds of one profiler row (all timed sections).

    The live monitor folds rows into per-shard busy totals on the
    coordinator without materializing the dict records."""
    return (
        row[_R_RECV] + row[_R_DECODE] + row[_R_STEP]
        + row[_R_ENCODE] + row[_R_FLUSH]
    )


def spans_from_records(
    shard_id: int, records: Sequence[Mapping[str, Any]]
) -> List["TraceEvent"]:
    """Rebuild the round + section trace spans from the records.

    Emitting these spans inside the worker would put ~6 trace-event
    constructions per round on the scored busy path; the records
    already carry every field, and their stamps are on the
    coordinator's clock, so the coordinator synthesizes the spans.
    One enclosing span per round, with the sections nested inside it
    laid end to end in execution order (encode time is really
    interleaved with step/flush; presenting it as one consolidated
    sub-span keeps the track readable).
    """
    pid = pid_of_shard(shard_id)
    spans: List[TraceEvent] = []
    for rec in records:
        start = rec["start_us"]
        spans.append(
            TraceEvent(
                name="round %d" % rec["round"],
                cat="shard.round",
                ph="X",
                ts=start,
                pid=pid,
                tid=0,
                dur=max(rec["end_us"] - rec["start_us"], 0.0),
                args={
                    "round": rec["round"],
                    "msgs_in": rec["msgs_in"],
                    "msgs_out": rec["msgs_out"],
                },
            )
        )
        cursor = start
        for section in ROUND_SECTIONS:
            dur_us = rec[section + "_s"] * 1e6
            if dur_us <= 0.0:
                continue
            spans.append(
                TraceEvent(
                    name=section,
                    cat="shard.section",
                    ph="X",
                    ts=cursor,
                    pid=pid,
                    tid=1,
                    dur=dur_us,
                    args={"round": rec["round"]},
                )
            )
            cursor += dur_us
    return spans


# ----------------------------------------------------------------------
# profile document
# ----------------------------------------------------------------------


def _round_entry(
    round_no: int,
    shard_recs: Mapping[int, Mapping[str, Any]],
    coord: Mapping[str, Any],
) -> Dict[str, Any]:
    busy = {sid: rec["busy_s"] for sid, rec in shard_recs.items()}
    critical = min(
        (sid for sid in busy if busy[sid] == max(busy.values())),
        default=None,
    )
    mean_busy = sum(busy.values()) / len(busy) if busy else 0.0
    skew = (max(busy.values()) / mean_busy) if mean_busy > 0 else 1.0
    return {
        "round": round_no,
        "critical_shard": critical,
        "skew": skew,
        "coordinator": {
            "span_ms": coord.get("span_s", 0.0) * 1e3,
            "route_ms": coord.get("route_s", 0.0) * 1e3,
        },
        "shards": {
            str(sid): {
                "busy_ms": rec["busy_s"] * 1e3,
                **{
                    s + "_ms": rec[s + "_s"] * 1e3
                    for s in ROUND_SECTIONS
                },
                "msgs_in": rec["msgs_in"],
                "msgs_out": rec["msgs_out"],
                "bytes_in": rec["bytes_in"],
                "bytes_out": rec["bytes_out"],
                "sources": dict(rec["sources"]),
            }
            for sid, rec in sorted(shard_recs.items())
        },
    }


def build_profile(
    *,
    round_records: Mapping[int, Sequence[Mapping[str, Any]]],
    coord_rounds: Sequence[Mapping[str, Any]],
    plan: Sequence[Mapping[str, Any]],
    timing: Mapping[str, Any],
    ranks: int,
    fan_in: int,
    dropped: Mapping[int, int],
    events: Mapping[int, int],
    observer: Optional[Observer] = None,
) -> Dict[str, Any]:
    """Fold the round records into a ``repro-profile/1`` document.

    ``round_records`` maps shard id → its round records;
    ``coord_rounds`` is the coordinator's own per-round accounting
    (``round``, ``span_s``, ``route_s``). When ``observer`` is given,
    per-round skew is observed into the ``obs.shard.skew`` histogram.
    """
    by_round: Dict[int, Dict[int, Mapping[str, Any]]] = {}
    for sid, recs in round_records.items():
        for rec in recs:
            by_round.setdefault(rec["round"], {})[sid] = rec
    coord_by_round = {c["round"]: c for c in coord_rounds}

    rounds = [
        _round_entry(rno, by_round[rno], coord_by_round.get(rno, {}))
        for rno in sorted(by_round)
    ]
    if observer is not None and observer.enabled:
        for entry in rounds:
            observer.metrics.observe("obs.shard.skew", entry["skew"])

    shard_ids = sorted(round_records)
    shards: Dict[str, Any] = {}
    for sid in shard_ids:
        recs = round_records[sid]
        critical_rounds = [
            e["round"] for e in rounds if e["critical_shard"] == sid
        ]
        shards[str(sid)] = {
            "busy_ms": sum(r["busy_s"] for r in recs) * 1e3,
            **{
                s + "_ms": sum(r[s + "_s"] for r in recs) * 1e3
                for s in ROUND_SECTIONS
            },
            "msgs_in": sum(r["msgs_in"] for r in recs),
            "msgs_out": sum(r["msgs_out"] for r in recs),
            "bytes_in": sum(r["bytes_in"] for r in recs),
            "bytes_out": sum(r["bytes_out"] for r in recs),
            "critical_rounds": critical_rounds,
            "dropped_events": dropped.get(sid, 0),
            "events": events.get(sid, 0),
        }

    total_busy = {
        sid: sum(r["busy_s"] for r in round_records[sid])
        for sid in shard_ids
    }
    critical_shard = min(
        (s for s in total_busy if total_busy[s] == max(total_busy.values())),
        default=None,
    )

    codec = {
        "encode_ms": sum(
            r["encode_s"] for recs in round_records.values() for r in recs
        ) * 1e3,
        "decode_ms": sum(
            r["decode_s"] for recs in round_records.values() for r in recs
        ) * 1e3,
        "bytes_in": sum(s["bytes_in"] for s in shards.values()),
        "bytes_out": sum(s["bytes_out"] for s in shards.values()),
        "messages": sum(s["msgs_in"] for s in shards.values()),
    }

    return {
        "format": PROFILE_FORMAT,
        "run": {
            "shards": len(shard_ids),
            "rounds": len(rounds),
            "ranks": ranks,
            "fan_in": fan_in,
        },
        "plan": list(plan),
        "rounds": rounds,
        "shards": shards,
        "codec": codec,
        "timing": dict(timing),
        "critical_shard": critical_shard,
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def render_profile(doc: Mapping[str, Any]) -> List[str]:
    """Human-readable tables for a ``repro-profile/1`` document."""
    run = doc.get("run", {})
    timing = doc.get("timing", {})
    lines = [
        "-- sharded run profile --",
        "shards: %d   rounds: %d   ranks: %d   fan-in: %d" % (
            run.get("shards", 0), run.get("rounds", 0),
            run.get("ranks", 0), run.get("fan_in", 0),
        ),
    ]
    if timing:
        lines.append(
            "modeled latency: %.3f ms   coordinator busy: %.3f ms" % (
                timing.get("modeled_latency_seconds", 0.0) * 1e3,
                timing.get("coordinator_busy_seconds", 0.0) * 1e3,
            )
        )
    if doc.get("critical_shard") is not None:
        lines.append("critical shard (whole run): s%d" % doc["critical_shard"])

    shards = doc.get("shards", {})
    if shards:
        lines.append("")
        lines.append("-- per-shard totals --")
        lines.append(
            f"{'shard':<7} {'busy ms':>10} {'recv':>8} {'decode':>8} "
            f"{'step':>8} {'encode':>8} {'flush':>8} {'msgs in':>9} "
            f"{'msgs out':>9} {'crit rounds':>12} {'dropped':>8}"
        )
        for sid in sorted(shards, key=int):
            s = shards[sid]
            lines.append(
                f"{'s' + sid:<7} {s['busy_ms']:>10.3f} "
                f"{s['recv_ms']:>8.3f} {s['decode_ms']:>8.3f} "
                f"{s['step_ms']:>8.3f} {s['encode_ms']:>8.3f} "
                f"{s['flush_ms']:>8.3f} {s['msgs_in']:>9,} "
                f"{s['msgs_out']:>9,} {len(s['critical_rounds']):>12} "
                f"{s['dropped_events']:>8,}"
            )

    rounds = doc.get("rounds", [])
    if rounds:
        lines.append("")
        lines.append("-- critical-shard timeline (per BSP round) --")
        lines.append(
            f"{'round':<7} {'critical':>9} {'busy ms':>10} {'skew':>7} "
            f"{'coord ms':>10} {'route ms':>10}"
        )
        for entry in rounds:
            crit = entry["critical_shard"]
            crit_label = "s%d" % crit if crit is not None else "-"
            busy = 0.0
            if crit is not None:
                busy = entry["shards"][str(crit)]["busy_ms"]
            coord = entry.get("coordinator", {})
            lines.append(
                f"{entry['round']:<7} {crit_label:>9} {busy:>10.3f} "
                f"{entry['skew']:>7.2f} "
                f"{coord.get('span_ms', 0.0):>10.3f} "
                f"{coord.get('route_ms', 0.0):>10.3f}"
            )

    codec = doc.get("codec", {})
    if codec:
        lines.append("")
        lines.append("-- codec breakdown --")
        lines.append(
            "encode: %.3f ms   decode: %.3f ms   messages: %s   "
            "bytes in/out: %s / %s" % (
                codec.get("encode_ms", 0.0),
                codec.get("decode_ms", 0.0),
                f"{codec.get('messages', 0):,}",
                f"{codec.get('bytes_in', 0):,}",
                f"{codec.get('bytes_out', 0):,}",
            )
        )
    return lines
