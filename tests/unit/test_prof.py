"""The BSP round profiler: rows, records, spans, and the document.

The profiler's in-worker half writes flat timing rows on the scored
busy path and the coordinator appends the round's traffic; everything
user-visible (record dicts, round/section spans, the
``repro-profile/1`` document) is materialized coordinator-side. These
tests pin the row→record→span→document chain so a slot shuffled in
the flat layout cannot silently misattribute a section.
"""
import pytest

from repro.obs.events import pid_of_shard
from repro.obs.observer import Observer
from repro.obs.prof import (
    PROFILE_FORMAT,
    ROUND_SECTIONS,
    ShardRoundProfiler,
    build_profile,
    render_profile,
    rows_to_records,
    spans_from_records,
    traffic_in,
    traffic_out,
)


def _profiled_round(prof, round_no, *, msgs_in=0, msgs_out=0):
    """One round's completed row: the worker's timing slots plus the
    traffic the coordinator counted (first-layer traffic from its own
    tree nodes, which sit outside every shard)."""
    prof.begin_round(round_no)
    for section in ROUND_SECTIONS:
        prof.begin_section(section)
        prof.end_section()
    for _ in range(msgs_out):
        prof.note_out(0.001)
    traffic = traffic_in([(99, 1, ("Ping", ()), 64)] * msgs_in, {})
    traffic_out(traffic, [(1, 99, ("Pong", ()), 32)] * msgs_out)
    return prof.end_round() + traffic


def test_rows_capture_sections_codec_and_sources():
    prof = ShardRoundProfiler(Observer())
    prof.begin_round(5)
    prof.begin_section("decode")
    prof.end_section()
    prof.note_out(0.25)
    row = prof.end_round()
    assert prof.end_round() is None  # closed
    # the coordinator's count: sources by producing shard, or "c"
    shard_of = {10: 0, 11: 2}
    traffic = traffic_in(
        [(3, 11, None, 100), (10, 11, None, 50), (4, 11, None, 10)],
        shard_of,
    )
    traffic_out(traffic, [(11, 10, None, 40)])
    (rec,) = rows_to_records(2, [row + traffic])
    assert rec["round"] == 5 and rec["shard"] == 2
    assert rec["msgs_in"] == 3 and rec["bytes_in"] == 160
    assert rec["msgs_out"] == 1 and rec["bytes_out"] == 40
    assert rec["sources"] == {"c": 2, "s0": 1}
    assert rec["encode_s"] >= 0.25  # note_out folds encode time in
    assert rec["decode_s"] >= 0.0
    assert rec["busy_s"] == pytest.approx(
        sum(rec[s + "_s"] for s in ROUND_SECTIONS)
    )
    assert rec["end_us"] >= rec["start_us"]


def test_round_row_then_materialize():
    prof = ShardRoundProfiler(Observer())
    row = _profiled_round(prof, 1, msgs_in=2, msgs_out=1)
    (rec,) = rows_to_records(0, [row])
    assert rec["round"] == 1 and rec["msgs_in"] == 2
    assert rec["msgs_out"] == 1 and rec["sources"] == {"c": 2}


def test_spans_from_records_layout():
    rec = {
        "round": 4, "shard": 1, "start_us": 100.0, "end_us": 400.0,
        "recv_s": 50e-6, "decode_s": 0.0, "step_s": 100e-6,
        "encode_s": 25e-6, "flush_s": 0.0,
        "busy_s": 175e-6, "msgs_in": 6, "bytes_in": 0,
        "msgs_out": 2, "bytes_out": 0, "sources": {},
    }
    spans = spans_from_records(1, [rec])
    names = [s.name for s in spans]
    # zero-duration sections (decode, flush) are skipped
    assert names == ["round 4", "recv", "step", "encode"]
    rnd = spans[0]
    assert rnd.cat == "shard.round" and rnd.ph == "X"
    assert rnd.pid == pid_of_shard(1) and rnd.tid == 0
    assert rnd.ts == pytest.approx(100.0)
    assert rnd.dur == pytest.approx(300.0)
    assert rnd.args == {"round": 4, "msgs_in": 6, "msgs_out": 2}
    # sections nest on tid 1, laid end to end from the round start
    sections = spans[1:]
    assert all(
        s.cat == "shard.section" and s.tid == 1 for s in sections
    )
    assert [s.ts for s in sections] == [
        pytest.approx(100.0), pytest.approx(150.0),
        pytest.approx(250.0),
    ]
    assert [s.dur for s in sections] == [
        pytest.approx(50.0), pytest.approx(100.0), pytest.approx(25.0)
    ]


def _record(round_no, shard, busy, msgs=1):
    per = busy / len(ROUND_SECTIONS)
    rec = {
        "round": round_no, "shard": shard,
        "start_us": round_no * 1e3, "end_us": round_no * 1e3 + 500,
        "busy_s": busy, "msgs_in": msgs, "bytes_in": 10 * msgs,
        "msgs_out": msgs, "bytes_out": 20 * msgs,
        "sources": {"c": msgs},
    }
    for s in ROUND_SECTIONS:
        rec[s + "_s"] = per
    return rec


def test_build_profile_attributes_critical_shard_and_skew():
    # round 1: shard 1 is critical (3x busy); round 2: shard 0
    round_records = {
        0: [_record(1, 0, 0.001), _record(2, 0, 0.004)],
        1: [_record(1, 1, 0.003), _record(2, 1, 0.002)],
    }
    observer = Observer()
    doc = build_profile(
        round_records=round_records,
        coord_rounds=[{"round": 1, "span_s": 0.01, "route_s": 0.002}],
        plan=[{"shard": 0, "ranks": 2}, {"shard": 1, "ranks": 2}],
        timing={"modeled_latency_seconds": 0.02},
        ranks=4,
        fan_in=2,
        dropped={1: 7},
        events={0: 10, 1: 20},
        observer=observer,
    )
    assert doc["format"] == PROFILE_FORMAT
    assert doc["run"] == {
        "shards": 2, "rounds": 2, "ranks": 4, "fan_in": 2
    }
    rounds = {e["round"]: e for e in doc["rounds"]}
    assert rounds[1]["critical_shard"] == 1
    assert rounds[2]["critical_shard"] == 0
    assert rounds[1]["skew"] == pytest.approx(0.003 / 0.002)
    assert rounds[1]["coordinator"]["span_ms"] == pytest.approx(10.0)
    # whole-run critical shard: s0 (5ms) over s1 (5ms) ties break low,
    # but here s0 = 5ms vs s1 = 5ms -> equal totals pick the lowest id
    assert doc["critical_shard"] == 0
    assert doc["shards"]["0"]["critical_rounds"] == [2]
    assert doc["shards"]["1"]["critical_rounds"] == [1]
    assert doc["shards"]["1"]["dropped_events"] == 7
    assert doc["shards"]["1"]["events"] == 20
    # codec totals sum across every shard and round
    total_busy_ms = (0.001 + 0.004 + 0.003 + 0.002) * 1e3
    per_section = total_busy_ms / len(ROUND_SECTIONS)
    assert doc["codec"]["encode_ms"] == pytest.approx(per_section)
    assert doc["codec"]["decode_ms"] == pytest.approx(per_section)
    assert doc["codec"]["messages"] == 4
    assert doc["codec"]["bytes_in"] == 40
    assert doc["codec"]["bytes_out"] == 80
    # per-round skew lands in the obs.shard.skew histogram
    skews = observer.metrics.dump_state()["histograms"]["obs.shard.skew"]
    assert len(skews) == 2


def test_render_profile_smoke():
    round_records = {0: [_record(1, 0, 0.001)]}
    doc = build_profile(
        round_records=round_records,
        coord_rounds=[],
        plan=[{"shard": 0, "ranks": 2}],
        timing={"modeled_latency_seconds": 0.01,
                "coordinator_busy_seconds": 0.002},
        ranks=2,
        fan_in=1,
        dropped={},
        events={},
    )
    lines = render_profile(doc)
    text = "\n".join(lines)
    assert "-- sharded run profile --" in text
    assert "-- per-shard totals --" in text
    assert "-- critical-shard timeline (per BSP round) --" in text
    assert "-- codec breakdown --" in text
    assert "critical shard (whole run): s0" in text
