"""Unit tests for the observability subsystem (`repro.obs`)."""
import json

import pytest

from repro.obs import (
    NULL_OBSERVER,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Observer,
    Tracer,
    TraceEvent,
    make_observer,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.events import PID_ENGINE, PID_TBON
from repro.obs.exporters import chrome_trace_document, load_run
from repro.obs.stats import render_summary
from repro.util.errors import TraceError


class TestTracer:
    def test_instant_and_complete_record_events(self):
        tracer = Tracer()
        tracer.instant("newOp", cat="engine.op", pid=PID_ENGINE, tid=3,
                       ts=12.5, args={"ts": 0})
        tracer.complete("sync", cat="detection", ts=100.0, dur=50.0,
                        pid=PID_TBON, tid=0)
        assert len(tracer.events) == 2
        inst, comp = tracer.events
        assert (inst.ph, inst.ts, inst.tid) == ("i", 12.5, 3)
        assert (comp.ph, comp.ts, comp.dur) == ("X", 100.0, 50.0)

    def test_wall_clock_default_timestamps_are_monotonic(self):
        tracer = Tracer()
        tracer.instant("a", cat="c", pid=1, tid=0)
        tracer.instant("b", cat="c", pid=1, tid=0)
        a, b = tracer.events
        assert 0.0 <= a.ts <= b.ts

    def test_span_measures_duration(self):
        tracer = Tracer()
        with tracer.span("work", cat="engine", pid=PID_ENGINE, tid=0):
            pass
        (event,) = tracer.events
        assert event.ph == "X" and event.dur >= 0.0

    def test_negative_durations_clamped(self):
        tracer = Tracer()
        tracer.complete("x", cat="c", ts=5.0, dur=-1.0, pid=1, tid=0)
        assert tracer.events[0].dur == 0.0

    def test_event_limit_drops_and_counts(self):
        tracer = Tracer(limit=3)
        for i in range(5):
            tracer.instant(f"e{i}", cat="c", pid=1, tid=0, ts=float(i))
        # The limit keeps 3 events plus one final 'truncated' marker.
        assert len(tracer.events) == 4
        assert [e.name for e in tracer.events[:3]] == ["e0", "e1", "e2"]
        marker = tracer.events[-1]
        assert marker.name == "truncated" and marker.cat == "tracer"
        assert marker.args == {"limit": 3}
        assert tracer.dropped == 2

    def test_event_limit_increments_bound_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        tracer = Tracer(limit=2)
        metrics = MetricsRegistry()
        tracer.bind_metrics(metrics)
        for i in range(5):
            tracer.instant(f"e{i}", cat="c", pid=1, tid=0, ts=float(i))
        counters = metrics.snapshot()["counters"]
        assert counters["obs.tracer.dropped"] == 3
        # Only one truncation marker, no matter how many drops follow.
        assert [e.name for e in tracer.events].count("truncated") == 1

    def test_counter_events(self):
        tracer = Tracer()
        tracer.counter("queue", ts=1.0, pid=PID_TBON, values={"depth": 4})
        (event,) = tracer.events
        assert event.ph == "C" and event.args == {"depth": 4}


class TestNullBackend:
    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        tracer.instant("a", cat="c", pid=1, tid=0)
        tracer.complete("b", cat="c", ts=0.0, dur=1.0, pid=1, tid=0)
        tracer.counter("c", ts=0.0, pid=1, values={"v": 1})
        with tracer.span("d", cat="c", pid=1, tid=0):
            pass
        assert tracer.events == []
        assert not tracer.enabled

    def test_null_registry_snapshot_is_empty(self):
        registry = NullMetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 3.0)
        registry.observe("c", 1.0)
        registry.counter("a").inc(5)
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_observer_disabled(self):
        assert not NULL_OBSERVER.enabled
        assert not NULL_OBSERVER.tracer.enabled
        assert make_observer(False) is NULL_OBSERVER

    def test_make_observer_live(self):
        obs = make_observer()
        assert obs.enabled and isinstance(obs, Observer)
        obs.metrics.inc("x")
        assert obs.metrics.snapshot()["counters"] == {"x": 1}


class TestHistogram:
    def test_percentile_exact_on_known_data(self):
        h = Histogram()
        for v in [15, 20, 35, 40, 50]:
            h.observe(v)
        # Linear-interpolation ("inclusive") percentile definition.
        assert h.percentile(0) == 15
        assert h.percentile(100) == 50
        assert h.percentile(50) == 35
        assert h.percentile(25) == 20
        assert h.percentile(75) == 40
        # Interpolated point: rank (5-1)*0.40 = 1.6 -> 20 + 0.6*15.
        assert h.percentile(40) == pytest.approx(29.0)

    def test_percentile_single_value(self):
        h = Histogram()
        h.observe(7.0)
        for p in (0, 50, 99, 100):
            assert h.percentile(p) == 7.0

    def test_percentile_unsorted_input(self):
        h = Histogram()
        for v in [9, 1, 5, 3, 7]:
            h.observe(v)
        assert h.percentile(50) == 5

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)

    def test_out_of_range_percentile_raises(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_fields(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == pytest.approx(50.5)
        assert s["p99"] == pytest.approx(99.01)

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0, "sum": 0.0}

    def test_sorted_cache_survives_in_order_appends(self):
        # A query materializes the sorted cache; later in-order
        # observes must extend it rather than stale-serve old data.
        h = Histogram()
        for v in [1.0, 5.0, 3.0]:
            h.observe(v)
        assert h.percentile(100) == 5.0
        h.observe(7.0)  # >= cache max: appended in place
        h.observe(7.0)  # equal to cache max: still in order
        assert h.percentile(100) == 7.0
        assert h.summary()["max"] == 7.0

    def test_sorted_cache_invalidated_by_out_of_order_observe(self):
        h = Histogram()
        for v in [10.0, 20.0]:
            h.observe(v)
        assert h.percentile(50) == 15.0
        h.observe(1.0)  # < cache max: cache must be rebuilt
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 10.0

    def test_dump_preserves_insertion_order_after_queries(self):
        # dump_state ships raw observations in insertion order; the
        # percentile cache must never reorder the backing list.
        h = Histogram()
        values = [4.0, 1.0, 3.0, 2.0]
        for v in values:
            h.observe(v)
        h.percentile(50)
        h.observe(0.5)
        h.percentile(50)
        reg = MetricsRegistry()
        reg._histograms["h"] = h
        assert reg.dump_state()["histograms"]["h"] == values + [0.5]


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("msgs", 3)
        reg.inc("msgs")
        reg.set_gauge("depth", 5.0)
        reg.set_gauge("depth", 2.0)
        reg.observe("lat", 1.0)
        reg.observe("lat", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["msgs"] == 4
        assert snap["gauges"]["depth"] == {"value": 2.0, "max": 5.0}
        assert snap["histograms"]["lat"]["count"] == 2

    def test_counters_with_prefix(self):
        reg = MetricsRegistry()
        reg.inc("tbon.sent.PassSend", 7)
        reg.inc("tbon.sent.RecvActive", 2)
        reg.inc("other", 1)
        assert reg.counters_with_prefix("tbon.sent.") == {
            "PassSend": 7, "RecvActive": 2,
        }

    def test_merge_phase_breakdown(self):
        reg = MetricsRegistry()
        reg.merge_phase_breakdown({"synchronization": 0.5, "wfg_gather": 0.25})
        snap = reg.snapshot()["histograms"]
        assert snap["detection.phase.synchronization"]["sum"] == 0.5
        assert snap["detection.phase.wfg_gather"]["sum"] == 0.25

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("b", 2.0)
        json.dumps(reg.snapshot())

    def test_merge_state_round_trip(self):
        src = MetricsRegistry()
        src.inc("msgs", 3)
        src.set_gauge("depth", 4.0)
        src.observe("lat", 1.0)
        dst = MetricsRegistry()
        dst.inc("msgs", 2)
        dst.merge_state(src.dump_state())
        snap = dst.snapshot()
        assert snap["counters"]["msgs"] == 5
        assert snap["gauges"]["depth"]["max"] == 4.0
        assert snap["histograms"]["lat"]["count"] == 1

    def test_merge_state_empty_and_partial(self):
        reg = MetricsRegistry()
        reg.inc("msgs")
        reg.merge_state({})
        reg.merge_state({"counters": {}})
        assert reg.snapshot()["counters"]["msgs"] == 1

    def test_merge_state_ignores_unknown_kinds(self):
        # A newer worker may ship instrument kinds this coordinator
        # doesn't know; they must be skipped, not crash the join.
        reg = MetricsRegistry()
        reg.merge_state(
            {"counters": {"a": 1}, "summaries": {"x": [1, 2, 3]}}
        )
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 1
        assert "summaries" not in snap

    def test_merge_state_counter_gauge_name_collision(self):
        # The same dotted name can be a counter locally and a gauge in
        # a shard's dump: the kinds live in separate namespaces and
        # must merge independently.
        reg = MetricsRegistry()
        reg.inc("backend.shard0.busy", 2)
        reg.merge_state(
            {
                "counters": {"backend.shard0.busy": 3},
                "gauges": {"backend.shard0.busy": (1.5, 2.5)},
            }
        )
        snap = reg.snapshot()
        assert snap["counters"]["backend.shard0.busy"] == 5
        assert snap["gauges"]["backend.shard0.busy"] == {
            "value": 1.5, "max": 2.5,
        }

    def test_merge_state_gauge_high_water(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 9.0)
        reg.merge_state({"gauges": {"depth": (3.0, 5.0)}})
        gauge = reg.snapshot()["gauges"]["depth"]
        # Value keeps the later write; high-water takes the max.
        assert gauge == {"value": 3.0, "max": 9.0}


def test_engine_op_counters_cover_every_recorded_operation():
    # MPI_Request_free once reached the trace and no counter.
    from repro.runtime import run_programs

    def prog(r):
        init = r.send_init if r.rank == 0 else r.recv_init
        handle = yield init(1 - r.rank, tag=1)
        yield r.start(handle)
        yield r.wait(handle)
        yield r.request_free(handle)
        yield r.finalize()

    obs = make_observer()
    result = run_programs([prog] * 2, observer=obs)
    per_kind = obs.metrics.counters_with_prefix("engine.ops.")
    assert per_kind["REQUEST_FREE"] == 2
    assert sum(per_kind.values()) == result.trace.total_ops() == 10


class TestExporters:
    def _tracer(self):
        tracer = Tracer()
        tracer.instant("newOp", cat="engine.op", pid=PID_ENGINE, tid=1,
                       ts=1.0, args={"ts": 4})
        tracer.complete("sync", cat="detection", ts=2.0, dur=3.0,
                        pid=PID_TBON, tid=0)
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._tracer()
        path = tmp_path / "events.jsonl"
        write_jsonl(str(path), tracer)
        events = read_jsonl(str(path))
        assert events == tracer.events

    def test_jsonl_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a", "ts": 1}\nnot json\n')
        with pytest.raises(TraceError):
            read_jsonl(str(path))

    def test_chrome_trace_loads_with_json_load(self, tmp_path):
        path = tmp_path / "run.trace.json"
        write_chrome_trace(
            str(path), self._tracer(),
            metadata={"workload": "t", "deadlocked": False, "metrics": {}},
        )
        with open(path) as handle:
            doc = json.load(handle)
        assert isinstance(doc["traceEvents"], list)
        for event in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        # The engine, TBON, wait-state, and shard-coordinator rows are
        # named via metadata records.
        names = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(names) == 4

    def test_chrome_document_embeds_run_metadata(self):
        doc = chrome_trace_document(
            self._tracer(), metadata={"workload": "x", "metrics": {"a": 1}}
        )
        assert doc["repro"]["workload"] == "x"
        assert doc["repro"]["version"] == 1
        assert doc["repro"]["dropped_events"] == 0

    def test_load_run_validates(self, tmp_path):
        good = tmp_path / "good.json"
        write_chrome_trace(
            str(good), self._tracer(), metadata={"metrics": {}}
        )
        assert "traceEvents" in load_run(str(good))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(TraceError):
            load_run(str(bad))
        notjson = tmp_path / "notjson.json"
        notjson.write_text("{{{{")
        with pytest.raises(TraceError):
            load_run(str(notjson))
        no_meta = tmp_path / "nometa.json"
        no_meta.write_text('{"traceEvents": []}')
        with pytest.raises(TraceError):
            load_run(str(no_meta))

    def test_trace_event_round_trip(self):
        event = TraceEvent(name="n", cat="c", ph="X", ts=1.5, pid=2,
                           tid=3, dur=0.5, args={"k": "v"})
        assert TraceEvent.from_json(event.to_json()) == event


class TestStatsRendering:
    def test_summary_tables(self):
        reg = MetricsRegistry()
        reg.inc("tbon.sent.PassSend", 12)
        reg.inc("tbon.sent_bytes.PassSend", 576)
        reg.inc("tbon.recv.PassSend", 12)
        reg.merge_phase_breakdown({"synchronization": 0.5})
        text = "\n".join(render_summary(reg.snapshot()))
        assert "PassSend" in text
        assert "576" in text
        for phase in (
            "synchronization", "wfg_gather", "graph_build",
            "deadlock_check", "output_generation",
        ):
            assert phase in text

    def test_summary_empty_snapshot(self):
        text = "\n".join(render_summary(MetricsRegistry().snapshot()))
        assert "no tool messages recorded" in text


def test_phase_constant_fixed_and_alias_removed():
    from repro.perf import timers

    assert timers.PHASE_SYNCHRONIZATION == "synchronization"
    # The misspelled compatibility alias is gone.
    assert not hasattr(timers, "PHASE_SYNchronization")
    assert timers.ALL_PHASES[0] == timers.PHASE_SYNCHRONIZATION
