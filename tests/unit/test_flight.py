"""The always-on flight recorder: bounded per-rank event rings."""
import pytest

from repro.mpi.blocking import BlockingSemantics
from repro.obs.flight import (
    NULL_FLIGHT_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
)
from repro.runtime import run_programs


class TestRing:
    def test_records_in_order_below_capacity(self):
        fr = FlightRecorder(capacity=8)
        for i in range(3):
            fr.record(0, f"e{i}", float(i))
        tail = fr.tail(0)
        assert [e["event"] for e in tail] == ["e0", "e1", "e2"]
        assert [e["seq"] for e in tail] == [0, 1, 2]
        assert fr.count(0) == 3
        assert fr.dropped(0) == 0

    def test_wraparound_keeps_last_n(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record(0, f"e{i}", float(i))
        tail = fr.tail(0)
        assert len(tail) == 4
        # Oldest-first, and only the newest four survive.
        assert [e["event"] for e in tail] == ["e6", "e7", "e8", "e9"]
        assert [e["seq"] for e in tail] == [6, 7, 8, 9]
        assert fr.count(0) == 10
        assert fr.dropped(0) == 6

    def test_wraparound_exact_multiple_of_capacity(self):
        fr = FlightRecorder(capacity=3)
        for i in range(6):
            fr.record(0, f"e{i}", float(i))
        assert [e["seq"] for e in fr.tail(0)] == [3, 4, 5]

    def test_ranks_are_independent(self):
        fr = FlightRecorder(capacity=2)
        fr.record(0, "a", 0.0)
        fr.record(1, "b", 0.0)
        fr.record(1, "c", 1.0)
        fr.record(1, "d", 2.0)
        assert fr.count(0) == 1 and fr.count(1) == 3
        assert fr.dropped(0) == 0 and fr.dropped(1) == 1
        assert sorted(fr.ranks()) == [0, 1]

    def test_detail_rendered_lazily_via_describe(self):
        class Op:
            def describe(self):
                return "MPI_Send(to=1)"

        fr = FlightRecorder(capacity=2)
        fr.record(0, "block", 1.0, Op())
        (entry,) = fr.tail(0)
        assert entry["detail"] == "MPI_Send(to=1)"

    def test_snapshot_filters_ranks(self):
        fr = FlightRecorder(capacity=2)
        fr.record(0, "a", 0.0)
        fr.record(1, "b", 0.0)
        snap = fr.snapshot([1])
        assert list(snap) == [1]
        assert snap[1][0]["event"] == "b"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestNullRecorder:
    def test_records_nothing(self):
        fr = NullFlightRecorder()
        fr.record(0, "a", 0.0)
        assert not fr.enabled
        assert fr.tail(0) == []
        assert fr.snapshot() == {}

    def test_shared_instance_is_disabled(self):
        assert not NULL_FLIGHT_RECORDER.enabled


def _ring_programs(p):
    def prog(r):
        right = (r.rank + 1) % r.size
        left = (r.rank - 1) % r.size
        yield r.send(dest=right, tag=0, nbytes=64)
        yield r.recv(source=left, tag=0, nbytes=64)
        yield r.finalize()

    return [prog] * p


class TestIntegration:
    def test_engine_flight_on_by_default(self):
        result = run_programs(
            _ring_programs(3), semantics=BlockingSemantics.relaxed()
        )
        assert result.flight is not None and result.flight.enabled
        # Every rank issued operations; issues are recorded.
        for rank in range(3):
            events = [e["event"] for e in result.flight.tail(rank)]
            assert "issue" in events

    def test_engine_flight_records_blocks_on_deadlock(self):
        result = run_programs(
            _ring_programs(3), semantics=BlockingSemantics()
        )
        assert result.deadlocked
        blocked = [
            e
            for rank in range(3)
            for e in result.flight.tail(rank)
            if e["event"] == "block"
        ]
        assert blocked

    def test_every_recorded_operation_has_one_issue_entry(self):
        # Persistent operations once bypassed the flight recorder: the
        # tail of this program was ``issue Wait, issue Finalize``.
        def prog(r):
            init = r.send_init if r.rank == 0 else r.recv_init
            handle = yield init(1 - r.rank, tag=1)
            yield r.start(handle)
            yield r.wait(handle)
            yield r.request_free(handle)
            yield r.finalize()

        result = run_programs(
            [prog] * 2, semantics=BlockingSemantics.relaxed()
        )
        for rank in range(2):
            ops = result.trace.sequence(rank)
            assert len(ops) == 5
            issued = [
                e["detail"] for e in result.flight.tail(rank)
                if e["event"] == "issue"
            ]
            assert issued == [op.describe() for op in ops]

    def test_engine_flight_opt_out(self):
        result = run_programs(
            _ring_programs(3),
            semantics=BlockingSemantics.relaxed(),
            flight=NullFlightRecorder(),
        )
        assert result.flight.tail(0) == []

    def test_detection_record_embeds_tails(self):
        from repro.core.detector import detect_deadlocks_distributed

        run = run_programs(
            _ring_programs(4), semantics=BlockingSemantics.relaxed()
        )
        outcome = detect_deadlocks_distributed(run.matched, fan_in=2)
        record = outcome.detection
        assert record.has_deadlock
        assert sorted(record.flight_tails) == sorted(outcome.deadlocked)
        for rank, tail in record.flight_tails.items():
            events = [e["event"] for e in tail]
            assert "blocked@detection" in events
        assert record.blame  # the blame chain rode along
        assert record.json_report is not None
        assert record.json_report["blame_chain"]
