"""The serve building blocks in isolation: envelope codec, job specs,
tenant quotas, and the worker pool."""
import socket
import threading
import time

import pytest

from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import (
    DONE,
    FAILED,
    Job,
    JobError,
    JobSpec,
    JobTable,
    QUEUED,
)
from repro.serve.pool import QueueFull, WorkerPool
from repro.serve.quotas import QuotaExceeded, TenantQuotas


class TestEnvelopes:
    def test_request_roundtrip(self):
        env = protocol.make_request("submit", "c1", workload="fig2a")
        parsed = protocol.parse_envelope(
            protocol.encode(env).decode("utf-8").strip()
        )
        assert parsed == env
        assert parsed["format"] == protocol.SERVE_FORMAT

    def test_response_and_error_shapes(self):
        ok = protocol.make_response("c1", {"job": "job-0001"})
        assert ok["ok"] and ok["result"]["job"] == "job-0001"
        err = protocol.make_error(
            "c1", "over-quota", "busy", retry_after=1.5
        )
        assert not err["ok"]
        assert err["error"]["retryable"] is True
        assert err["error"]["retry_after"] == 1.5
        fatal = protocol.make_error("c1", "not-found", "no such job")
        assert fatal["error"]["retryable"] is False

    def test_unknown_op_is_rejected_both_ways(self):
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.make_request("frobnicate", "c1")
        line = (
            '{"format": "repro-serve/1", "kind": "request", '
            '"id": "c1", "op": "frobnicate"}'
        )
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.parse_envelope(line)

    def test_bad_lines_are_protocol_errors(self):
        for line in (
            "not json",
            "[1, 2]",
            '{"format": "repro-serve/9", "kind": "request", "id": "x"}',
            '{"format": "repro-witness/1", "kind": "request", "id": "x"}',
            '{"format": "repro-serve/1", "kind": "telegram", "id": "x"}',
            '{"format": "repro-serve/1", "kind": "request", "id": ""}',
        ):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_envelope(line)

    def test_unknown_error_code_is_a_programming_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.make_error("c1", "teapot", "short and stout")


class TestClient:
    def test_peer_closing_mid_request_is_connection_closed(self):
        # The peer reads the request and hangs up without answering:
        # the client cannot know whether the request was admitted, so
        # this is its own fatal code, not the caller's bad-request.
        listener = socket.create_server(("127.0.0.1", 0))

        def hang_up():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as lines:
                lines.readline()

        peer = threading.Thread(target=hang_up)
        peer.start()
        try:
            with ServeClient(listener.getsockname(), timeout=10) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.ping()
        finally:
            peer.join(10)
            listener.close()
        assert not peer.is_alive()
        assert excinfo.value.code == "connection-closed"
        assert not excinfo.value.retryable
        assert "connection-closed" in protocol.FATAL_CODES


class TestJobSpec:
    def test_workload_spec(self):
        spec = JobSpec.from_request({"workload": "fig2a", "ranks": 2})
        assert spec.kind == "workload" and spec.ranks == 2

    def test_program_spec_with_analysis(self):
        spec = JobSpec.from_request(
            {"source": "x = 1", "analysis": "verify"}
        )
        assert spec.kind == "program" and spec.op == "verify"

    def test_trace_spec(self):
        assert JobSpec.from_request({"trace": {}}).kind == "trace"

    def test_empty_submit_is_rejected(self):
        with pytest.raises(JobError, match="one of"):
            JobSpec.from_request({})

    def test_verify_needs_a_program(self):
        with pytest.raises(JobError, match="program source"):
            JobSpec.from_request(
                {"workload": "fig2a", "analysis": "verify"}
            )

    def test_bad_ranks_is_rejected(self):
        with pytest.raises(JobError, match="ranks"):
            JobSpec.from_request({"workload": "fig2a", "ranks": 0})


class TestJobTable:
    def test_ids_are_sequential_and_lookup_works(self):
        table = JobTable()
        spec = JobSpec.from_request({"workload": "fig2a"})
        first = table.create("alice", spec)
        second = table.create("bob", spec)
        assert [first.id, second.id] == ["job-0001", "job-0002"]
        assert table.get("job-0002") is second
        assert table.get("nope") is None
        assert table.counts()[QUEUED] == 2


class TestTenantQuotas:
    def test_limit_enforced_per_tenant(self):
        quotas = TenantQuotas(2)
        quotas.acquire("a")
        quotas.acquire("a")
        quotas.acquire("b")  # other tenants unaffected
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.acquire("a")
        assert excinfo.value.retry_after > 0
        quotas.release("a")
        quotas.acquire("a")  # slot freed

    def test_snapshot_counts(self):
        quotas = TenantQuotas(4)
        quotas.acquire("a")
        quotas.acquire("a")
        quotas.release("a", latency=0.2)
        snap = quotas.snapshot()
        assert snap["a"]["submitted"] == 2
        assert snap["a"]["in_flight"] == 1
        assert snap["a"]["completed"] == 1


class TestWorkerPool:
    def test_jobs_run_and_complete(self):
        finished = []
        pool = WorkerPool(
            workers=2, queue_limit=8, on_complete=finished.append
        )
        table = JobTable()
        jobs = [
            table.create(
                "t", JobSpec.from_request({"workload": "fig2a", "ranks": 2})
            )
            for _ in range(3)
        ]
        for job in jobs:
            pool.submit(job)
        for job in jobs:
            assert job.done.wait(60)
            assert job.state == DONE
            assert job.result["verdict"] == "deadlock"
        assert len(finished) == 3
        assert pool.drain(timeout=30)

    def test_queue_full_rejects(self):
        pool = WorkerPool(workers=1, queue_limit=1)
        table = JobTable()
        spec = JobSpec.from_request({"source": "import time\ntime.sleep(0.5)\ndef w(rank):\n    yield rank.finalize()\nLINT_RANKS = 1\n"})
        blocker = table.create("t", spec)
        pool.submit(blocker)
        time.sleep(0.1)  # let the worker pick it up
        queued = table.create("t", spec)
        pool.submit(queued)
        overflow = table.create("t", spec)
        with pytest.raises(QueueFull) as excinfo:
            pool.submit(overflow)
        assert excinfo.value.retry_after > 0
        assert blocker.done.wait(30) and queued.done.wait(30)
        assert pool.drain(timeout=30)

    def test_failed_job_records_the_error(self):
        pool = WorkerPool(workers=1, queue_limit=4)
        table = JobTable()
        job = table.create(
            "t", JobSpec.from_request({"workload": "no-such-workload"})
        )
        pool.submit(job)
        assert job.done.wait(30)
        assert job.state == FAILED
        assert "unknown workload" in (job.error or "")
        assert pool.drain(timeout=30)

    def test_terminal_jobs_release_their_payload(self):
        from repro.api import Session
        from repro.mpi.serialize import matched_trace_to_dict
        from repro.workloads import fig2a_programs

        matched = Session().record(fig2a_programs()).matched
        trace = matched_trace_to_dict(matched)
        pool = WorkerPool(workers=1, queue_limit=4)
        table = JobTable()
        done = table.create("t", JobSpec.from_request({"trace": trace}))
        failed = table.create(
            "t", JobSpec.from_request({"source": "raise RuntimeError('x')\n"})
        )
        for job in (done, failed):
            assert job.spec.trace is not None or job.spec.source is not None
            before = job.status_doc()["spec"]
            pool.submit(job)
            assert job.done.wait(30)
            assert job.spec.trace is None and job.spec.source is None
            assert job.status_doc()["spec"] == before == job.spec.describe()
        assert done.state == DONE and done.result["deadlocked"] == [0, 1]
        assert failed.state == FAILED and failed.error
        assert pool.drain(timeout=30)

    def test_drain_is_idempotent_and_leaves_no_threads(self):
        pool = WorkerPool(workers=2, queue_limit=4)
        assert pool.drain(timeout=30)
        assert pool.drain(timeout=30)
        assert pool.running() == 0
        with pytest.raises(Exception):
            pool.submit(
                JobTable().create(
                    "t", JobSpec.from_request({"workload": "fig2a"})
                )
            )
