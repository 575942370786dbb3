"""The ``repro serve`` acceptance contract, end to end.

An in-process daemon (asyncio loop in a thread, ephemeral TCP port)
takes >= 8 concurrent jobs through a 2-worker pool with a per-tenant
quota of 4: every job completes with a verdict identical to an inline
``Session.run``, over-quota submissions come back as retryable
errors, the metrics endpoint reports queue depth and per-tenant
counters, a running job can be cancelled, and a drain leaves no orphan
workers — slot threads or worker processes.
"""
import asyncio
import json
import os
import threading
import time

import pytest

from repro.api import Session
from repro.serve import ReproService, ServeClient, ServeError, ServeSettings
from repro.workloads import fig2a_programs, fig2b_programs, stress_programs
from tests.procs import processes

#: Blocks at import time until the sentinel file appears — the lever
#: the backpressure tests use to hold worker slots deterministically.
BLOCKING_SOURCE = """\
import os
import time

while not os.path.exists({sentinel!r}):
    time.sleep(0.01)


def worker(rank):
    yield rank.finalize()


LINT_RANKS = 1
"""


def start_service(**overrides):
    defaults = dict(port=0, workers=2, quota=4, queue_limit=16)
    defaults.update(overrides)
    settings = ServeSettings(**defaults)
    service = ReproService(settings)
    ready = threading.Event()

    def run():
        async def main():
            await service.start()
            ready.set()
            await service.run_until_stopped()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "service did not start"
    assert service.address is not None
    return service, thread


def worker_pids(service):
    return [stats["pid"] for stats in service.pool.worker_stats()]


def orphans(pids):
    """Slot threads still alive, and those of the worker processes
    ``pids`` (listed before the drain) that still are processes."""
    threads = [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-serve-worker") and t.is_alive()
    ]
    return threads + sorted(set(pids) & set(processes()))


@pytest.fixture()
def daemon():
    service, thread = start_service()
    try:
        yield service
    finally:
        if not service._draining:
            with ServeClient(service.address) as client:
                client.shutdown()
        thread.join(30)
        assert not thread.is_alive(), "daemon did not drain"


def test_eight_concurrent_jobs_match_inline_verdicts(daemon):
    workloads = ["fig2a", "stress", "fig2b", "stress"]
    inline = {
        "fig2a": Session().run(fig2a_programs()),
        "fig2b": Session().run(fig2b_programs()),
        "stress": Session().run(stress_programs(4, iterations=20)),
    }
    submissions = []  # (tenant, workload, job_id) per client thread
    errors = []

    def submit_batch(tenant):
        try:
            with ServeClient(daemon.address) as client:
                for name in workloads:
                    job = client.submit(
                        tenant=tenant, workload=name, ranks=4
                    )
                    submissions.append((tenant, name, job))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=submit_batch, args=(tenant,))
        for tenant in ("alice", "bob")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not errors
    assert len(submissions) == 8

    with ServeClient(daemon.address) as client:
        for tenant, name, job_id in submissions:
            doc = client.result(job_id, wait=True, timeout=120)
            result = doc["result"]
            expected = inline[name]
            assert result["verdict"] == (
                "deadlock" if expected.has_deadlock else "clean"
            ), (tenant, name, job_id)
            assert result["deadlocked"] == list(expected.deadlocked)
        stats = client.stats()
    assert stats["jobs"]["done"] == 8
    for tenant in ("alice", "bob"):
        assert stats["tenants"][tenant]["submitted"] == 4
        assert stats["tenants"][tenant]["completed"] == 4
        assert stats["tenants"][tenant]["rejected"] == 0


def test_over_quota_submission_is_rejected_retryable(daemon, tmp_path):
    sentinel = str(tmp_path / "release")
    source = BLOCKING_SOURCE.format(sentinel=sentinel)
    with ServeClient(daemon.address) as client:
        held = [
            client.submit(tenant="hog", source=source, ranks=1)
            for _ in range(4)  # 2 running + 2 queued = the full quota
        ]
        with pytest.raises(ServeError) as excinfo:
            client.submit(tenant="hog", source=source, ranks=1)
        assert excinfo.value.code == "over-quota"
        assert excinfo.value.retryable
        assert excinfo.value.retry_after is not None
        # other tenants are unaffected by the hog's quota
        other = client.submit(tenant="polite", workload="fig2a", ranks=2)
        # queue depth is visible while jobs wait
        assert client.stats()["queue_depth"] >= 1
        (tmp_path / "release").write_text("go")
        for job_id in held:
            assert client.result(job_id, wait=True, timeout=60)[
                "result"
            ]["verdict"] == "clean"
        assert (
            client.result(other, wait=True, timeout=60)["result"]["verdict"]
            == "deadlock"
        )
        # with slots free again, the tenant is admitted
        retry = client.submit(tenant="hog", source=source, ranks=1)
        assert client.result(retry, wait=True, timeout=60)
        stats = client.stats()
    assert stats["tenants"]["hog"]["rejected"] == 1


def test_queue_backpressure(tmp_path):
    service, thread = start_service(workers=1, queue_limit=1, quota=10)
    sentinel = str(tmp_path / "release")
    source = BLOCKING_SOURCE.format(sentinel=sentinel)
    try:
        with ServeClient(service.address) as client:
            running = client.submit(tenant="t", source=source, ranks=1)
            deadline = time.time() + 10
            while client.stats()["running"] < 1:
                assert time.time() < deadline, "worker never started"
                time.sleep(0.02)
            queued = client.submit(tenant="t", source=source, ranks=1)
            with pytest.raises(ServeError) as excinfo:
                client.submit(tenant="t", source=source, ranks=1)
            assert excinfo.value.code == "queue-full"
            assert excinfo.value.retryable
            (tmp_path / "release").write_text("go")
            for job_id in (running, queued):
                client.result(job_id, wait=True, timeout=60)
            client.shutdown()
    finally:
        thread.join(30)
    assert not thread.is_alive()


def test_cancelled_and_rejected_jobs_release_their_payload(tmp_path):
    service, thread = start_service(workers=1, queue_limit=1, quota=10)
    sentinel = str(tmp_path / "release")
    source = BLOCKING_SOURCE.format(sentinel=sentinel)
    try:
        with ServeClient(service.address) as client:
            running = client.submit(tenant="t", source=source, ranks=1)
            deadline = time.time() + 10
            while client.stats()["running"] < 1:
                assert time.time() < deadline, "worker never started"
                time.sleep(0.02)
            queued = client.submit(tenant="t", source=source, ranks=1)
            with pytest.raises(ServeError):
                client.submit(tenant="t", source=source, ranks=1)
            client.cancel(queued)
            states = {job.id: job.state for job in service.jobs.all()}
            assert sorted(states.values()) == [
                "cancelled", "cancelled", "running"
            ]
            for job in service.jobs.all():
                held = job.spec.source is not None
                assert held == (job.id == running)
                assert job.status_doc()["spec"] == "program:analyze"
            (tmp_path / "release").write_text("go")
            client.result(running, wait=True, timeout=60)
            assert service.jobs.get(running).spec.source is None
            client.shutdown()
    finally:
        thread.join(30)
    assert not thread.is_alive()


def test_cancel_ends_a_running_job_and_its_slot_serves_on(tmp_path):
    service, thread = start_service(workers=1, quota=10)
    source = BLOCKING_SOURCE.format(sentinel=str(tmp_path / "never"))
    with ServeClient(service.address) as client:
        running = client.submit(tenant="t", source=source, ranks=1)
        deadline = time.time() + 10
        while client.stats()["running"] < 1:
            assert time.time() < deadline, "worker never started"
            time.sleep(0.02)
        (before,) = worker_pids(service)
        with ServeClient(service.address) as watcher:
            seen = []
            watching = threading.Thread(
                target=lambda: seen.extend(watcher.watch(running))
            )
            watching.start()
            while running not in service._watch_queues:
                assert time.time() < deadline, "watch never registered"
                time.sleep(0.02)
            assert client.cancel(running)["state"] == "cancelled"
            # The watch ends with the job, the wait with `not-done`.
            watching.join(10)
            assert seen[-1]["final"]["state"] == "cancelled"
        with pytest.raises(ServeError) as excinfo:
            client.result(running, wait=True, timeout=30)
        assert excinfo.value.code == "not-done"
        assert "cancelled" in str(excinfo.value)
        doc = client.status(running)
        assert doc["state"] == "cancelled" and "finished_at" in doc
        assert service.jobs.get(running).spec.source is None
        # Cancelling it again, or a finished job, is the caller's error.
        with pytest.raises(ServeError) as excinfo:
            client.cancel(running)
        assert excinfo.value.code == "bad-request"
        assert "only queued and running jobs cancel" in str(excinfo.value)
        # The slot has a new worker, the tenant its quota slot back.
        after = client.submit(tenant="t", workload="fig2a", ranks=2)
        assert client.result(after, wait=True, timeout=60)["result"][
            "deadlocked"
        ] == [0, 1]
        (stats,) = service.pool.worker_stats()
        assert stats["restarts"] == 1 and stats["pid"] != before
        tenant = client.stats()["tenants"]["t"]
        assert tenant["in_flight"] == 0
        assert "repro_serve_tenant_t_cancelled_total 1" in client.metrics()
        pids = worker_pids(service) + [before]
        client.shutdown()
    thread.join(30)
    assert not thread.is_alive(), "daemon did not drain"
    assert not orphans(pids)


def test_metrics_endpoint_reports_queue_and_tenants(daemon):
    with ServeClient(daemon.address) as client:
        job = client.submit(tenant="alice", workload="fig2a", ranks=2)
        client.result(job, wait=True, timeout=60)
        text = client.metrics()
    assert "# EOF" in text
    assert "repro_serve_queue_depth " in text
    assert "repro_serve_jobs_running " in text
    assert "repro_serve_tenant_alice_submitted_total 1" in text
    assert "repro_serve_tenant_alice_done_total 1" in text
    assert "repro_serve_quota_limit 4" in text


def test_uploaded_program_and_trace_jobs(daemon):
    from repro.mpi.serialize import matched_trace_to_dict

    deadlock_source = (
        "def worker(rank):\n"
        "    peer = 1 - rank.rank\n"
        "    yield rank.recv(source=peer)\n"
        "    yield rank.send(dest=peer)\n"
        "    yield rank.finalize()\n"
        "LINT_RANKS = 2\n"
    )
    run = Session().record(fig2a_programs())
    with ServeClient(daemon.address) as client:
        prog = client.submit(tenant="up", source=deadlock_source, ranks=2)
        trace = client.submit(
            tenant="up", trace=matched_trace_to_dict(run.matched)
        )
        verify = client.submit(
            tenant="up", source=deadlock_source, ranks=2, op="verify"
        )
        blame = client.submit(
            tenant="up", source=deadlock_source, ranks=2, op="blame"
        )
        assert (
            client.result(prog, wait=True)["result"]["deadlocked"] == [0, 1]
        )
        assert (
            client.result(trace, wait=True)["result"]["deadlocked"] == [0, 1]
        )
        verify_doc = client.result(verify, wait=True)["result"]
        assert verify_doc["programs"] == {"worker": "deadlock-possible"}
        blame_doc = client.result(blame, wait=True)["result"]
        assert blame_doc["root_causes"] == [0, 1]
        # Finished jobs drop their upload; every document still answers.
        assert daemon.jobs.get(trace).spec.trace is None
        assert daemon.jobs.get(prog).spec.source is None
        listed = {doc["job"]: doc for doc in client.jobs()["jobs"]}
        assert listed[trace]["spec"] == "trace:analyze"
        assert listed[trace]["state"] == "done"
        assert listed[blame]["spec"] == "program:blame"
        assert client.status(trace)["state"] == "done"
        assert (
            client.result(trace, wait=False)["result"]["deadlocked"] == [0, 1]
        )


def test_recorded_trace_over_64_kib_is_analyzed(daemon, tmp_path, capsys):
    """A recorded stress ring of 32 ranks is a 280 KB request line —
    over asyncio's default reader limit, which used to drop the
    connection. Through `repro submit`, as a user uploads it."""
    from repro.cli import main
    from repro.mpi.serialize import save_trace

    run = Session().record(stress_programs(32, iterations=20))
    path = tmp_path / "stress32.json"
    save_trace(run.matched, str(path))
    assert path.stat().st_size > 4 * 64 * 1024
    inline = Session().analyze(run.matched)

    host, port = daemon.address
    code = main(["submit", str(path), "--server", f"{host}:{port}"])
    out = capsys.readouterr().out
    assert code == 0 and ": clean" in out
    with ServeClient(daemon.address) as client:
        (job,) = client.jobs()["jobs"]
        result = client.result(job["job"], wait=True)["result"]
    assert result["num_ranks"] == 32
    assert result["deadlocked"] == list(inline.deadlocked) == []
    assert result["messages_sent"] == inline.messages_sent


def test_oversize_request_line_gets_a_structured_error(monkeypatch):
    from repro.serve import service as service_module

    monkeypatch.setattr(service_module, "MAX_REQUEST_BYTES", 4096)
    service, thread = start_service()
    try:
        with ServeClient(service.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.submit(tenant="big", trace={"pad": "x" * 20000})
            assert excinfo.value.code == "bad-request"
            assert not excinfo.value.retryable
            assert "4096 bytes" in str(excinfo.value)
            # The rest of the line was dropped: the connection is
            # still in step and still serving.
            assert client.ping()
            job = client.submit(tenant="big", workload="fig2a", ranks=2)
            assert client.result(job, wait=True)["result"]["deadlocked"] == [
                0, 1
            ]
            assert [j["job"] for j in client.jobs()["jobs"]] == [job]
    finally:
        with ServeClient(service.address) as client:
            client.shutdown()
        thread.join(30)
        assert not thread.is_alive(), "daemon did not drain"


def test_request_line_limit_is_exact_through_submit(
    monkeypatch, tmp_path, capsys
):
    """`repro submit trace.json` at exactly the limit is analyzed; one
    byte over is exit 2 with the error named, not a dropped socket."""
    from repro.cli import main
    from repro.mpi.serialize import save_trace
    from repro.serve import protocol, service as service_module

    path = tmp_path / "stress4.json"
    save_trace(Session().record(stress_programs(4, iterations=20)).matched,
               str(path))
    request = protocol.make_request(
        "submit", "c1", tenant="default", analysis="analyze", ranks=4,
        trace=json.loads(path.read_text()),
    )
    exact = len(protocol.encode(request)) - 1  # the newline is not counted
    assert protocol.MAX_REQUEST_BYTES == 64 * 1024 * 1024
    for limit, code in ((exact, 0), (exact - 1, 2)):
        monkeypatch.setattr(service_module, "MAX_REQUEST_BYTES", limit)
        service, thread = start_service()
        try:
            host, port = service.address
            argv = ["submit", str(path), "--server", f"{host}:{port}"]
            assert main(argv) == code
            said = capsys.readouterr()
            if code == 0:
                assert ": clean" in said.out
            else:
                assert (
                    "error: bad-request: request line exceeds "
                    f"{limit} bytes"
                ) in said.err
                assert "retryable" not in said.err
        finally:
            with ServeClient(service.address) as client:
                client.shutdown()
            thread.join(30)
            assert not thread.is_alive(), "daemon did not drain"


_JOB_STACK_CHILD = """
import json, sys
import repro.cli.serve, repro.serve.service  # what `repro serve` starts with
before = {m for m in sys.modules if m.startswith("repro")}
from repro.api import AnalysisConfig, Session
from repro.serve.jobs import Job, JobSpec, execute_job
source, trace = json.load(sys.stdin)
specs = [JobSpec(kind="workload", workload="fig2a", ranks=2),
         JobSpec(kind="trace", trace=trace)]
specs += [JobSpec(kind="program", op=op, source=source, ranks=2)
          for op in ("analyze", "verify", "blame")]
session = Session(AnalysisConfig(live=True))
codes = [execute_job(session, Job(id=f"job-{i}", tenant="t", spec=spec))
         ["exit_code"] for i, spec in enumerate(specs)]
after = {m for m in sys.modules if m.startswith("repro")}
print(json.dumps({"codes": codes, "added": sorted(after - before)}))
"""


def test_the_job_execution_stack_is_loaded_before_the_first_job():
    """One job of every kind, run the way a pool worker runs it, finds
    every ``repro`` module it needs already imported by daemon
    start-up: no import lands inside a job, on a worker thread."""
    import subprocess
    import sys
    from pathlib import Path

    from repro.mpi.serialize import matched_trace_to_dict

    source = (
        "def worker(rank):\n"
        "    peer = 1 - rank.rank\n"
        "    yield rank.recv(source=peer)\n"
        "    yield rank.send(dest=peer)\n"
        "    yield rank.finalize()\n"
        "LINT_RANKS = 2\n"
    )
    trace = matched_trace_to_dict(Session().record(fig2a_programs()).matched)
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _JOB_STACK_CHILD],
        input=json.dumps([source, trace]),
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [1, 1, 1, 1, 1]
    assert result["added"] == []


def test_watch_streams_live_windows(daemon):
    with ServeClient(daemon.address) as submitter:
        job = submitter.submit(tenant="w", workload="fig2a", ranks=2)
        with ServeClient(daemon.address) as watcher:
            seen = list(watcher.watch(job))
    assert seen, "watch yielded nothing"
    final = seen[-1]
    assert "final" in final
    assert final["final"]["state"] == "done"
    assert final["final"]["result"]["verdict"] == "deadlock"
    windows = [item for item in seen if "final" not in item]
    for window in windows:
        assert window["format"] == "repro-live/1"


def test_job_failure_and_not_found(daemon):
    with ServeClient(daemon.address) as client:
        job = client.submit(tenant="e", workload="no-such-workload")
        with pytest.raises(ServeError) as excinfo:
            client.result(job, wait=True, timeout=60)
        assert excinfo.value.code == "job-failed"
        assert "unknown workload" in str(excinfo.value)
        with pytest.raises(ServeError) as missing:
            client.status("job-9999")
        assert missing.value.code == "not-found"


def test_a_program_that_exits_fails_its_job_not_the_worker():
    # SystemExit is no Exception: it once ended the only worker thread,
    # left the job "running" for good and every later job queued.
    exits_at_import = "import sys\nsys.exit(3)\n"
    exits_in_a_rank = (
        "import sys\n"
        "def worker(rank):\n"
        "    sys.exit('bye')\n"
        "    yield rank.finalize()\n"
        "LINT_RANKS = 2\n"
    )
    service, thread = start_service(workers=1)
    with ServeClient(service.address) as client:
        for source, said in (
            (exits_at_import, "module exited during import"),
            (exits_in_a_rank, "program exited (exit code 'bye')"),
        ):
            hostile = client.submit(tenant="x", source=source, ranks=2)
            after = client.submit(tenant="x", workload="fig2a", ranks=2)
            with pytest.raises(ServeError) as excinfo:
                client.result(hostile, wait=True, timeout=60)
            assert excinfo.value.code == "job-failed"
            assert said in str(excinfo.value)
            assert client.status(hostile)["state"] == "failed"
            done = client.result(after, wait=True, timeout=60)
            assert done["result"]["deadlocked"] == [0, 1]
        pids = worker_pids(service)
        client.shutdown()
    thread.join(30)
    assert not thread.is_alive(), "daemon did not drain"
    assert not orphans(pids)


def test_drain_rejects_new_work_and_leaves_no_workers():
    service, thread = start_service()
    pids = worker_pids(service)
    assert len(pids) == 2 and all(os.getpgid(pid) == pid for pid in pids)
    with ServeClient(service.address) as client:
        job = client.submit(tenant="d", workload="fig2a", ranks=2)
        client.result(job, wait=True, timeout=60)
        client.shutdown()
        # a submit racing the drain gets the retryable draining error,
        # unless the drain closes the socket before answering it
        try:
            client.submit(tenant="d", workload="fig2a", ranks=2)
        except ServeError as exc:
            assert exc.code in ("draining", "connection-closed")
            assert exc.retryable == (exc.code == "draining")
        except Exception:
            pass  # listener may already be gone
    thread.join(30)
    assert not thread.is_alive()
    assert not orphans(pids)
