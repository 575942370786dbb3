"""The kill matrix: what a hosted process can do to the daemon and to
the sharded coordinator, case by case.

Serve: uploaded programs that spin, ``os._exit``, fork, leave a
subprocess behind, raise at import or allocate past the address-space
cap, a worker process ``SIGKILL``\\ ed or ``SIGSTOP``\\ ped mid-job, and
the daemon ``SIGKILL``\\ ed under a running job. Sharded: one shard worker
``SIGKILL``\\ ed or ``SIGSTOP``\\ ped mid-round, on its own and inside a
serve job. Every case asserts a structured error within 5 s (the
deadline is shortened to 1 s), that the next job on the same slot
succeeds, that the drain completes, and that no process the case
started — child of this process or member of a worker's process group —
is left. Each test runs under a 60 s alarm, so a regression hangs one
test, not the suite.
"""
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import Session
from repro.backend import sharded, worker
from repro.serve import ServeClient, ServeError
from repro.util.errors import ProtocolError
from repro.workloads.named import NAMED_WORKLOADS

from tests.integration.test_serve import BLOCKING_SOURCE, start_service
from tests.procs import kernel_grants, processes

DEADLINE = 1.0

_PROGRAM_TAIL = "\ndef worker(rank):\n    yield rank.finalize()\nLINT_RANKS = 1\n"

#: One allocation past a serve worker's ``RLIMIT_AS``.
_PAST_CAP = worker.ADDRESS_SPACE_BYTES + (1 << 30)

#: case -> (what the upload does at import, what the error must say;
#: None where the job must simply succeed).
HOSTILE = {
    "spin": ("while True:\n    pass\n", "exceeded its 1 s deadline"),
    "os-exit": ("import os\nos._exit(3)\n", "exited with code 3"),
    "raise": ("raise RuntimeError('boom')\n", "boom"),
    # A calloc sized past the serve cap and within what the kernel
    # commits without one (asserted in the case): only the cap can
    # refuse it, and untouched it is never resident on a tree with none.
    "allocate": ("big = bytes(%d)\n" % _PAST_CAP, "MemoryError"),
    # A copy of a worker exits at once: the upload gets a dead child.
    "fork": (
        "import os, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    while True:\n"
        "        time.sleep(1)\n"
        "assert os.waitpid(pid, 0)[1] != 0\n",
        None,
    ),
    # What it execs instead lives in the worker's process group.
    "subprocess": (
        "import subprocess\n"
        "subprocess.Popen(['sleep', '1000'])\n",
        None,
    ),
    "subprocess-and-wait": (
        "import subprocess\n"
        "subprocess.run(['sleep', '1000'])\n",
        "exceeded its 1 s deadline",
    ),
}


@pytest.fixture(autouse=True)
def alarm():
    def ring(signum, frame):
        raise TimeoutError("kill-matrix case ran over 60 s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def strays():
    """Collects the process groups a case creates; afterwards nothing
    may be left in them, and this process may have no child it did not
    have before — alive or waiting to be reaped."""
    before = {
        pid for pid, (ppid, _) in processes().items() if ppid == os.getpid()
    }
    groups = set()
    yield groups
    deadline = time.monotonic() + 5  # a SIGKILL is delivered, not awaited
    while True:
        left = {
            pid: entry
            for pid, entry in processes().items()
            if (entry[0] == os.getpid() and pid not in before)
            or entry[1] in groups
        }
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    assert not left, f"processes left behind: {left}"
    if not before:
        with pytest.raises(ChildProcessError):  # not even a zombie
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def one_slot(strays):
    """A daemon with one worker and a 1 s job deadline; the drain after
    the case must complete."""
    service, thread = start_service(workers=1, job_deadline=DEADLINE)
    strays.add(service.pool.worker_stats()[0]["pid"])
    try:
        yield service
    finally:
        strays.update(s["pid"] for s in service.pool.worker_stats())
        with ServeClient(service.address) as client:
            client.shutdown()
        thread.join(30)
        assert not thread.is_alive(), "daemon did not drain"


def _fails_within_5s(client, job, said):
    t0 = time.monotonic()
    with pytest.raises(ServeError) as excinfo:
        client.result(job, wait=True, timeout=30)
    assert time.monotonic() - t0 < 5
    assert excinfo.value.code == "job-failed"
    assert said in str(excinfo.value)
    assert client.status(job)["state"] == "failed"


def _next_job_succeeds(client):
    job = client.submit(tenant="next", workload="fig2a", ranks=2)
    doc = client.result(job, wait=True, timeout=30)
    assert doc["result"]["deadlocked"] == [0, 1]


def _wait_running(client):
    deadline = time.monotonic() + 10
    while client.stats()["running"] < 1:
        assert time.monotonic() < deadline, "worker never started"
        time.sleep(0.01)


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_upload_fails_its_job_only(one_slot, case):
    body, said = HOSTILE[case]
    if case == "allocate":  # else a MemoryError would show no cap
        assert kernel_grants(_PAST_CAP), (
            "the kernel refuses %d bytes without a cap: the upload cannot "
            "tell ADDRESS_SPACE_BYTES from the machine" % _PAST_CAP
        )
    with ServeClient(one_slot.address) as client:
        job = client.submit(tenant="x", source=body + _PROGRAM_TAIL, ranks=1)
        if said is None:
            doc = client.result(job, wait=True, timeout=30)
            assert doc["result"]["verdict"] == "clean"
        else:
            _fails_within_5s(client, job, said)
        _next_job_succeeds(client)
        (stats,) = one_slot.pool.worker_stats()
        died = case in ("spin", "os-exit", "subprocess-and-wait")
        assert stats["restarts"] == (1 if died else 0)
        assert ("repro_serve_worker_restarts %d" % died) in client.metrics()


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGSTOP])
def test_a_signalled_serve_worker_fails_its_job_only(one_slot, tmp_path, sig):
    source = BLOCKING_SOURCE.format(sentinel=str(tmp_path / "never"))
    with ServeClient(one_slot.address) as client:
        job = client.submit(tenant="x", source=source, ranks=1)
        _wait_running(client)
        (stats,) = one_slot.pool.worker_stats()
        os.kill(stats["pid"], sig)
        _fails_within_5s(
            client, job,
            "killed by SIGKILL" if sig == signal.SIGKILL
            else "exceeded its 1 s deadline",
        )
        _next_job_succeeds(client)
        (after,) = one_slot.pool.worker_stats()
        assert after["restarts"] == 1 and after["pid"] != stats["pid"]


def test_a_worker_killed_while_idle_costs_no_job(one_slot):
    with ServeClient(one_slot.address) as client:
        _next_job_succeeds(client)
        pid = one_slot.pool.worker_stats()[0]["pid"]
        os.kill(pid, signal.SIGKILL)
        while pid in processes():  # delivered, not awaited
            time.sleep(0.01)
        _next_job_succeeds(client)
        assert one_slot.pool.worker_stats()[0]["restarts"] == 1


def test_the_other_slot_keeps_serving(strays, tmp_path):
    service, thread = start_service(workers=2, job_deadline=DEADLINE)
    strays.update(s["pid"] for s in service.pool.worker_stats())
    spin = HOSTILE["spin"][0] + _PROGRAM_TAIL
    with ServeClient(service.address) as client:
        hung = client.submit(tenant="x", source=spin, ranks=1)
        _wait_running(client)
        t0 = time.monotonic()
        _next_job_succeeds(client)  # while the spin still holds a slot
        assert time.monotonic() - t0 < DEADLINE
        assert client.status(hung)["state"] == "running"
        _fails_within_5s(client, hung, "deadline")
        strays.update(s["pid"] for s in service.pool.worker_stats())
        client.shutdown()
    thread.join(30)
    assert not thread.is_alive(), "daemon did not drain"


def test_a_killed_daemon_takes_its_busy_worker_along(strays, tmp_path):
    """A daemon process ``SIGKILL``\\ ed under a job that never ends: its
    worker does not go on with the job, it is gone within 2 s."""
    src = Path(__file__).resolve().parents[2] / "src"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    busy = None
    try:
        listening = daemon.stdout.readline()
        host, port = listening.split()[-1].rsplit(":", 1)
        source = BLOCKING_SOURCE.format(sentinel=str(tmp_path / "never"))
        with ServeClient((host, int(port))) as client:
            client.submit(tenant="x", source=source, ranks=1)
            _wait_running(client)
        (busy,) = [
            pid for pid, (ppid, _) in processes().items()
            if ppid == daemon.pid
        ]
        strays.add(busy)  # it leads its process group
        daemon.kill()
        daemon.wait()
        deadline = time.monotonic() + 2
        while busy in processes():
            assert time.monotonic() < deadline, "outlived its daemon"
            time.sleep(0.01)
    finally:
        daemon.kill()
        daemon.wait()
        daemon.stdout.close()
        if busy is not None:
            try:
                os.killpg(busy, signal.SIGKILL)
            except ProcessLookupError:
                pass


# -- sharded ---------------------------------------------------------------


def _signal_a_shard_mid_round(monkeypatch, sig, seen):
    """Round 3 of the next sharded run starts with shard 1 signalled."""
    exchange = sharded._ShardedRun._exchange_round

    def signalling(run):
        if run.rounds == 2:
            seen.extend(w.pid for w in run._workers)
            os.kill(run._workers[1].pid, sig)
        exchange(run)

    monkeypatch.setattr(sharded._ShardedRun, "_exchange_round", signalling)


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGSTOP])
def test_a_signalled_shard_worker_is_a_protocol_error(
    monkeypatch, strays, sig
):
    monkeypatch.setattr(worker, "DEADLINE_S", DEADLINE)
    pids = []
    _signal_a_shard_mid_round(monkeypatch, sig, pids)
    session = Session(backend="sharded", shards=2)
    programs = NAMED_WORKLOADS["stress"](16)
    t0 = time.monotonic()
    with pytest.raises(ProtocolError) as excinfo:
        session.run(programs)
    assert time.monotonic() - t0 < 5
    assert "shard worker 1" in str(excinfo.value)
    assert (
        "killed by SIGKILL" if sig == signal.SIGKILL else "did not answer"
    ) in str(excinfo.value)
    assert len(pids) == 2 and not set(pids) & set(processes())
    monkeypatch.undo()
    assert not session.run(programs).has_deadlock  # the next run is fine


def test_a_killed_shard_worker_inside_a_serve_job_fails_that_job(strays):
    service, thread = start_service(
        workers=1, job_deadline=30.0, backend="sharded", shards=2
    )
    (stats,) = service.pool.worker_stats()
    strays.add(stats["pid"])
    with ServeClient(service.address) as client:
        clean = client.submit(tenant="s", workload="stress", ranks=16)
        assert client.result(clean, wait=True, timeout=60)["result"][
            "verdict"
        ] == "clean"
        for _attempt in range(20):
            job = client.submit(tenant="s", workload="stress", ranks=256)
            shard = None
            while shard is None and client.status(job)["state"] != "done":
                shard = next(
                    (pid for pid, (ppid, _) in processes().items()
                     if ppid == stats["pid"]),
                    None,
                )
            if shard is not None:
                os.kill(shard, signal.SIGKILL)
                break
        else:
            pytest.fail("never caught a shard worker alive")
        with pytest.raises(ServeError) as excinfo:
            client.result(job, wait=True, timeout=60)
        assert excinfo.value.code == "job-failed"
        assert "shard worker" in str(excinfo.value)
        assert "killed by SIGKILL" in str(excinfo.value)
        after = client.submit(tenant="s", workload="stress", ranks=16)
        assert client.result(after, wait=True, timeout=60)["result"][
            "verdict"
        ] == "clean"
        # The serve worker outlived its shard worker's death.
        assert service.pool.worker_stats()[0] == {**stats, **{
            key: service.pool.worker_stats()[0][key]
            for key in ("cpu_seconds", "peak_rss_mb")
        }}
        client.shutdown()
    thread.join(30)
    assert not thread.is_alive(), "daemon did not drain"
