"""The supervised worker process (``repro.backend.worker``): every way
a child can fail its supervisor gives a structured answer in bounded
time and leaves no process behind."""
import os
import signal
import subprocess
import threading
import time

import pytest

from repro.backend.worker import (
    Worker,
    WorkerDied,
    WorkerTimeout,
    own_usage,
)
from tests.procs import kernel_grants, processes

#: The test worker's ``RLIMIT_AS``, and one allocation past it that the
#: kernel commits to a worker without one.
_CAP = 2 << 30
_PAST_CAP = _CAP + (1 << 30)


def _echo(conn, prefix):
    while True:
        conn.send((prefix, conn.recv()))


def _is_closed(conn, other):
    conn.send(other.closed)
    conn.recv()


def _obey(conn):
    """Do what the supervisor names: the failure menu."""
    while True:
        what = conn.recv()
        if what == "exit":
            os._exit(3)
        elif what == "raise":
            raise RuntimeError("boom")
        elif what == "last-words":
            conn.send("last words")
            os._exit(0)
        elif what == "spin":
            while True:
                pass
        elif what == "fork":
            pid = os.fork()
            if pid == 0:  # never reached: a copy of a worker exits at once
                conn.send(("copy", os.getpid()))
            conn.send(("forked", os.waitpid(pid, 0)[1]))
        elif what == "orphan":
            subprocess.Popen(["sleep", "1000"])
            conn.send(("pgrp", os.getpgrp()))
        elif what == "nest":
            inner = Worker(_is_closed, conn, name="inner")
            conn.send(("closed in the inner worker", inner.recv(5)))
            inner.stop()
        elif what == "allocate":
            try:
                # A calloc sized past the cap and within what the
                # kernel commits: only the cap can refuse it.
                bytes(_PAST_CAP)
            except MemoryError:
                conn.send("MemoryError")
            else:
                conn.send("allocated")
        elif what == "usage":
            sum(range(200_000))
            conn.send(own_usage())
        elif what == "signals":
            conn.send((
                signal.getsignal(signal.SIGINT) is signal.SIG_IGN,
                signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
            ))


def _group_members(pgid):
    return [pid for pid, (_, pgrp) in processes().items() if pgrp == pgid]


@pytest.fixture
def obeying():
    worker = Worker(_obey, name="test worker")
    yield worker
    worker.stop(grace=0)
    assert worker.pid not in processes()


def test_messages_round_trip_and_stop_is_an_end_of_file():
    worker = Worker(_echo, "got", name="echo")
    for item in (1, {"a": [1, 2]}, "x" * 500_000):
        worker.send(item)
        assert worker.recv(5) == ("got", item)
    assert worker.alive()
    worker.stop()
    assert worker.exitcode == 0  # read EOF and left on its own
    assert not worker.alive()


def test_an_exit_is_reported_with_its_code(obeying):
    obeying.send("exit")
    with pytest.raises(WorkerDied) as excinfo:
        obeying.recv(5)
    assert excinfo.value.exitcode == 3 and excinfo.value.signal is None
    assert str(excinfo.value) == "test worker exited with code 3"
    assert obeying.exitcode == 3


def test_an_uncaught_exception_is_exit_code_1(obeying):
    obeying.send("raise")  # the traceback goes to the child's stderr
    with pytest.raises(WorkerDied) as excinfo:
        obeying.recv(5)
    assert excinfo.value.exitcode == 1


def test_last_words_are_read_before_the_death(obeying):
    obeying.send("last-words")
    time.sleep(0.2)  # dead, with a frame still in the pipe
    assert obeying.recv(5) == "last words"
    with pytest.raises(WorkerDied):
        obeying.recv(5)


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM])
def test_a_signal_is_reported_by_name(obeying, sig):
    obeying.send("spin")
    threading.Timer(0.1, os.kill, (obeying.pid, sig)).start()
    t0 = time.monotonic()
    with pytest.raises(WorkerDied) as excinfo:
        obeying.recv(30)
    assert time.monotonic() - t0 < 5
    assert excinfo.value.signal == sig and excinfo.value.exitcode is None
    assert sig.name in str(excinfo.value)


def test_a_hung_or_stopped_child_is_a_timeout_then_killed(obeying):
    obeying.send("spin")
    with pytest.raises(WorkerTimeout):
        obeying.recv(0.2)
    os.kill(obeying.pid, signal.SIGSTOP)
    with pytest.raises(WorkerTimeout):
        obeying.recv(0.2)
    assert obeying.alive()
    obeying.kill()
    obeying.kill()  # idempotent
    assert obeying.exitcode == -signal.SIGKILL
    assert obeying.usage[0] > 0.1  # the spin, read off the reaped child


def test_kill_from_another_thread_wakes_the_owner(obeying):
    obeying.send("spin")
    threading.Timer(0.1, obeying.kill).start()
    with pytest.raises(WorkerDied) as excinfo:
        obeying.recv(30)
    assert excinfo.value.signal == signal.SIGKILL


def test_send_to_a_dead_child_is_worker_died(obeying):
    obeying.send("exit")
    while obeying.alive():
        time.sleep(0.01)
    with pytest.raises(WorkerDied) as excinfo:
        for _ in range(100):  # the first write may still fit the buffer
            obeying.send("x" * 100_000)
    assert excinfo.value.exitcode == 3


def test_a_copy_of_a_worker_exits_at_once(obeying):
    obeying.send("fork")
    assert obeying.recv(5) == ("forked", 1 << 8)  # never ("copy", ...)


def test_a_worker_of_a_worker_works_and_has_no_pipe_to_the_top(obeying):
    obeying.send("nest")
    assert obeying.recv(5) == ("closed in the inner worker", True)


def test_killing_a_group_leader_takes_what_it_forked():
    worker = Worker(_obey, name="leader", own_group=True)
    worker.send("orphan")
    assert worker.recv(5) == ("pgrp", worker.pid)
    assert len(_group_members(worker.pid)) == 2
    worker.stop()  # the leader exits on EOF; the orphan is swept
    assert worker.exitcode == 0
    deadline = time.monotonic() + 5  # SIGKILL is delivered, not awaited
    while _group_members(worker.pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _group_members(worker.pid) == []


@pytest.mark.skipif(
    not kernel_grants(_PAST_CAP),
    reason="the kernel would not commit one uncapped allocation of "
    "_PAST_CAP bytes (vm.overcommit_memory, /proc/meminfo)",
)
def test_the_address_space_cap_is_a_memory_error_in_the_child():
    capped = Worker(_obey, name="capped", address_space=_CAP)
    free = Worker(_obey, name="free")
    try:
        capped.send("allocate")
        free.send("allocate")
        assert capped.recv(10) == "MemoryError"
        assert free.recv(10) == "allocated"
    finally:
        capped.stop(grace=0)
        free.stop(grace=0)


def test_the_child_resets_signals_and_reports_its_usage(obeying):
    obeying.send("signals")
    assert obeying.recv(5) == (True, True)
    obeying.send("usage")
    cpu, rss = obeying.recv(5)
    assert cpu > 0 and rss > 1


def test_a_worker_forked_from_a_thread_works():
    box = []

    def spawn():
        worker = Worker(_echo, "t", name="threaded")
        worker.send(1)
        box.append(worker.recv(5))
        worker.stop()
        box.append(worker.exitcode)

    thread = threading.Thread(target=spawn)
    thread.start()
    thread.join(10)
    assert box == [("t", 1), 0]
