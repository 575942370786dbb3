"""The one pause of the cyclic collector, and the premise it rests on:
a run of the engine or of the tool makes no cyclic garbage, inline or
sharded, so pausing the collector around it frees nothing later than
reference counting would."""
import gc
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.backend import sharded
from repro.core.detector import DistributedDeadlockDetector
from repro.util.gcpause import collector_paused
from repro.workloads import (
    build_stress_trace,
    stress_programs,
    wildcard_deadlock_programs,
)
from repro.workloads.softhang import straggler_collective_programs


@pytest.fixture
def collector_on():
    """Every case starts with the collector on and leaves it on."""
    gc.enable()
    yield
    gc.enable()


@pytest.fixture
def collector_off():
    """A clean heap and the collector off: whatever a case leaves for
    ``gc.collect()`` is the case's own cyclic garbage."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_an_enabled_collector_is_off_inside_and_on_after(collector_on):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_collector_the_caller_disabled_stays_disabled(collector_on):
    gc.disable()
    with collector_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_an_exception_inside_still_restores_the_state(collector_on):
    with pytest.raises(ValueError):
        with collector_paused():
            raise ValueError("inside the run")
    assert gc.isenabled()


def test_nested_entries_restore_only_at_the_last_exit(collector_on):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_two_threads_restore_only_at_the_last_exit(collector_on):
    """The first thread in leaves first; the collector stays off until
    the second one is out too."""
    second_in, first_out = threading.Event(), threading.Event()
    seen = []

    def second():
        with collector_paused():
            second_in.set()
            assert first_out.wait(10)
            seen.append(gc.isenabled())
        seen.append(gc.isenabled())

    with collector_paused():
        thread = threading.Thread(target=second)
        thread.start()
        assert second_in.wait(10)
    seen.append(gc.isenabled())
    first_out.set()
    thread.join(10)
    assert seen == [False, False, True]


def test_the_engine_and_the_tool_run_with_the_collector_paused(collector_on):
    """A rank program runs inside ``Engine.run``, a settle loop inside
    ``ToolTree.drive``; both see the collector off."""
    seen = []

    def program(rank):
        seen.append(("engine", gc.isenabled()))
        yield rank.finalize()

    recorded = Session().record([program, program])
    assert not recorded.deadlocked
    detector = DistributedDeadlockDetector(recorded.matched)

    def settle():
        seen.append(("tool", gc.isenabled()))
        detector.net.run()

    detector.drive(settle, detect_at_end=True)
    assert seen == [("engine", False)] * 2 + [("tool", False)] * 2
    assert gc.isenabled()


def _straggler_with_epochs(p, seed):
    """Straggler programs and a Session that detects at 4 timeouts
    spread over the run, as the epoch benchmark does."""
    programs = straggler_collective_programs(p, iterations=2, delay_ops=8)
    span = Session(seed=seed).run(programs).simulated_seconds
    epochs = tuple(span * (i + 0.5) / 4 for i in range(4))
    return programs, Session(seed=seed, detect_at=epochs)


INLINE_SHAPES = {
    "stress": lambda p, seed: (stress_programs(p, 4), Session(seed=seed)),
    "wildcard": lambda p, seed: (
        wildcard_deadlock_programs(p), Session(seed=seed)
    ),
    "straggler": _straggler_with_epochs,
}


@settings(max_examples=15, deadline=None)
@given(
    shape=st.sampled_from(sorted(INLINE_SHAPES)),
    p=st.integers(2, 24),
    seed=st.integers(0, 2**16),
)
def test_an_inline_run_leaves_nothing_for_the_collector(shape, p, seed):
    programs, session = INLINE_SHAPES[shape](p, seed)
    gc.collect()
    gc.disable()
    try:
        outcome = session.run(programs)
        assert outcome.has_deadlock == (shape == "wildcard")
        del outcome, session
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=3, deadline=None)
@given(
    deadlocks=st.booleans(),
    p=st.integers(4, 24),
    seed=st.integers(0, 2**16),
)
def test_a_sharded_run_leaves_nothing_for_the_collector(deadlocks, p, seed):
    programs = (
        wildcard_deadlock_programs(p) if deadlocks else stress_programs(p, 4)
    )
    session = Session(seed=seed, backend="sharded", shards=2)
    gc.collect()
    gc.disable()
    try:
        outcome = session.run(programs)
        assert outcome.has_deadlock == deadlocks
        del outcome, session
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("observe", [False, True])
def test_a_finished_sharded_run_is_freed_by_reference_counting_alone(
    monkeypatch, collector_off, observe
):
    """The root's flight handle and the proxies' trace context refer
    back to the run that holds them; held weakly, the run, its tree and
    its workers go when ``analyze`` returns."""
    refs = []
    execute = sharded._ShardedRun.execute

    def watched(run):
        refs.extend([weakref.ref(run), weakref.ref(run.root)])
        outcome = execute(run)
        refs.extend(weakref.ref(worker) for worker in run._workers)
        return outcome

    monkeypatch.setattr(sharded._ShardedRun, "execute", watched)
    session = Session(backend="sharded", shards=2, observe=observe)
    outcome = session.analyze(build_stress_trace(64, 4))
    assert not outcome.has_deadlock
    assert len(refs) == 4
    del outcome, session
    assert [ref() for ref in refs] == [None] * 4
    assert gc.collect() == 0
