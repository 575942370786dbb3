"""Distributed-tracing plumbing: the worker spec, packed events, merge.

The sharded backend's workers live in other processes, so everything
here crosses a pickle boundary: the worker observer spec and the
packed event frames. A field lost or reordered in either silently
corrupts the merged trace, so each representation round-trips exactly.
"""
import pickle

import pytest

from repro.obs.dist import (
    TraceMerger,
    WorkerObsSpec,
    events_to_wire,
    make_worker_observer,
    wire_len,
    wire_to_events,
)
from repro.obs.events import TraceEvent
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.tracer import Tracer


def test_worker_obs_spec_from_observer():
    tracer = Tracer(limit=77)
    spec = WorkerObsSpec.from_observer(Observer(tracer=tracer), tracing=True)
    assert spec == WorkerObsSpec(
        enabled=True, event_limit=77, epoch=tracer.epoch
    )
    local = WorkerObsSpec.from_observer(Observer(), tracing=False)
    assert local.enabled and local.epoch is None
    dark = WorkerObsSpec.from_observer(NULL_OBSERVER, tracing=True)
    assert not dark.enabled and dark.epoch is None
    # specs ship inside _ShardSpec: must stay picklable
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_make_worker_observer_null_default_is_shared():
    assert make_worker_observer(WorkerObsSpec()) is NULL_OBSERVER
    obs = make_worker_observer(
        WorkerObsSpec(enabled=True, event_limit=99, epoch=12.5)
    )
    assert obs.enabled and obs.tracer.limit == 99
    # the worker stamps on the coordinator tracer's axis
    assert obs.tracer.epoch == 12.5


EVENTS = [
    TraceEvent(name="round 1", cat="shard.round", ph="X", ts=10.0,
               pid=3, tid=0, dur=25.5, args={"round": 1}),
    TraceEvent(name="dwell", cat="waitstate.dwell", ph="C", ts=11.0,
               pid=3, tid=4, dur=None, args={"depth": 1.5}),
    TraceEvent(name="odd", cat="misc", ph="i", ts=12.0, pid=3, tid=5,
               dur=None, args={"a": 1, "b": "two"}),
    TraceEvent(name="bare", cat="misc", ph="i", ts=13.0, pid=3, tid=6,
               dur=0.0, args=None),
    TraceEvent(name="txt", cat="misc", ph="i", ts=14.0, pid=3, tid=7,
               dur=None, args={"label": "x"}),
]


def test_packed_events_roundtrip_exactly():
    wire = events_to_wire(EVENTS)
    assert wire_len(wire) == len(EVENTS)
    assert wire_to_events(wire) == EVENTS
    # frames cross a process boundary
    assert wire_to_events(pickle.loads(pickle.dumps(wire))) == EVENTS


def test_packed_events_rebase_timestamps_only():
    shifted = wire_to_events(events_to_wire(EVENTS), offset=100.0)
    assert [e.ts for e in shifted] == [e.ts + 100.0 for e in EVENTS]
    assert [e.dur for e in shifted] == [e.dur for e in EVENTS]


def test_packed_events_distinguish_int_and_float_args():
    evs = wire_to_events(events_to_wire(EVENTS))
    assert type(evs[0].args["round"]) is int
    assert type(evs[1].args["depth"]) is float


def test_merger_rebases_events_into_observer():
    merger = TraceMerger()
    merger.add_frame(2, {"events": events_to_wire(EVENTS), "dropped": 3})
    assert merger.event_counts() == {2: len(EVENTS)}
    observer = Observer()
    merger.merge_into(observer)
    # worker stamps are already on the coordinator's axis: kept as is
    assert observer.tracer.events[: len(EVENTS)] == EVENTS
    # per-shard drop attribution lands on the metrics registry
    state = observer.metrics.dump_state()
    assert ("obs.tracer.dropped.shard2", 3) in state["counters"].items()
