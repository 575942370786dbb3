"""Distributed tracing for the sharded backend.

The sharded backend runs one coordinator plus N worker processes,
each forked on the coordinator's host. ``time.perf_counter`` reads the
same monotonic clock in every process there, so a worker tracer that
starts from the coordinator tracer's epoch stamps its events on the
coordinator's axis: nothing needs estimating or rebasing at merge.
This module carries the two pieces that turn N private event streams
into one trace:

* :class:`WorkerObsSpec` — the picklable observer configuration the
  coordinator embeds in each ``_ShardSpec`` so workers honor the
  session's ``--obs`` settings and share its tracer's epoch
  (:data:`~repro.obs.observer.NULL_OBSERVER` stays the zero-cost
  default).
* the packed event columns (:func:`events_to_wire`) a worker ships
  once, in its finish payload, and the :class:`TraceMerger` that folds
  them into the session trace.
"""
from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.events import TraceEvent
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.tracer import DEFAULT_EVENT_LIMIT, Tracer


@dataclass(frozen=True)
class WorkerObsSpec:
    """Observer settings a worker process reconstructs from.

    Observers hold unpicklable state (bound metrics registries, lists
    of events); shipping this small frozen spec instead keeps
    ``_ShardSpec`` cheap to pickle and lets the worker build its own
    local :class:`~repro.obs.observer.Observer`. ``epoch`` is the
    coordinator tracer's ``perf_counter`` epoch when the run traces
    across shards, None when the worker observes only locally.
    """

    enabled: bool = False
    event_limit: int = DEFAULT_EVENT_LIMIT
    epoch: Optional[float] = None

    @classmethod
    def from_observer(cls, observer: Observer, tracing: bool) -> "WorkerObsSpec":
        if not observer.enabled:
            return cls()
        return cls(
            enabled=True,
            event_limit=getattr(
                observer.tracer, "limit", DEFAULT_EVENT_LIMIT
            ),
            epoch=observer.tracer.epoch if tracing else None,
        )


def make_worker_observer(spec: WorkerObsSpec) -> Observer:
    """The observer a shard worker runs under.

    Disabled specs return the shared :data:`NULL_OBSERVER` so workers
    pay the usual single attribute check per instrumentation site.
    """
    if not spec.enabled:
        return NULL_OBSERVER
    tracer = Tracer(limit=spec.event_limit)
    if spec.epoch is not None:
        tracer.epoch = spec.epoch
    return Observer(tracer=tracer)


#: ``args`` column flags — see :func:`events_to_wire`.
_ARGS_EXTRA = 0   # args pickled verbatim on the frame's fallback list
_ARGS_INT = 1     # args == {key: int(value)}
_ARGS_FLOAT = 2   # args == {key: float(value)}
_ARGS_NONE = 3    # args is None

_DUR_NONE = float("nan")


def events_to_wire(events: Sequence[TraceEvent]) -> tuple:
    """Pack trace events into columnar arrays for a worker's finish
    payload.

    A run at the claim scale (p=256, s=8) produces ~10k events; as
    dataclasses — or even bare row tuples — that is ~80k heap objects
    through pickle, and the coordinator's unpickling counts towards
    the ``coordinator_busy`` term of ``modeled_latency_seconds``.
    Columns of primitive ``array`` values pickle as single byte blobs,
    so the cost collapses to a few memcpys;
    :meth:`TraceMerger.merge_into` rebuilds :class:`TraceEvent`
    objects.

    The wire value is a 12-tuple: a string table; ``H`` index columns
    for name/cat/ph; ``d`` columns for ts and dur (``NaN`` encodes a
    ``None`` duration — real durations are never NaN); ``i`` columns
    for pid/tid; and the args columns (key index, flag, value) with a
    fallback for the args that are not single-key numeric dicts. Those
    are most of a worker's events (every wait-state span carries its
    nested wait entries), so the fallback list travels pickled, as one
    byte blob that only :func:`wire_to_events` unpickles. Int-valued
    args survive the float column exactly up to 2**53, far beyond any
    round/rank/byte count we record.
    """
    strings: Dict[str, int] = {}

    def intern(s: str) -> int:
        idx = strings.get(s)
        if idx is None:
            idx = strings[s] = len(strings)
        return idx

    name_i = array("H")
    cat_i = array("H")
    ph_i = array("H")
    ts = array("d")
    dur = array("d")
    pid = array("i")
    tid = array("i")
    akey = array("H")
    aflag = array("b")
    aval = array("d")
    extra: List[Any] = []
    for e in events:
        name_i.append(intern(e.name))
        cat_i.append(intern(e.cat))
        ph_i.append(intern(e.ph))
        ts.append(e.ts)
        dur.append(_DUR_NONE if e.dur is None else e.dur)
        pid.append(e.pid)
        tid.append(e.tid)
        args = e.args
        if args is None:
            akey.append(0)
            aflag.append(_ARGS_NONE)
            aval.append(0.0)
            continue
        if len(args) == 1:
            ((k, v),) = args.items()
            kind = type(v)
            if kind is int and -(2 ** 53) <= v <= 2 ** 53:
                akey.append(intern(k))
                aflag.append(_ARGS_INT)
                aval.append(v)
                continue
            if kind is float:
                akey.append(intern(k))
                aflag.append(_ARGS_FLOAT)
                aval.append(v)
                continue
        akey.append(0)
        aflag.append(_ARGS_EXTRA)
        aval.append(0.0)
        extra.append(args)
    return (
        list(strings), name_i, cat_i, ph_i, ts, dur, pid, tid,
        akey, aflag, aval,
        pickle.dumps(extra, protocol=pickle.HIGHEST_PROTOCOL),
    )


def wire_len(wire: tuple) -> int:
    """Number of events packed in one :func:`events_to_wire` value."""
    return len(wire[1])


def wire_to_events(wire: tuple, offset: float = 0.0) -> List[TraceEvent]:
    """Rebuild :class:`TraceEvent` rows from a packed frame, rebasing
    every timestamp by ``offset`` (microseconds)."""
    (strings, name_i, cat_i, ph_i, ts, dur, pid, tid,
     akey, aflag, aval, extra) = wire
    extras = iter(pickle.loads(extra))
    out: List[TraceEvent] = []
    for i in range(len(name_i)):
        flag = aflag[i]
        if flag == _ARGS_INT:
            args: Any = {strings[akey[i]]: int(aval[i])}
        elif flag == _ARGS_FLOAT:
            args = {strings[akey[i]]: aval[i]}
        elif flag == _ARGS_NONE:
            args = None
        else:
            args = next(extras)
        d = dur[i]
        out.append(
            TraceEvent(
                name=strings[name_i[i]],
                cat=strings[cat_i[i]],
                ph=strings[ph_i[i]],
                ts=ts[i] + offset,
                pid=pid[i],
                tid=tid[i],
                dur=None if d != d else d,
                args=args,
            )
        )
    return out


class TraceMerger:
    """Folds each worker's packed events into the coordinator's trace.

    A worker's events arrive once, in its finish payload, already
    stamped on the coordinator's clock; :meth:`merge_into` unpacks
    and absorbs them and attributes drops and event counts per shard.
    """

    def __init__(self) -> None:
        # shard -> packed events (events_to_wire form, kept packed until
        # merge_into so absorbing a payload stays cheap)
        self._frames: Dict[int, tuple] = {}
        # shard -> dropped-event count reported by the worker tracer
        self.dropped: Dict[int, int] = {}

    def add_frame(self, shard_id: int, frame: Mapping[str, Any]) -> None:
        """Absorb one worker's ``events`` and ``dropped`` count."""
        events = frame.get("events")
        if events is not None and wire_len(events):
            self._frames[shard_id] = events
        dropped = int(frame.get("dropped") or 0)
        if dropped:
            self.dropped[shard_id] = dropped

    def event_counts(self) -> Dict[int, int]:
        return {sid: wire_len(frame) for sid, frame in self._frames.items()}

    def merge_into(self, observer: Observer) -> None:
        """Absorb all worker events and the per-shard counters."""
        for shard_id in sorted(self._frames):
            observer.tracer.absorb(wire_to_events(self._frames[shard_id]))
        # The global obs.tracer.dropped counter already aggregates via
        # the worker metrics merge at join; here we add the per-shard
        # attribution the stats shard table reports.
        for shard_id, dropped in sorted(self.dropped.items()):
            observer.metrics.counter(
                f"obs.tracer.dropped.shard{shard_id}"
            ).inc(dropped)
        for shard_id, count in sorted(self.event_counts().items()):
            observer.metrics.inc(f"obs.shard{shard_id}.events", count)
