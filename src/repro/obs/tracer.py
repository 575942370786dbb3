"""The tracer: append-only structured event recording.

:class:`Tracer` records :class:`~repro.obs.events.TraceEvent` objects;
call sites provide timestamps explicitly (the TBON passes its simulated
clock) or fall back to the wall clock via :meth:`Tracer.now_us`. A hard
event limit bounds memory on pathological runs: past the limit events
are dropped and counted, never silently — the first drop appends one
final ``truncated`` instant marker so the artifact itself records that
it is incomplete, and when a metrics registry is bound via
:meth:`Tracer.bind_metrics` every drop also bumps the
``obs.tracer.dropped`` counter surfaced by ``repro stats``.

:class:`NullTracer` is the disabled backend: every method is a no-op
and ``enabled`` is False, so instrumented hot paths can guard with one
attribute check.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.events import TraceEvent

#: Default cap on recorded events (drops are counted, not silent).
DEFAULT_EVENT_LIMIT = 250_000


class Tracer:
    """Records structured events with explicit or wall-clock stamps."""

    enabled = True

    def __init__(self, limit: int = DEFAULT_EVENT_LIMIT) -> None:
        if limit <= 0:
            raise ValueError("event limit must be positive")
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._metrics = None
        #: ``perf_counter`` reading stamps count from. A shard worker's
        #: tracer takes its coordinator's: forks on one host read one
        #: monotonic clock, so both stamp on the same axis.
        self.epoch = time.perf_counter()

    def bind_metrics(self, metrics) -> None:
        """Mirror drop counts into ``obs.tracer.dropped`` on ``metrics``."""
        self._metrics = metrics

    # -- clock ----------------------------------------------------------

    def now_us(self) -> float:
        """Wall-clock microseconds since :attr:`epoch`."""
        return (time.perf_counter() - self.epoch) * 1e6

    # -- recording ------------------------------------------------------

    def _push(self, event: TraceEvent) -> None:
        if len(self.events) >= self.limit:
            if self.dropped == 0:
                # One final marker, past the cap, so readers of the
                # artifact can tell truncation from a clean ending.
                self.events.append(
                    TraceEvent(
                        name="truncated",
                        cat="tracer",
                        ph="i",
                        ts=event.ts,
                        pid=event.pid,
                        tid=event.tid,
                        args={"limit": self.limit},
                    )
                )
            self.dropped += 1
            if self._metrics is not None:
                self._metrics.inc("obs.tracer.dropped")
            return
        self.events.append(event)

    def instant(
        self,
        name: str,
        *,
        cat: str,
        pid: int,
        tid: int,
        ts: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A zero-duration event (phase ``"i"``)."""
        self._push(
            TraceEvent(
                name=name, cat=cat, ph="i",
                ts=self.now_us() if ts is None else ts,
                pid=pid, tid=tid, args=args,
            )
        )

    def complete(
        self,
        name: str,
        *,
        cat: str,
        ts: float,
        dur: float,
        pid: int,
        tid: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A complete span (phase ``"X"``): start ``ts``, length ``dur``."""
        self._push(
            TraceEvent(
                name=name, cat=cat, ph="X", ts=ts, dur=max(dur, 0.0),
                pid=pid, tid=tid, args=args,
            )
        )

    def counter(
        self,
        name: str,
        *,
        ts: float,
        pid: int,
        values: Dict[str, float],
    ) -> None:
        """A counter sample (phase ``"C"``): Perfetto draws a track."""
        self._push(
            TraceEvent(
                name=name, cat="counter", ph="C", ts=ts, pid=pid,
                args=dict(values),
            )
        )

    def absorb(self, events: List[TraceEvent]) -> None:
        """Merge events recorded by another tracer into this one.

        The sharded backend records wait-state events on per-worker
        tracers and folds them into the coordinator's at join; the
        event limit (and its truncation marker) applies to the merged
        stream as usual.
        """
        for event in events:
            self._push(event)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str,
        pid: int,
        tid: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[None]:
        """Wall-clock span around a ``with`` body."""
        start = self.now_us()
        try:
            yield
        finally:
            self.complete(
                name, cat=cat, ts=start, dur=self.now_us() - start,
                pid=pid, tid=tid, args=args,
            )


class NullTracer(Tracer):
    """The disabled backend: records nothing, costs (nearly) nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(limit=1)

    def _push(self, event: TraceEvent) -> None:  # pragma: no cover - trivial
        pass

    def instant(self, name, **kwargs) -> None:
        pass

    def complete(self, name, **kwargs) -> None:
        pass

    def counter(self, name, **kwargs) -> None:
        pass

    @contextmanager
    def span(self, name, **kwargs) -> Iterator[None]:
        yield
