"""Discrete-event simulation of the TBON's message transport.

GTI's transport guarantees the distributed algorithm relies on are:
(1) channels are non-overtaking — per (source, destination) pair,
messages are handled in send order; and (2) every message eventually
arrives. The simulator provides exactly these guarantees while
otherwise delivering adversarially: per-message latency comes from a
pluggable model (deterministic constants for the cost studies, seeded
random jitter for protocol stress tests), and each node processes one
message at a time with a configurable per-message cost.

Handlers run inside the simulation: a node's ``handle`` may call
:meth:`Network.send`, and time advances only through the event queue —
there is no wall-clock dependence anywhere.

The queue is a heap of plain ``(time, seq, dst, src, msg)`` tuples.
``seq`` counts every push, so two entries never tie on ``(time, seq)``
and the heap orders them with C float/int comparisons alone: events at
one instant fire in the order they were scheduled, which is what makes
a channel FIFO (its messages never arrive out of send order, and
same-instant ones dequeue by ``seq``).
"""
from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, List, Protocol, Tuple

from repro.obs.events import PID_TBON
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, Observer

#: Emit one "tbon.queue" counter sample every this many deliveries.
_QUEUE_SAMPLE_EVERY = 64


class Node(Protocol):
    """Anything attachable to the network."""

    node_id: int

    def handle(self, msg: object, net: "Transport", src: int) -> None:
        ...


class Transport(Protocol):
    """What a node may assume about its transport.

    Both the simulated :class:`Network` (the inline backend) and the
    sharded backend's per-worker ``ShardNetwork`` satisfy this: a FIFO
    ``send`` that keeps the ledger of what it sent (two totals, plus
    :func:`count_sent` when observed), a monotonic clock ``now``, and
    the observer handle. Node implementations
    (`repro.core.distributed` / `repro.core.treenodes`) are written
    against this protocol so the same handler code runs unchanged
    in-process and across shard workers.
    """

    obs: Observer
    messages_sent: int
    bytes_sent: int

    @property
    def now(self) -> float:
        ...

    def send(self, src: int, dst: int, msg: object, size: int = 64) -> None:
        ...


class LatencyModel(Protocol):
    def __call__(self, src: int, dst: int, size: int) -> float:
        ...


def fixed_latency(seconds: float = 1e-6) -> LatencyModel:
    """Constant link latency (useful for unit tests)."""

    def model(src: int, dst: int, size: int) -> float:
        return seconds

    return model


def jittered_latency(
    seed: int, base: float = 1e-6, jitter: float = 5e-6
) -> LatencyModel:
    """Seeded-random latency: adversarial cross-channel interleavings.

    Per-channel FIFO is still enforced by the network itself, so this
    only perturbs the relative order of *different* channels — exactly
    the freedom a real network has.
    """
    rng = random.Random(seed)

    def model(src: int, dst: int, size: int) -> float:
        return base + rng.random() * jitter

    return model


def count_sent(metrics: MetricsRegistry, msg: object, size: int) -> None:
    """The by-type ledger entry of one send, under ``--obs``.

    Every transport's ``send`` calls this (and nothing else counts a
    send by type), so the ``tbon.sent.*`` table is the same whichever
    process hosted the sender. Deliveries have no entry here: the node
    that handles a message counts it in its ``stats``, and the read-off
    (:mod:`repro.core.detector`) publishes ``tbon.recv.*`` from those.
    """
    mtype = type(msg).__name__
    metrics.inc(f"tbon.sent.{mtype}")
    metrics.inc(f"tbon.sent_bytes.{mtype}", size)


#: A heap entry: ``(time, seq, dst, src, msg)``. ``dst < 0`` marks a
#: scheduled call whose callback rides in the ``src`` slot.
_Entry = Tuple[float, int, int, Any, object]
_CALL = -1


class Network:
    """The event queue, channels, and node registry."""

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        *,
        node_cost: float = 0.0,
        max_events: int = 200_000_000,
        observer: Observer | None = None,
    ) -> None:
        self._latency = latency_model or fixed_latency()
        self._node_cost = node_cost
        self._max_events = max_events
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._nodes: Dict[int, Node] = {}
        self._queue: List[_Entry] = []
        self._seq = itertools.count()
        self._now = 0.0
        #: Non-overtaking enforcement: earliest admissible delivery time
        #: per (src, dst) channel.
        self._channel_front: Dict[Tuple[int, int], float] = {}
        #: Node busy-until times (one message processed at a time).
        self._busy_until: Dict[int, float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        #: High-water mark of the event heap (calls + in-flight messages).
        self.peak_queue = 0
        self._deliveries = 0

    @property
    def now(self) -> float:
        return self._now

    def attach(self, node: Node) -> None:
        if node.node_id < 0:
            # Negative destinations mark scheduled calls in the heap.
            raise ValueError(f"negative node id {node.node_id}")
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} attached twice")
        self._nodes[node.node_id] = node

    def send(self, src: int, dst: int, msg: object, size: int = 64) -> None:
        """Send ``msg`` from ``src`` to ``dst`` over the FIFO channel."""
        self.deliver(src, dst, msg, size)
        self.messages_sent += 1
        self.bytes_sent += size
        if self.obs.enabled:
            count_sent(self.obs.metrics, msg, size)

    def deliver(self, src: int, dst: int, msg: object, size: int = 64) -> None:
        """Put a message on its FIFO channel without counting it as
        sent: the transport half of ``send``, and the way in for a
        message another transport sent (and counted) that continues
        here."""
        if dst not in self._nodes:
            raise KeyError(f"send to unattached node {dst}")
        latency = self._latency(src, dst, size)
        if latency < 0:
            raise ValueError("negative latency")
        arrival = self._now + latency
        key = (src, dst)
        front = self._channel_front.get(key, 0.0)
        if front > arrival:
            arrival = front
        # The channel front never moves back, and same-instant messages
        # still dequeue in send order: the unique seq breaks exact ties
        # before the heap could look at src, dst or the payload.
        self._channel_front[key] = arrival
        heapq.heappush(
            self._queue, (arrival, next(self._seq), dst, src, msg)
        )
        if self.obs.enabled:
            # Entered / left this network's queue (``run`` counts the
            # other half): the live monitor's backlog pair.
            self.obs.metrics.inc("tbon.sent_total")

    def call_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(
            self._queue, (time, next(self._seq), _CALL, callback, None)
        )

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        self.call_at(self._now + delay, callback)

    def run(self, until: float | None = None) -> float:
        """Process events (optionally up to simulated time ``until``).

        Returns the current simulated time: ``until`` when a bound was
        given (the clock always advances to it, even when the event
        heap drains early), otherwise the time the queue drained at.
        ``idle()`` afterwards answers whether events remain past the
        bound — a drained heap at ``now == until`` is idle, a bounded
        stop with later events pending is not.
        """
        processed = 0
        queue = self._queue
        nodes = self._nodes
        obs = self.obs
        node_cost = self._node_cost
        max_events = self._max_events
        heappop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return until
            # Pushes only happen between pops, so the length seen here
            # is the exact high-water mark.
            if len(queue) > self.peak_queue:
                self.peak_queue = len(queue)
            time, _, dst, src, msg = heappop(queue)
            processed += 1
            if processed > max_events:
                raise RuntimeError(
                    f"network exceeded {max_events} events"
                )
            if time > self._now:
                self._now = time
            if dst < 0:
                src()
                continue
            node = nodes[dst]
            if node_cost > 0.0:
                # Serialize processing on the node: handling starts when
                # the node is free and occupies it for node_cost.
                start = max(self._now, self._busy_until.get(dst, 0.0))
                self._busy_until[dst] = start + node_cost
                self._now = start
            if obs.enabled:
                obs.metrics.inc("tbon.delivered_total")
                obs.metrics.gauge("tbon.queue_depth").set(len(queue))
                # A decimated counter track ("tbon.queue") so Perfetto
                # draws queue pressure over simulated time without one
                # sample per delivery bloating the artifact.
                self._deliveries += 1
                if self._deliveries % _QUEUE_SAMPLE_EVERY == 1:
                    obs.tracer.counter(
                        "tbon.queue",
                        ts=self._now * 1e6,
                        pid=PID_TBON,
                        values={"depth": float(len(queue))},
                    )
                obs.tracer.instant(
                    type(msg).__name__,
                    cat="tbon.deliver",
                    ts=self._now * 1e6,
                    pid=PID_TBON,
                    tid=dst,
                    args={"src": src},
                )
            node.handle(msg, self, src)
        # The heap drained. A bounded run still owes the caller the
        # full interval: without this, run(until=T) returned the
        # pre-drain clock (the last event's time) whenever the heap
        # emptied at or before T, so back-to-back bounded runs saw
        # time jump backwards relative to the requested horizon.
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def idle(self) -> bool:
        """True when no events are pending (consistent with ``run``:
        after a bounded run, idle means the drain — not the bound —
        ended it)."""
        return not self._queue
