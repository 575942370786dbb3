"""The tool facade: distributed MPI deadlock detection end to end.

:class:`ToolTree` is the one assembly of the Figure 1(b) architecture
over a matched trace — a TBON of the requested fan-in, the root with
tree-wide collective matching and graph-based detection, interior
aggregation nodes, and a first layer that is handed in by whoever hosts
it — and the one way to drive it ("settle, timeout detection, settle,
check") and to read it off (per-node end state into a
:class:`DistributedOutcome`, the ``tbon.*`` figures into the observer).

:class:`DistributedDeadlockDetector` is the inline tool: it hosts every
first-layer node (distributed p2p matching + wait state tracking) on
the tree's own simulated network and streams the application ranks'
intercepted operations into it on a simulated clock; detections fire
after quiescence (the paper's timeout) and/or at requested simulated
times (mid-run detections). The sharded backend hosts the same nodes in
worker processes and drives the same tree through its round loop.

The outcome exposes the stable distributed state, every detection
record (graph, verdict, phase breakdown, DOT/HTML), message statistics
and peak trace-window sizes — everything the evaluation section
reports.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple,
)

from repro.core.distributed import FirstLayerNode
from repro.core.messages import NewOpMsg, RankDoneMsg
from repro.core.treenodes import DetectionRecord, InteriorNode, RootNode
from repro.mpi.communicator import CommRegistry
from repro.mpi.ops import Operation
from repro.mpi.trace import MatchedTrace
from repro.obs.flight import FlightRecorder
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.tbon.network import LatencyModel, Network, Node, jittered_latency
from repro.tbon.topology import TbonTopology
from repro.util.errors import ProtocolError
from repro.util.gcpause import collector_paused

#: What one first-layer node reports when the run is over: the stable
#: timestamps of its hosted ranks, its peak trace window, and the
#: messages it handled by type. Plain data, so it reads the same off a
#: node in this process and out of a shard worker's finish payload.
NodeReading = Tuple[Dict[int, int], int, Dict[str, int]]


@dataclass
class DistributedOutcome:
    """Result of running the distributed tool over one trace."""

    topology: TbonTopology
    #: Stable per-process timestamps after all events settled — equals
    #: the transition system's terminal state when the tool is correct.
    stable_state: Tuple[int, ...]
    detections: List[DetectionRecord] = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    simulated_seconds: float = 0.0
    peak_window: int = 0
    node_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)

    @property
    def detection(self) -> DetectionRecord:
        if not self.detections:
            raise ValueError("no detection was run")
        return self.detections[-1]

    @property
    def has_deadlock(self) -> bool:
        return any(d.has_deadlock for d in self.detections)

    @property
    def deadlocked(self) -> Tuple[int, ...]:
        for record in reversed(self.detections):
            if record.has_deadlock:
                assert record.result is not None
                return record.result.deadlocked
        return ()


class _Injector:
    """Streams one rank's operations into its host at preset times.

    Each firing re-arms itself for the rank's next time before it
    sends, so the event heap holds one pending injection per rank
    rather than one per operation. An object, not a self-referencing
    closure: the only reference cycle (injector -> network -> heap ->
    injector) exists while an injection is pending, so a finished job
    is freed by reference counting alone.

    Re-arming allocates heap sequence numbers as the run goes instead
    of rank-major up front, so the event order matches pre-scheduling
    exactly when no injection time equals another rank's or a
    ``detect_at`` time. The seeded ``op_gap > 0`` float draws do not
    tie in any run the repo makes; with ``op_gap=0`` same-instant
    injections interleave round-robin instead — same verdict,
    different latency-draw order and ``simulated_seconds``.
    """

    __slots__ = ("_net", "_rank", "_host", "_ops", "_times", "_next")

    def __init__(
        self,
        net: Network,
        rank: int,
        host: int,
        ops: Sequence[Operation],
        times: Sequence[float],
    ) -> None:
        # times[k] injects ops[k]; the one extra time is the RankDoneMsg.
        assert len(times) == len(ops) + 1
        self._net = net
        self._rank = rank
        self._host = host
        self._ops = ops
        self._times = times
        self._next = 0

    def arm(self) -> None:
        # A node_cost > 0 network's clock can run ahead of the preset
        # time; inject as soon as possible then, as ``send`` would.
        net = self._net
        net.call_at(max(self._times[self._next], net.now), self)

    def __call__(self) -> None:
        k = self._next
        self._next = k + 1
        ops = self._ops
        msg: NewOpMsg | RankDoneMsg
        if k < len(ops):
            self.arm()
            msg = NewOpMsg(ops[k])
        else:
            msg = RankDoneMsg(self._rank)
        self._net.send(self._rank, self._host, msg, msg.wire_size)


def build_first_layer(
    topology: TbonTopology,
    comms: CommRegistry,
    node_ids: Iterable[int],
    *,
    window_limit: int,
    flight: FlightRecorder,
) -> Dict[int, FirstLayerNode]:
    """The first-layer nodes ``node_ids``: all of them for the inline
    tool, one shard's slice inside a worker."""
    return {
        node_id: FirstLayerNode(
            node_id, topology, comms, window_limit=window_limit, flight=flight
        )
        for node_id in node_ids
    }


def read_first_layer(
    nodes: Iterable[FirstLayerNode],
) -> Dict[int, NodeReading]:
    """The end state of ``nodes``, as :meth:`ToolTree.read_off` takes it."""
    return {
        node.node_id: (
            node.state_vector(), node.peak_window_size(), dict(node.stats)
        )
        for node in nodes
    }


class ToolTree:
    """Topology, network, root and interior nodes of one tool run.

    The first layer is attached by :meth:`host_first_layer` — real
    :class:`FirstLayerNode`s when this process hosts them, stand-ins
    that forward to wherever they live otherwise — so the root's
    broadcasts and the interiors' relays need no special casing.
    """

    def __init__(
        self,
        matched: MatchedTrace,
        *,
        fan_in: int,
        seed: int,
        latency_model: LatencyModel | None,
        generate_outputs: bool,
        observer: Observer,
        flight: FlightRecorder,
    ) -> None:
        self.matched = matched
        self.observer = observer
        self.topology = TbonTopology.build(
            matched.trace.num_processes, fan_in
        )
        self.net = Network(
            latency_model or jittered_latency(seed), observer=observer
        )
        self.root = RootNode(
            self.topology.root,
            self.topology,
            matched.comms,
            generate_outputs=generate_outputs,
            flight=flight,
        )
        self.net.attach(self.root)
        self.interior = [
            InteriorNode(node_id, self.topology, matched.comms)
            for layer in self.topology.layers[2:-1]
            for node_id in layer
        ]
        for node in self.interior:
            self.net.attach(node)

    def host_first_layer(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.net.attach(node)

    def drive(
        self, settle: Callable[[], object], *, detect_at_end: bool
    ) -> None:
        """Settle, run the end-of-run timeout detection, settle again.

        ``settle`` runs the tool until no message remains anywhere:
        ``net.run`` when every node is on this network, the round loop
        when the first layer is elsewhere. The cyclic collector is
        paused meanwhile (:mod:`repro.util.gcpause`).
        """
        with collector_paused():
            settle()
            if detect_at_end:
                self.root.start_detection(self.net)
                settle()
        if not self.net.idle():
            raise ProtocolError("network did not quiesce")
        for record in self.root.completed_detections:
            if not record.complete:
                raise ProtocolError(
                    f"detection {record.detection_id} incomplete"
                )

    def read_off(
        self,
        first_layer: Mapping[int, NodeReading],
        sent_elsewhere: Tuple[int, int] = (0, 0),
    ) -> DistributedOutcome:
        """The outcome of a driven run, and its ``tbon.*`` figures.

        ``first_layer`` is :func:`read_first_layer` of every node, in
        tree order; ``sent_elsewhere`` the (messages, bytes) totals of
        the transports other than ``self.net`` that carried the run.
        """
        state = [0] * self.topology.num_ranks
        peak = 0
        node_stats: Dict[int, Dict[str, int]] = {}
        for node_id, (levels, node_peak, stats) in first_layer.items():
            for rank, level in levels.items():
                state[rank] = level
            peak = max(peak, node_peak)
            node_stats[node_id] = stats
        node_stats[self.root.node_id] = dict(self.root.stats)
        messages = self.net.messages_sent + sent_elsewhere[0]
        nbytes = self.net.bytes_sent + sent_elsewhere[1]
        if self.observer.enabled:
            metrics = self.observer.metrics
            # A delivery is counted by the node that handles it.
            for stats in (
                *node_stats.values(), *(n.stats for n in self.interior)
            ):
                for mtype, handled in stats.items():
                    metrics.inc(f"tbon.recv.{mtype}", handled)
            metrics.set_gauge("tbon.peak_window", peak)
            metrics.set_gauge("tbon.simulated_seconds", self.net.now)
            metrics.set_gauge("tbon.messages_total", messages)
            metrics.set_gauge("tbon.bytes_total", nbytes)
        return DistributedOutcome(
            topology=self.topology,
            stable_state=tuple(state),
            detections=list(self.root.completed_detections),
            messages_sent=messages,
            bytes_sent=nbytes,
            simulated_seconds=self.net.now,
            peak_window=peak,
            node_stats=node_stats,
        )


class DistributedDeadlockDetector(ToolTree):
    """Drive the distributed tool over a matched trace, in process."""

    def __init__(
        self,
        matched: MatchedTrace,
        *,
        fan_in: int = 4,
        seed: int = 0,
        latency_model: LatencyModel | None = None,
        window_limit: int = 1_000_000,
        generate_outputs: bool = True,
        op_gap: float = 1e-6,
        observer: Observer | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        # The flight recorder is ON by default (bounded ring, O(1)
        # appends); pass a NullFlightRecorder to opt out.
        self.flight = flight if flight is not None else FlightRecorder()
        super().__init__(
            matched,
            fan_in=fan_in,
            seed=seed,
            latency_model=latency_model,
            generate_outputs=generate_outputs,
            observer=observer if observer is not None else NULL_OBSERVER,
            flight=self.flight,
        )
        self.trace = matched.trace
        self._rng = random.Random(seed)
        self._op_gap = op_gap
        self.first_layer = build_first_layer(
            self.topology,
            matched.comms,
            self.topology.first_layer,
            window_limit=window_limit,
            flight=self.flight,
        )
        self.host_first_layer(self.first_layer.values())

    # ------------------------------------------------------------------

    def _schedule_events(self) -> None:
        """Arm one injector per rank over its seeded injection times."""
        gap = self._op_gap
        rng = self._rng.random
        for rank in range(self.trace.num_processes):
            ops = self.trace.sequence(rank)
            # Rank-major, start first: the draw order every pinned
            # simulated time depends on.
            t = rng() * gap * 4
            times = [t]
            for _ in ops:
                t += gap * (0.5 + rng())
                times.append(t)
            _Injector(
                self.net, rank, self.topology.host_of_rank(rank), ops, times
            ).arm()

    def run(
        self,
        *,
        detect_at_end: bool = True,
        detect_at: Sequence[float] = (),
    ) -> DistributedOutcome:
        """Stream the trace, run detections, return the outcome.

        ``detect_at`` schedules mid-run detections at the given
        simulated times (the paper's timeout-driven detections during
        execution); ``detect_at_end`` runs one detection after all
        events settled — the one that sees the terminal state.
        """
        self._schedule_events()
        for t in detect_at:
            self.net.call_at(t, lambda: self.root.start_detection(self.net))
        self.drive(self.net.run, detect_at_end=detect_at_end)
        return self.read_off(read_first_layer(self.first_layer.values()))


def detect_deadlocks_distributed(
    matched: MatchedTrace, **options: Any
) -> DistributedOutcome:
    """One-call convenience wrapper: stream, settle, detect once.
    ``options`` are :class:`DistributedDeadlockDetector`'s."""
    return DistributedDeadlockDetector(matched, **options).run()
