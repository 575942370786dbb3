"""Interior and root TBON nodes.

Interior nodes are pure tree plumbing: they aggregate
``collectiveReady`` and ``ackConsistentState`` upward (forwarding a
wave's readiness only once *all* of their descendant participants
contributed — the order-preserving aggregation of [12]), broadcast
root messages downward, and relay wait-info replies upward.

The root node (``WfgCheck`` in Figure 1(b)) completes collective
matching tree-wide, drives the Section 5 detection protocol, resolves
the gathered wait-for conditions into the AND/OR wait-for graph and
runs the deadlock criterion; the DOT/HTML/JSON reports of a detection
are rendered when its record is asked for them. Detection-phase
durations are split into the paper's activity groups: synchronization
and WFG-gather times come from the simulated network clock, while
graph build / deadlock check / output generation are measured
computation times of the root itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple, TypeVar,
)

from repro.core.messages import (
    AckConsistentState,
    CollectiveAck,
    CollectiveReady,
    RequestConsistentState,
    RequestWaits,
    WaitInfoMsg,
)
from repro.core.waitfor import WaitForCondition, resolve_conditions
from repro.mpi.communicator import CommRegistry
from repro.obs.events import PID_TBON
from repro.obs.flight import NULL_FLIGHT_RECORDER, FlightRecorder
from repro.perf.timers import (
    PHASE_DEADLOCK_CHECK,
    PHASE_GRAPH_BUILD,
    PHASE_OUTPUT,
    PHASE_SYNCHRONIZATION,
    PHASE_WFG_GATHER,
    PhaseTimers,
)
from repro.tbon.aggregation import WaveAggregator, WaveContribution
from repro.tbon.network import Transport
from repro.tbon.topology import TbonTopology
from repro.util.errors import ProtocolError
from repro.wfg.detect import DetectionResult, detect_deadlock
from repro.wfg.dot import render_dot, write_dot
from repro.wfg.graph import WaitForGraph
from repro.wfg.report import (
    render_html_report,
    render_json_report,
    write_html_report,
)

_T = TypeVar("_T")


class InteriorNode:
    """A non-root, non-first-layer tree node: aggregate and relay."""

    def __init__(
        self, node_id: int, topology: TbonTopology, comms: CommRegistry
    ) -> None:
        self.node_id = node_id
        self.topology = topology
        self.comms = comms
        self._agg = WaveAggregator()
        self._subtree_ranks = set(topology.ranks_under(node_id))
        # Every first-layer node hosts a rank: count their hosts, not
        # every first-layer node's path (p^2 at construction).
        self._first_layer_below = len(
            {topology.host_of_rank(rank) for rank in self._subtree_ranks}
        )
        self._ack_counts: Dict[int, int] = {}
        self._participant_cache: Dict[int, int] = {}
        self.stats: Dict[str, int] = {}

    def handle(self, msg: object, net: Transport, src: int) -> None:
        self.stats[type(msg).__name__] = self.stats.get(type(msg).__name__, 0) + 1
        parent = self.topology.parent(self.node_id)
        if isinstance(msg, CollectiveReady):
            emitted = self._agg.add(
                (msg.comm_id, msg.wave_index),
                WaveContribution(count=msg.count, kind=msg.kind, root=msg.root),
                expected=self._expected_participants(msg.comm_id),
            )
            if emitted is not None:
                net.send(
                    self.node_id,
                    parent,
                    CollectiveReady(
                        comm_id=msg.comm_id,
                        wave_index=msg.wave_index,
                        kind=emitted.kind,
                        root=emitted.root,
                        count=emitted.count,
                    ),
                    CollectiveReady.wire_size,
                )
        elif isinstance(msg, AckConsistentState):
            total = self._ack_counts.get(msg.detection_id, 0) + msg.count
            self._ack_counts[msg.detection_id] = total
            if total == self._first_layer_below:
                del self._ack_counts[msg.detection_id]
                net.send(
                    self.node_id,
                    parent,
                    AckConsistentState(msg.detection_id, count=total),
                    AckConsistentState.wire_size,
                )
            elif total > self._first_layer_below:
                raise ProtocolError("over-counted consistent-state acks")
        elif isinstance(msg, WaitInfoMsg):
            net.send(self.node_id, parent, msg, msg.wire_size)
        elif isinstance(
            msg, (CollectiveAck, RequestConsistentState, RequestWaits)
        ):
            for child in self.topology.children(self.node_id):
                net.send(self.node_id, child, msg, msg.wire_size)
        else:
            raise ProtocolError(
                f"interior node {self.node_id} cannot handle "
                f"{type(msg).__name__}"
            )

    def _expected_participants(self, comm_id: int) -> int:
        """Participants of the communicator under this subtree."""
        cached = self._participant_cache.get(comm_id)
        if cached is None:
            group = set(self.comms.get(comm_id).group)
            cached = sum(1 for r in self._subtree_ranks if r in group)
            self._participant_cache[comm_id] = cached
        return cached


@dataclass
class DetectionRecord:
    """One timeout-triggered detection run at the root.

    ``dot_text``, ``html_report`` and ``json_report`` are rendered on
    first read and kept; each render adds its duration to the output
    phase of ``timers``. They read None when the detection found no
    deadlock or the run was made with ``generate_outputs=False``.
    """

    detection_id: int
    requested_at: float
    consistent_at: Optional[float] = None
    gathered_at: Optional[float] = None
    graph: Optional[WaitForGraph] = None
    result: Optional[DetectionResult] = None
    conditions: Dict[int, WaitForCondition] = field(default_factory=dict)
    timers: PhaseTimers = field(default_factory=PhaseTimers)
    generate_outputs: bool = True
    #: Flight-recorder tails of the deadlocked ranks (rank -> events).
    flight_tails: Dict[int, List[dict]] = field(default_factory=dict)
    #: Human-readable blame chain along the witness cycle.
    blame: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return self.result is not None

    @property
    def has_deadlock(self) -> bool:
        return bool(self.result and self.result.has_deadlock)

    def _output(
        self, render: Callable[..., _T], *args: Any, **options: Any
    ) -> Optional[_T]:
        """``render(...)``, timed as output generation; None, with
        nothing called, for a record that has no reports."""
        if not (self.generate_outputs and self.has_deadlock):
            return None
        with self.timers.phase(PHASE_OUTPUT):
            return render(*args, **options)

    def _report(self, render: Callable[..., _T], *out: TextIO) -> Optional[_T]:
        """The HTML or JSON report, through a renderer or a writer."""
        return self._output(
            render, *out, self.graph, self.result, self.conditions,
            flight_tails=self.flight_tails, blame=self.blame,
        )

    @cached_property
    def dot_text(self) -> Optional[str]:
        return self._output(render_dot, self.graph, self.result)

    @cached_property
    def html_report(self) -> Optional[str]:
        return self._report(render_html_report)

    @cached_property
    def json_report(self) -> Optional[Dict[str, Any]]:
        """Machine-readable deadlock report (``repro-deadlock-report/1``)."""
        return self._report(render_json_report)

    def write_dot(self, out: TextIO) -> None:
        """Stream what ``dot_text`` reads to ``out``, keeping nothing."""
        self._output(write_dot, out, self.graph, self.result)

    def write_html(self, out: TextIO) -> None:
        """Stream what ``html_report`` reads to ``out``, keeping nothing."""
        self._report(write_html_report, out)


class RootNode:
    """The TBON root: collective matching and graph-based detection."""

    def __init__(
        self,
        node_id: int,
        topology: TbonTopology,
        comms: CommRegistry,
        *,
        generate_outputs: bool = True,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.node_id = node_id
        self.topology = topology
        self.comms = comms
        self.generate_outputs = generate_outputs
        self.flight = flight if flight is not None else NULL_FLIGHT_RECORDER
        self._agg = WaveAggregator()
        self._detections: Dict[int, DetectionRecord] = {}
        self._next_detection = 0
        self._active_detection: Optional[int] = None
        self._deferred_detections = 0
        self._pending_acks: Dict[int, int] = {}
        self._pending_waits: Dict[int, List[WaitInfoMsg]] = {}
        self.completed_detections: List[DetectionRecord] = []
        self.stats: Dict[str, int] = {}

    # -- message handling --------------------------------------------------

    def handle(self, msg: object, net: Transport, src: int) -> None:
        self.stats[type(msg).__name__] = self.stats.get(type(msg).__name__, 0) + 1
        if isinstance(msg, CollectiveReady):
            group_size = self.comms.get(msg.comm_id).size
            emitted = self._agg.add(
                (msg.comm_id, msg.wave_index),
                WaveContribution(count=msg.count, kind=msg.kind, root=msg.root),
                expected=group_size,
            )
            if emitted is not None:
                self._broadcast(
                    net, CollectiveAck(msg.comm_id, msg.wave_index)
                )
        elif isinstance(msg, AckConsistentState):
            self._handle_ack(msg, net)
        elif isinstance(msg, WaitInfoMsg):
            self._handle_wait_info(msg, net)
        else:
            raise ProtocolError(
                f"root cannot handle {type(msg).__name__}"
            )

    def _broadcast(
        self,
        net: Transport,
        msg: CollectiveAck | RequestConsistentState | RequestWaits,
    ) -> None:
        for child in self.topology.children(self.node_id):
            net.send(self.node_id, child, msg, msg.wire_size)

    # -- detection protocol ---------------------------------------------------

    def start_detection(self, net: Transport) -> int:
        """Timeout fired: request a consistent state (Section 5).

        Detections are strictly serialized, as in MUST (the next
        timeout is armed only after a detection completes): a request
        arriving while one is in flight is deferred and fires as soon
        as the active one finishes.
        """
        if self._active_detection is not None:
            self._deferred_detections += 1
            return self._active_detection
        detection_id = self._next_detection
        self._next_detection += 1
        self._active_detection = detection_id
        record = DetectionRecord(
            detection_id=detection_id,
            requested_at=net.now,
            generate_outputs=self.generate_outputs,
        )
        self._detections[detection_id] = record
        self._pending_acks[detection_id] = 0
        self._pending_waits[detection_id] = []
        self._broadcast(net, RequestConsistentState(detection_id))
        return detection_id

    def _handle_ack(self, msg: AckConsistentState, net: Transport) -> None:
        record = self._detections.get(msg.detection_id)
        if record is None:
            raise ProtocolError(f"ack for unknown detection {msg.detection_id}")
        total = self._pending_acks[msg.detection_id] + msg.count
        self._pending_acks[msg.detection_id] = total
        expected = len(self.topology.first_layer)
        if total < expected:
            return
        if total > expected:
            raise ProtocolError("more consistent-state acks than nodes")
        record.consistent_at = net.now
        record.timers.add(
            PHASE_SYNCHRONIZATION, net.now - record.requested_at
        )
        if net.obs.enabled:
            net.obs.tracer.complete(
                PHASE_SYNCHRONIZATION,
                cat="detection",
                ts=record.requested_at * 1e6,
                dur=(net.now - record.requested_at) * 1e6,
                pid=PID_TBON,
                tid=self.node_id,
                args={"detection": msg.detection_id},
            )
        self._broadcast(net, RequestWaits(msg.detection_id))

    def _handle_wait_info(self, msg: WaitInfoMsg, net: Transport) -> None:
        record = self._detections.get(msg.detection_id)
        if record is None:
            raise ProtocolError(
                f"wait info for unknown detection {msg.detection_id}"
            )
        waits = self._pending_waits[msg.detection_id]
        waits.append(msg)
        if len(waits) < len(self.topology.first_layer):
            return
        record.gathered_at = net.now
        assert record.consistent_at is not None
        record.timers.add(
            PHASE_WFG_GATHER, net.now - record.consistent_at
        )
        if net.obs.enabled:
            net.obs.tracer.complete(
                PHASE_WFG_GATHER,
                cat="detection",
                ts=record.consistent_at * 1e6,
                dur=(net.now - record.consistent_at) * 1e6,
                pid=PID_TBON,
                tid=self.node_id,
                args={"detection": msg.detection_id},
            )
        self._finish_detection(record, waits, net)
        del self._detections[msg.detection_id]
        del self._pending_acks[msg.detection_id]
        del self._pending_waits[msg.detection_id]
        self._active_detection = None
        if self._deferred_detections > 0:
            self._deferred_detections -= 1
            self.start_detection(net)

    # -- WFG construction at the root -----------------------------------------

    def _finish_detection(
        self,
        record: DetectionRecord,
        waits: Sequence[WaitInfoMsg],
        net: Optional[Transport] = None,
    ) -> None:
        with record.timers.phase(PHASE_GRAPH_BUILD):
            conditions = self._resolve_conditions(waits)
            finished = {
                rank for msg in waits for rank in msg.finished
            }
            graph = WaitForGraph.from_conditions(
                self.topology.num_ranks,
                conditions.values(),
                finished=finished,
            )
        with record.timers.phase(PHASE_DEADLOCK_CHECK):
            result = detect_deadlock(graph)
        record.graph = graph
        record.result = result
        record.conditions = conditions
        if result.has_deadlock:
            # Imported lazily: repro.obs.causal itself builds on the
            # core WFG types, so a module-level import would cycle.
            from repro.obs.causal import blame_chain

            record.blame = tuple(blame_chain(graph, result, conditions))
            # The reports themselves wait until the record is asked for
            # them. The tails cannot: the rings are reset by the next
            # job, and on the sharded backend they live in workers that
            # exit with this run. Snapshotting describes every retained
            # operation, which is report generation, not tracking.
            with record.timers.phase(PHASE_OUTPUT):
                if self.generate_outputs and self.flight.enabled:
                    record.flight_tails = self.flight.snapshot(
                        sorted(result.deadlocked)
                    )
        if net is not None and net.obs.enabled:
            obs = net.obs
            obs.metrics.inc("detection.runs")
            if record.has_deadlock:
                obs.metrics.inc("detection.deadlocks")
            obs.metrics.merge_phase_breakdown(record.timers.breakdown())
            # A report rendered from here on is output generation the
            # fold above has not seen; the observer hears of it then.
            record.timers.sink = obs.metrics.merge_phase_breakdown
            # The root's computation phases are wall-clock durations;
            # lay them out sequentially after the gather on the
            # simulated timeline so the trace shows the full pipeline.
            assert record.gathered_at is not None
            cursor = record.gathered_at * 1e6
            for phase in (
                PHASE_GRAPH_BUILD, PHASE_DEADLOCK_CHECK, PHASE_OUTPUT
            ):
                dur = record.timers.elapsed(phase) * 1e6
                obs.tracer.complete(
                    phase,
                    cat="detection",
                    ts=cursor,
                    dur=dur,
                    pid=PID_TBON,
                    tid=self.node_id,
                    args={"detection": record.detection_id},
                )
                cursor += dur
        self.completed_detections.append(record)

    def _resolve_conditions(
        self, waits: Sequence[WaitInfoMsg]
    ) -> Dict[int, WaitForCondition]:
        return resolve_conditions(
            (info for msg in waits for info in msg.infos),
            lambda comm_id: self.comms.get(comm_id).group,
        )

    # -- results ------------------------------------------------------------

    def last_detection(self) -> Optional[DetectionRecord]:
        return self.completed_detections[-1] if self.completed_detections else None
