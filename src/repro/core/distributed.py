"""Distributed wait state tracking: the first-layer TBON node.

This implements Figure 7's handler set plus the Section 5 protocol
endpoints, over the per-operation state of :mod:`repro.core.opstate`:

* ``newOp``      — an application operation arrives (sends route their
  ``passSend``; receives/probes enter the local matcher);
* ``activate``   — the transition system reaches an operation (emits
  ``collectiveReady`` / ``recvActive`` / deferred ``recvActiveAck``);
* ``handlePassSend`` / ``handleRecvActive`` / ``handleRecvActiveAck``
  / ``handleCollectiveAck`` — exactly the paper's message handlers;
* ``handleRequestConsistentState`` (Figure 8: freeze + double
  ping-pong), ``handleRequestWaits`` — the detection protocol.

Each node owns the state components ``l_i`` of exactly the ranks that
report to it and advances them whenever an operation's ``canAdvance``
holds; trace windows slide, so memory stays bounded when the tool
keeps up (Section 4.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    AckConsistentState,
    CollectiveAck,
    CollectiveReady,
    CollectiveWait,
    NewOpMsg,
    P2PWait,
    PassSend,
    Ping,
    Pong,
    RankDoneMsg,
    RankWaitInfo,
    RecvActive,
    RecvActiveAck,
    RequestConsistentState,
    RequestWaits,
    WaitInfoMsg,
)
from repro.core.opstate import OpState, RankWindow
from repro.core.waitfor import GroupClause
from repro.matching.distributed_p2p import MatchEvent, NodeP2PMatcher
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, PROC_NULL, OpKind
from repro.mpi.ops import Operation, OpRef
from repro.obs.events import PID_TBON, PID_WAIT
from repro.obs.flight import NULL_FLIGHT_RECORDER, FlightRecorder
from repro.tbon.aggregation import WaveAggregator, WaveContribution
from repro.tbon.network import Transport
from repro.tbon.topology import TbonTopology
from repro.util.errors import ProtocolError


@dataclass
class _DetectionState:
    detection_id: int
    outstanding_pongs: Set[int] = field(default_factory=set)
    acked: bool = False


def wait_info_args(info: RankWaitInfo, comms: CommRegistry) -> Dict[str, object]:
    """Serialize a :class:`RankWaitInfo` into trace-event ``args``.

    This is the wire format :mod:`repro.obs.causal` parses back when it
    reconstructs wait-for conditions from a trace artifact, so both
    sides live off this one function. Collective entries carry the
    communicator group because the artifact reader has no registry to
    resolve it against.
    """
    entries: List[Dict[str, object]] = []
    for entry in info.entries:
        if isinstance(entry, P2PWait):
            entries.append(
                {"targets": list(entry.or_targets), "reason": entry.reason}
            )
        elif isinstance(entry, CollectiveWait):
            entries.append(
                {
                    "collective": {
                        "comm": entry.comm_id,
                        "wave": entry.wave_index,
                        "group": list(comms.get(entry.comm_id).group),
                    }
                }
            )
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown wait entry {entry!r}")
    return {
        "rank": info.rank,
        "op": info.op_description,
        "or": info.or_semantics,
        "entries": entries,
    }


class FirstLayerNode:
    """One first-layer tool node: hosts a contiguous block of ranks."""

    def __init__(
        self,
        node_id: int,
        topology: TbonTopology,
        comms: CommRegistry,
        *,
        window_limit: int = 1_000_000,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.node_id = node_id
        self.topology = topology
        self.comms = comms
        self.flight = flight if flight is not None else NULL_FLIGHT_RECORDER
        self.hosted: Tuple[int, ...] = topology.ranks_of_host(node_id)
        # Live ring-buffer handles for the per-op record sites (see
        # FlightRecorder.live_buffer): the wait-state tracker appends
        # inline to stay within the observability parity bound.
        self._flight_bufs = (
            {rank: self.flight.live_buffer(rank) for rank in self.hosted}
            if self.flight.enabled
            else None
        )
        self._flight_trim_at = self.flight.trim_at
        self.windows: Dict[int, RankWindow] = {
            rank: RankWindow(rank, max_ops=window_limit)
            for rank in self.hosted
        }
        self.matcher = NodeP2PMatcher()
        #: Next collective wave index per (rank, comm).
        self._next_wave: Dict[Tuple[int, int], int] = {}
        #: Wave key -> {rank: op ts} of local participants seen so far.
        self._wave_ops: Dict[Tuple[int, int], Dict[int, int]] = {}
        #: Op ref -> wave key (O(1) lookup; evicted with the wave).
        self._wave_key_by_op: Dict[OpRef, Tuple[int, int]] = {}
        #: Local readiness aggregation with consistency checks.
        self._wave_agg = WaveAggregator()
        self._local_participant_cache: Dict[int, int] = {}
        self.frozen = False
        self._detection: Optional[_DetectionState] = None
        #: Statistics (message counts by type name).
        self.stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def handle(self, msg: object, net: Transport, src: int) -> None:
        mtype = type(msg)
        name = mtype.__name__
        self.stats[name] = self.stats.get(name, 0) + 1
        handler = self._HANDLERS.get(mtype)
        if handler is None:
            raise ProtocolError(
                f"first-layer node {self.node_id} cannot handle {name}"
            )
        handler(self, msg, net, src)

    def _handle_ping(self, msg: Ping, net: Transport, src: int) -> None:
        net.send(self.node_id, src,
                 Pong(msg.detection_id, msg.remaining), Pong.wire_size)

    # ------------------------------------------------------------------
    # newOp / activate / advance (Figure 7 core)
    # ------------------------------------------------------------------

    def _handle_new_op(self, msg: NewOpMsg, net: Transport, src: int) -> None:
        op = msg.op
        window = self.windows.get(op.rank)
        if window is None:
            raise ProtocolError(
                f"rank {op.rank} not hosted on node {self.node_id}"
            )
        state = window.add(op)
        fbufs = self._flight_bufs
        if fbufs is not None:
            fbuf = fbufs[op.rank]
            fbuf.append((net.now, "newOp", op))
            if len(fbuf) >= self._flight_trim_at:
                self.flight.trim(op.rank)
        if net.obs.enabled:
            net.obs.metrics.gauge(
                f"waitstate.window.node{self.node_id}"
            ).set(len(window))
        kind = op.kind
        if kind.send and op.peer is not None and op.peer >= 0:
            # newOp: route the send's matching info to the node hosting
            # the matching receive (possibly ourselves — uniform path).
            info = PassSend(
                send_rank=op.rank,
                send_ts=op.ts,
                comm_id=op.comm_id,
                dest=op.peer,
                tag=op.tag,
                nbytes=op.nbytes,
            )
            net.send(
                self.node_id,
                self.topology.host_of_rank(op.peer),
                info,
                PassSend.wire_size,
            )
        elif (kind.recv or kind is OpKind.PROBE) and op.peer != PROC_NULL:
            event = self.matcher.post_receive(op)
            if event is not None:
                self._process_match(event, net)
        elif kind.collective or kind is OpKind.FINALIZE:
            key = (op.rank, op.comm_id)
            index = self._next_wave.get(key, 0)
            self._next_wave[key] = index + 1
            if kind.collective:
                wave = (op.comm_id, index)
                self._wave_ops.setdefault(wave, {})[op.rank] = op.ts
                self._wave_key_by_op[op.ref] = wave
        self._try_advance(op.rank, net)

    def _handle_rank_done(
        self, msg: RankDoneMsg, net: Transport, src: int
    ) -> None:
        window = self.windows.get(msg.rank)
        if window is None:
            raise ProtocolError(
                f"rank {msg.rank} not hosted on node {self.node_id}"
            )
        window.done = True

    def _wave_of(self, op: Operation) -> Tuple[int, int]:
        wave = self._wave_key_by_op.get(op.ref)
        if wave is None:
            raise ProtocolError(f"no wave recorded for {op.describe()}")
        return wave

    def _local_participants(self, comm_id: int) -> int:
        cached = self._local_participant_cache.get(comm_id)
        if cached is None:
            group = set(self.comms.get(comm_id).group)
            cached = sum(1 for r in self.hosted if r in group)
            self._local_participant_cache[comm_id] = cached
        return cached

    def _activate(self, state: OpState, net: Transport) -> None:
        """The transition system reached this operation (Figure 7)."""
        op = state.op
        state.active = True
        state.activated = True
        # Unconditional: one float store; both the dwell events and the
        # always-on flight recorder need the activation stamp.
        state.activated_at = net.now
        kind = op.kind
        if kind.collective:
            wave = self._wave_of(op)
            emitted = self._wave_agg.add(
                wave,
                WaveContribution(count=1, kind=op.kind, root=op.root),
                expected=self._local_participants(op.comm_id),
            )
            if emitted is not None:
                # isLastInactiveCollectivOnNode: all local participants
                # active -> aggregate readiness towards the root.
                net.send(
                    self.node_id,
                    self.topology.parent(self.node_id),
                    CollectiveReady(
                        comm_id=wave[0],
                        wave_index=wave[1],
                        kind=emitted.kind,
                        root=emitted.root,
                        count=emitted.count,
                    ),
                    CollectiveReady.wire_size,
                )
            return
        if (kind.recv or kind.probe) and state.matched_send is not None:
            self._send_recv_active(state, net)
            return
        if kind.send:
            if state.got_recv_active:
                self._send_ack(state.matched_recv, probe=False, net=net)
            if state.pending_probe_acks is not None:
                for probe_ref in state.pending_probe_acks:
                    self._send_ack(probe_ref, probe=True, net=net)
                state.pending_probe_acks = None

    def _send_recv_active(self, state: OpState, net: Transport) -> None:
        assert state.matched_send is not None
        send_rank, send_ts = state.matched_send
        msg = RecvActive(
            send_rank=send_rank,
            send_ts=send_ts,
            recv_rank=state.op.rank,
            recv_ts=state.op.ts,
            probe=state.op.is_probe(),
        )
        net.send(
            self.node_id,
            self.topology.host_of_rank(send_rank),
            msg,
            RecvActive.wire_size,
        )

    def _send_ack(
        self, recv_ref: Optional[OpRef], probe: bool, net: Transport
    ) -> None:
        if recv_ref is None:
            raise ProtocolError("acknowledging unknown receive")
        msg = RecvActiveAck(
            recv_rank=recv_ref[0], recv_ts=recv_ref[1], probe=probe
        )
        net.send(
            self.node_id,
            self.topology.host_of_rank(recv_ref[0]),
            msg,
            RecvActiveAck.wire_size,
        )

    def _can_advance(self, state: OpState, window: RankWindow) -> bool:
        op = state.op
        kind = op.kind
        if kind is OpKind.FINALIZE:
            return False
        if kind.p2p and op.peer == PROC_NULL:
            return True
        if not state.is_blocking():
            return True
        if kind.send:
            return state.got_recv_active
        if kind.recv or kind.probe:
            return state.got_ack
        if kind.collective:
            return state.collective_acked
        if kind.completion:
            return window.completion_ready(state)
        return False

    def _try_advance(self, rank: int, net: Transport) -> None:
        if self.frozen:
            return
        window = self.windows[rank]
        obs = net.obs
        fbufs = self._flight_bufs
        fbuf = None if fbufs is None else fbufs[rank]
        while True:
            state = window.current_op()
            if state is None:
                return  # awaiting events / rank finished past window
            if not state.activated:
                self._activate(state, net)
            if not self._can_advance(state, window):
                if not state.was_blocked:
                    state.was_blocked = True
                    if obs.enabled:
                        obs.metrics.inc("waitstate.blocked_ops")
                        # Ops like finalize can stall transiently but
                        # carry no wait-for description.
                        op = state.op
                        if (
                            op.is_p2p()
                            or op.is_collective()
                            or op.is_completion()
                        ):
                            state.blocked_info = self._wait_info(
                                rank, state, window
                            )
                    if fbuf is not None:
                        fbuf.append((net.now, "block", state.op))
                        if len(fbuf) >= self._flight_trim_at:
                            self.flight.trim(rank)
                return
            if obs.enabled:
                if state.was_blocked:
                    obs.metrics.inc("waitstate.can_advance_flips")
                if state.activated_at >= 0.0:
                    dwell = net.now - state.activated_at
                    obs.metrics.observe(f"waitstate.dwell.rank{rank}", dwell)
                    if state.was_blocked:
                        args = (
                            wait_info_args(state.blocked_info, self.comms)
                            if state.blocked_info is not None
                            else None
                        )
                        obs.tracer.complete(
                            "dwell",
                            cat="waitstate.dwell",
                            ts=state.activated_at * 1e6,
                            dur=dwell * 1e6,
                            pid=PID_WAIT,
                            tid=rank,
                            args=args,
                        )
            if fbuf is not None:
                fbuf.append((net.now, "advance", state.op))
                if len(fbuf) >= self._flight_trim_at:
                    self.flight.trim(rank)
            window.advance()

    def _resume_all(self, net: Transport) -> None:
        self.frozen = False
        for rank in self.hosted:
            self._try_advance(rank, net)

    # ------------------------------------------------------------------
    # intralayer handlers (Figure 7)
    # ------------------------------------------------------------------

    def _process_match(self, event: MatchEvent, net: Transport) -> None:
        recv_rank, recv_ts = event.recv_ref
        window = self.windows[recv_rank]
        state = window.require(recv_ts)
        state.matched_send = event.send.send_ref
        if state.activated:
            self._send_recv_active(state, net)

    def _handle_pass_send(
        self, msg: PassSend, net: Transport, src: int
    ) -> None:
        for event in self.matcher.store_send(msg):
            self._process_match(event, net)

    def _handle_recv_active(
        self, msg: RecvActive, net: Transport, src: int
    ) -> None:
        window = self.windows.get(msg.send_rank)
        if window is None:
            raise ProtocolError(
                f"recvActive for rank {msg.send_rank} reached node "
                f"{self.node_id}"
            )
        state = window.require(msg.send_ts)
        if msg.probe:
            if state.activated:
                self._send_ack(msg.recv_ref, probe=True, net=net)
            elif state.pending_probe_acks is None:
                state.pending_probe_acks = [msg.recv_ref]
            else:
                state.pending_probe_acks.append(msg.recv_ref)
            return
        state.matched_recv = msg.recv_ref
        state.got_recv_active = True
        state.completion_satisfied = True
        if state.activated:
            self._send_ack(msg.recv_ref, probe=False, net=net)
            window.evict_completed_send(msg.send_ts)
        self._try_advance(msg.send_rank, net)

    def _handle_recv_active_ack(
        self, msg: RecvActiveAck, net: Transport, src: int
    ) -> None:
        window = self.windows.get(msg.recv_rank)
        if window is None:
            raise ProtocolError(
                f"recvActiveAck for rank {msg.recv_rank} reached node "
                f"{self.node_id}"
            )
        state = window.require(msg.recv_ts)
        state.got_ack = True
        state.completion_satisfied = True
        self._try_advance(msg.recv_rank, net)

    def _handle_collective_ack(
        self, msg: CollectiveAck, net: Transport, src: int
    ) -> None:
        # A root ack implies every participant (including all hosted
        # ones) already activated its wave op, so the local records are
        # complete and can be retired after marking.
        wave = (msg.comm_id, msg.wave_index)
        members = self._wave_ops.pop(wave, {})
        for rank, ts in members.items():
            state = self.windows[rank].get(ts)
            if state is not None:
                state.collective_acked = True
            self._wave_key_by_op.pop((rank, ts), None)
        for rank in members:
            self._try_advance(rank, net)

    # ------------------------------------------------------------------
    # consistent state & wait gathering (Section 5)
    # ------------------------------------------------------------------

    def _handle_request_consistent_state(
        self, msg: RequestConsistentState, net: Transport, src: int
    ) -> None:
        """Figure 8, with a symmetric ping set.

        The paper pings the hosts of matching receives for active
        sends. That alone leaves one race open: a receive host that
        activates a matched receive *after* answering the send host's
        ping but *before* its own freeze emits a ``recvActive`` that
        can arrive after the send host replied its wait info. Pinging
        symmetrically — the receive host also ping-pongs with the host
        of its matched send — closes it: the receive host's ping
        travels the same FIFO channel as (behind) its ``recvActive``,
        so the send host processes the handshake before answering, and
        its ``requestWaits`` reply (gated on *all* acks) reflects it.
        """
        self.frozen = True  # stopProgress()
        if net.obs.enabled:
            net.obs.tracer.instant(
                "freeze",
                cat="detection",
                ts=net.now * 1e6,
                pid=PID_TBON,
                tid=self.node_id,
                args={"detection": msg.detection_id},
            )
        peers: Set[int] = set()
        for window in self.windows.values():
            for state in window.iter_states():
                if not state.activated:
                    continue
                op = state.op
                if (
                    op.is_send()
                    and not state.got_recv_active
                    and op.peer is not None
                    and op.peer >= 0
                ):
                    peers.add(self.topology.host_of_rank(op.peer))
                elif (
                    (op.is_recv() or op.is_probe())
                    and not state.got_ack
                    and state.matched_send is not None
                ):
                    peers.add(
                        self.topology.host_of_rank(state.matched_send[0])
                    )
        detection = _DetectionState(
            detection_id=msg.detection_id, outstanding_pongs=peers
        )
        self._detection = detection
        if not peers:
            self._ack_consistent(net)
            return
        for peer in sorted(peers):
            net.send(
                self.node_id, peer, Ping(msg.detection_id, 1), Ping.wire_size
            )

    def _handle_pong(self, msg: Pong, net: Transport, src: int) -> None:
        detection = self._detection
        if detection is None or detection.detection_id != msg.detection_id:
            raise ProtocolError(
                f"node {self.node_id}: pong for unknown detection "
                f"{msg.detection_id}"
            )
        if msg.remaining > 0:
            net.send(
                self.node_id,
                src,
                Ping(msg.detection_id, msg.remaining - 1),
                Ping.wire_size,
            )
            return
        detection.outstanding_pongs.discard(src)
        if not detection.outstanding_pongs:
            self._ack_consistent(net)

    def _ack_consistent(self, net: Transport) -> None:
        detection = self._detection
        assert detection is not None and not detection.acked
        detection.acked = True
        net.send(
            self.node_id,
            self.topology.parent(self.node_id),
            AckConsistentState(detection.detection_id),
            AckConsistentState.wire_size,
        )

    def _handle_request_waits(
        self, msg: RequestWaits, net: Transport, src: int
    ) -> None:
        infos: List[RankWaitInfo] = []
        blocked_states: List[OpState] = []
        unblocked: List[int] = []
        finished: List[int] = []
        for rank in self.hosted:
            window = self.windows[rank]
            if window.finished():
                finished.append(rank)
                continue
            state = window.current_op()
            if state is None:
                # Awaiting events: the rank is still producing ops.
                unblocked.append(rank)
                continue
            if not state.activated:
                # The operation arrived *during* the freeze: it is not
                # part of the frozen transition-system state (its
                # activation is a transition, which stopProgress
                # suspended). The rank is still progressing, not
                # blocked — reporting it would fabricate wait-for arcs
                # that were never evaluated against the cut.
                unblocked.append(rank)
                continue
            if self._can_advance(state, window):
                unblocked.append(rank)
                continue
            infos.append(self._wait_info(rank, state, window))
            blocked_states.append(state)
        reply = WaitInfoMsg(
            detection_id=msg.detection_id,
            node_id=self.node_id,
            infos=tuple(infos),
            unblocked=tuple(unblocked),
            finished=tuple(finished),
        )
        net.send(
            self.node_id,
            self.topology.parent(self.node_id),
            reply,
            reply.wire_size,
        )
        self._detection = None
        if self.flight.enabled:
            for info, state in zip(infos, blocked_states):
                self.flight.record(
                    info.rank, "blocked@detection", net.now, state.op
                )
        if net.obs.enabled:
            net.obs.metrics.inc("waitstate.blocked_reported", len(infos))
            for info, state in zip(infos, blocked_states):
                # Terminal wait state of this rank at the consistent
                # cut: the raw material for `repro blame` on artifacts.
                args = wait_info_args(info, self.comms)
                args["since"] = state.activated_at * 1e6
                args["detection"] = msg.detection_id
                net.obs.tracer.instant(
                    "blocked",
                    cat="waitstate.final",
                    ts=net.now * 1e6,
                    pid=PID_WAIT,
                    tid=info.rank,
                    args=args,
                )
            net.obs.tracer.instant(
                "resume",
                cat="detection",
                ts=net.now * 1e6,
                pid=PID_TBON,
                tid=self.node_id,
                args={
                    "detection": msg.detection_id,
                    "blocked": len(infos),
                    "unblocked": len(unblocked),
                    "finished": len(finished),
                    "finished_ranks": list(finished),
                    "unblocked_ranks": list(unblocked),
                },
            )
        self._resume_all(net)

    def _p2p_wait_entry(self, state: OpState) -> P2PWait:
        op = state.op
        if op.is_send():
            if state.matched_recv is not None:
                return P2PWait(
                    (state.matched_recv[0],), "matched receive not active"
                )
            return P2PWait((op.peer,), "no matching receive posted")  # type: ignore[arg-type]
        # Receive or probe.
        if state.matched_send is not None:
            return P2PWait((state.matched_send[0],), "matched send not active")
        if op.peer == ANY_SOURCE:
            clause = GroupClause(
                self.comms.get(op.comm_id).group,
                op.rank,
                "wildcard receive: any sender qualifies",
            )
            return P2PWait(clause, clause.reason)
        return P2PWait((op.peer,), "no matching send posted")  # type: ignore[arg-type]

    def _wait_info(
        self, rank: int, state: OpState, window: RankWindow
    ) -> RankWaitInfo:
        op = state.op
        entries: List[object] = []
        or_semantics = False
        if op.is_p2p():
            entries.append(self._p2p_wait_entry(state))
        elif op.is_collective():
            wave = self._wave_of(op)
            entries.append(
                CollectiveWait(comm_id=wave[0], wave_index=wave[1])
            )
        elif op.is_completion():
            from repro.mpi.constants import completion_needs_all

            or_semantics = not completion_needs_all(op.kind)
            for target in window.completion_targets(state):
                if target.completion_satisfied or target.completes_locally():
                    continue
                entries.append(self._p2p_wait_entry(target))
        else:
            raise ProtocolError(
                f"{op.describe()} cannot be blocked; tool bug"
            )
        return RankWaitInfo(
            rank=rank,
            op_description=op.describe(),
            entries=tuple(entries),
            or_semantics=or_semantics,
        )

    #: Message type -> handler; every handler takes (msg, net, src).
    _HANDLERS: Dict[type, Callable[..., None]] = {
        NewOpMsg: _handle_new_op,
        RankDoneMsg: _handle_rank_done,
        PassSend: _handle_pass_send,
        RecvActive: _handle_recv_active,
        RecvActiveAck: _handle_recv_active_ack,
        CollectiveAck: _handle_collective_ack,
        RequestConsistentState: _handle_request_consistent_state,
        Ping: _handle_ping,
        Pong: _handle_pong,
        RequestWaits: _handle_request_waits,
    }

    # ------------------------------------------------------------------
    # introspection (tests / detector)
    # ------------------------------------------------------------------

    def state_vector(self) -> Dict[int, int]:
        """Current ``l_i`` for every hosted rank."""
        return {rank: w.current for rank, w in self.windows.items()}

    def peak_window_size(self) -> int:
        return max((w.peak_size for w in self.windows.values()), default=0)
