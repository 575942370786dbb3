"""Message vocabulary of the distributed tool (Sections 4 and 5).

Intralayer wait-state messages (Section 4.1):

* :class:`PassSend` — send information forwarded to the node hosting
  the matching receive (also carries the p2p matching envelope);
* :class:`RecvActive` — the matched receive is now active;
* :class:`RecvActiveAck` — the matched send is (also) active.

Tree flows:

* :class:`NewOpMsg` — an intercepted application operation, streamed
  from rank to its first-layer host;
* :class:`CollectiveReady` / :class:`CollectiveAck` — aggregated wave
  readiness up, completion broadcast down (doubles as the distributed
  collective matching of [10]);

Consistent-state / detection protocol (Section 5, Figure 8):

* :class:`RequestConsistentState`, :class:`Ping`, :class:`Pong`,
  :class:`AckConsistentState`, :class:`RequestWaits`,
  :class:`WaitInfoMsg`.

Every message is a plain frozen, slotted dataclass with a
``wire_size`` used by the cost accounting — wait-state messages cannot
be aggregated into streamed buffers (Section 4.2), so each pays full
per-message cost.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.mpi.constants import OpKind
from repro.mpi.ops import Operation, OpRef


@dataclass(frozen=True, slots=True)
class NewOpMsg:
    """One intercepted MPI call, in issue order per rank."""

    op: Operation

    wire_size = 64


@dataclass(frozen=True, slots=True)
class RankDoneMsg:
    """The application rank finished (returned from its program)."""

    rank: int

    wire_size = 16


@dataclass(frozen=True, slots=True)
class PassSend:
    """Send info routed to the node hosting the matching receive.

    Carries the full matching envelope plus the send's timestamp
    (``o.l`` in Figure 7) so the receive side can later address
    ``RecvActive`` precisely.
    """

    send_rank: int
    send_ts: int
    comm_id: int
    dest: int
    tag: int
    nbytes: int

    wire_size = 48

    @property
    def send_ref(self) -> OpRef:
        return (self.send_rank, self.send_ts)


@dataclass(frozen=True, slots=True)
class RecvActive:
    """The receive matching send ``(send_rank, send_ts)`` is active.

    ``recv_ref`` is included so the send-hosting node can echo it back
    in the acknowledgement (``recv.l`` in Figure 7).
    """

    send_rank: int
    send_ts: int
    recv_rank: int
    recv_ts: int
    #: The "receive" is an MPI_Probe: the send side must acknowledge
    #: activation but not treat the probe as its rule-(2) partner.
    probe: bool = False

    wire_size = 32

    @property
    def send_ref(self) -> OpRef:
        return (self.send_rank, self.send_ts)

    @property
    def recv_ref(self) -> OpRef:
        return (self.recv_rank, self.recv_ts)


@dataclass(frozen=True, slots=True)
class RecvActiveAck:
    """The send matching receive ``(recv_rank, recv_ts)`` is active."""

    recv_rank: int
    recv_ts: int
    probe: bool = False

    wire_size = 24

    @property
    def recv_ref(self) -> OpRef:
        return (self.recv_rank, self.recv_ts)


@dataclass(frozen=True, slots=True)
class CollectiveReady:
    """Subtree readiness for one collective wave, aggregated upward."""

    comm_id: int
    wave_index: int
    kind: OpKind
    root: Optional[int]
    #: Number of participating ranks active in the sending subtree.
    count: int

    wire_size = 40


@dataclass(frozen=True, slots=True)
class CollectiveAck:
    """Root-confirmed wave completion, broadcast to the first layer."""

    comm_id: int
    wave_index: int

    wire_size = 24


@dataclass(frozen=True, slots=True)
class RequestConsistentState:
    """Root -> first layer: freeze transitions, settle in-flight msgs."""

    detection_id: int

    wire_size = 16


@dataclass(frozen=True, slots=True)
class Ping:
    """Double ping-pong synchronization (Figure 8)."""

    detection_id: int
    #: Remaining pings after this one (1 on the first round, 0 after).
    remaining: int

    wire_size = 16


@dataclass(frozen=True, slots=True)
class Pong:
    detection_id: int
    remaining: int

    wire_size = 16


@dataclass(frozen=True, slots=True)
class AckConsistentState:
    """First layer -> root (aggregated): node is consistent."""

    detection_id: int
    #: Number of first-layer nodes covered by this (aggregated) ack.
    count: int = 1

    wire_size = 16


@dataclass(frozen=True, slots=True)
class RequestWaits:
    """Root -> first layer: send wait-for conditions, then resume."""

    detection_id: int

    wire_size = 16


@dataclass(frozen=True, slots=True)
class P2PWait:
    """A point-to-point style wait-for entry of one blocked process.

    ``or_targets`` carries the alternative target ranks: a one-element
    tuple for a directed wait, a
    :class:`~repro.core.waitfor.GroupClause` for a wildcard one (OR
    semantics over the communicator, never expanded rank by rank).
    """

    or_targets: Sequence[int]
    reason: str


@dataclass(frozen=True, slots=True)
class CollectiveWait:
    """A collective wait-for entry, resolved rank-wise at the root."""

    comm_id: int
    wave_index: int


@dataclass(frozen=True, slots=True)
class RankWaitInfo:
    """Wait-for condition of one blocked rank (CNF over entries)."""

    rank: int
    op_description: str
    #: AND over entries; each entry is a P2PWait (OR clause) or a
    #: CollectiveWait (expanded to AND clauses at the root).
    entries: Tuple[object, ...]
    #: Whether the entries of a completion op combine as one OR clause
    #: (Waitany/Waitsome) instead of an AND (everything else).
    or_semantics: bool = False


@dataclass(frozen=True, slots=True)
class WaitInfoMsg:
    """First layer -> root: blocked-rank conditions of one node."""

    detection_id: int
    node_id: int
    infos: Tuple[RankWaitInfo, ...]
    #: Hosted ranks that can still advance or whose events are still
    #: streaming in (they may release waiters).
    unblocked: Tuple[int, ...] = ()
    #: Hosted ranks that terminated (reached MPI_Finalize or completed
    #: their program): they can release nobody.
    finished: Tuple[int, ...] = ()

    @property
    def wire_size(self) -> int:
        return 16 + sum(
            16 + 8 * sum(
                len(getattr(e, "or_targets", (0,))) for e in info.entries
            )
            for info in self.infos
        )
