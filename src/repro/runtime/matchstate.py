"""Message-matching state of the virtual MPI implementation.

This models what a real MPI library does underneath: per-destination
message queues with non-overtaking delivery per (source, communicator),
posted-receive queues, wildcard resolution, probe visibility, and
collective "waves" per communicator.

The matching decisions made here are the ground truth the tool observes
("we use return values of MPI calls to observe the interleaving that
occurs at runtime") — wildcard receive sources chosen here are recorded
into the trace as ``observed_peer``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, OpKind
from repro.mpi.ops import Operation, OpRef
from repro.util.errors import CollectiveMismatchError


@dataclass(slots=True)
class PendingSend:
    """A message in flight: posted by a send, not yet received."""

    ref: OpRef
    comm_id: int
    src: int
    dst: int
    tag: int
    nbytes: int
    seq: int
    #: The send call/request completes without a matching receive
    #: (Bsend/Rsend/eager standard send).
    buffered: bool
    matched: bool = False
    recv_ref: Optional[OpRef] = None


@dataclass(slots=True)
class PendingRecv:
    """A posted receive that has not yet been paired with a message."""

    ref: OpRef
    comm_id: int
    dst: int
    src: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    seq: int
    matched: bool = False
    send: Optional[PendingSend] = None


@dataclass(slots=True)
class CollectiveWave:
    """The w-th collective call on one communicator, across its group.

    MPI orders collectives per communicator: the w-th collective call of
    every member belongs to the same wave, and mixing kinds or roots
    within a wave is a usage error that real MUST also reports.
    """

    comm_id: int
    index: int
    kind: Optional[OpKind] = None
    root: Optional[int] = None
    arrived: Dict[int, OpRef] = field(default_factory=dict)
    #: Per-rank auxiliary argument (e.g. split colors).
    args: Dict[int, object] = field(default_factory=dict)
    complete: bool = False

    def envelope_check(self, op: Operation) -> None:
        if self.kind is None:
            self.kind = op.kind
            self.root = op.root
            return
        if op.kind is not self.kind:
            raise CollectiveMismatchError(
                f"collective wave {self.index} on comm {self.comm_id}: "
                f"{op.describe()} arrives where {self.kind.value} expected"
            )
        if op.root != self.root:
            raise CollectiveMismatchError(
                f"collective wave {self.index} on comm {self.comm_id}: "
                f"root mismatch ({op.root} vs {self.root})"
            )


def _envelope_admits(recv_src: int, recv_tag: int, send: PendingSend) -> bool:
    if recv_src != ANY_SOURCE and recv_src != send.src:
        return False
    return recv_tag == ANY_TAG or recv_tag == send.tag


class MatchState:
    """Queues and waves of the virtual MPI implementation."""

    def __init__(
        self,
        seed: int = 0,
        wildcard_policy: str = "random",
        pinnings: Optional[Dict[OpRef, int]] = None,
    ) -> None:
        if wildcard_policy not in ("random", "earliest"):
            raise ValueError(f"unknown wildcard policy {wildcard_policy!r}")
        self._rng = random.Random(seed)
        self._policy = wildcard_policy
        #: Witness replay: wildcard receive op ref -> forced source rank.
        self._pinnings: Dict[OpRef, int] = dict(pinnings or {})
        self._seq = 0
        # Unmatched messages / posted receives keyed by (comm_id, dst).
        self._sends: Dict[Tuple[int, int], List[PendingSend]] = {}
        self._recvs: Dict[Tuple[int, int], List[PendingRecv]] = {}
        # Collective waves per communicator, plus each rank's next wave
        # index per communicator.
        self._waves: Dict[int, List[CollectiveWave]] = {}
        self._next_wave: Dict[Tuple[int, int], int] = {}

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- point-to-point ----------------------------------------------------

    def post_send(self, op: Operation, buffered: bool) -> Tuple[PendingSend, Optional[PendingRecv]]:
        """Post a message; returns (send, matched recv or None).

        A newly arrived message must match the earliest compatible posted
        receive — eager matching on both events keeps the queues free of
        latent compatible pairs, so scanning in post order is correct.
        """
        send = PendingSend(
            ref=op.ref,
            comm_id=op.comm_id,
            src=op.rank,
            dst=op.peer,  # type: ignore[arg-type]
            tag=op.tag,
            nbytes=op.nbytes,
            seq=self._next_seq(),
            buffered=buffered,
        )
        key = (send.comm_id, send.dst)
        for recv in self._recvs.get(key, ()):
            if recv.matched or not _envelope_admits(recv.src, recv.tag, send):
                continue
            pinned = self._pinnings.get(recv.ref)
            if pinned is not None and pinned != send.src:
                continue
            self._pair(send, recv)
            self._gc(key)
            return send, recv
        self._sends.setdefault(key, []).append(send)
        return send, None

    def post_recv(self, op: Operation) -> Tuple[PendingRecv, Optional[PendingSend]]:
        """Post a receive; returns (recv, matched send or None).

        Candidate messages are the per-sender earliest compatible
        unmatched messages (MPI's non-overtaking rule); among senders the
        wildcard choice follows the configured policy.
        """
        recv = PendingRecv(
            ref=op.ref,
            comm_id=op.comm_id,
            dst=op.rank,
            src=op.peer,  # type: ignore[arg-type]
            tag=op.tag,
            seq=self._next_seq(),
        )
        # A pinned wildcard receive only considers its scripted source;
        # directed receives are unaffected (the pin restates the source).
        pinned = self._pinnings.get(recv.ref)
        src_filter = recv.src if pinned is None else pinned
        send = self._select_candidate(recv.comm_id, recv.dst, src_filter, recv.tag)
        if send is not None:
            self._pair(send, recv)
            self._gc((recv.comm_id, recv.dst))
            return recv, send
        self._recvs.setdefault((recv.comm_id, recv.dst), []).append(recv)
        return recv, send

    def probe_candidate(
        self, comm_id: int, dst: int, src: int, tag: int
    ) -> Optional[PendingSend]:
        """The message a probe with this envelope observes (not consumed).

        Probes are deterministic in MPI only per-sender; for wildcard
        probes we return the *earliest* candidate so that a following
        wildcard receive with the same envelope observes the same
        message (the common MPI behaviour).
        """
        candidates = self._candidates(comm_id, dst, src, tag)
        if not candidates:
            return None
        return min(candidates, key=lambda s: s.seq)

    def _candidates(
        self, comm_id: int, dst: int, src: int, tag: int
    ) -> List[PendingSend]:
        """Per-sender earliest compatible unmatched message.

        MPI's non-overtaking rule forces a receive to take the oldest
        matching message *per sender*; a wildcard receive may then pick
        among senders freely.
        """
        per_sender: Dict[int, PendingSend] = {}
        for send in self._sends.get((comm_id, dst), ()):
            if send.matched or not _envelope_admits(src, tag, send):
                continue
            best = per_sender.get(send.src)
            if best is None or send.seq < best.seq:
                per_sender[send.src] = send
        return list(per_sender.values())

    def _select_candidate(
        self, comm_id: int, dst: int, src: int, tag: int
    ) -> Optional[PendingSend]:
        candidates = self._candidates(comm_id, dst, src, tag)
        if not candidates:
            return None
        if len(candidates) == 1 or self._policy == "earliest":
            return min(candidates, key=lambda s: s.seq)
        return self._rng.choice(sorted(candidates, key=lambda s: s.seq))

    @staticmethod
    def _pair(send: PendingSend, recv: PendingRecv) -> None:
        send.matched = True
        send.recv_ref = recv.ref
        recv.matched = True
        recv.send = send

    def _gc(self, key: Tuple[int, int]) -> None:
        """Drop matched entries to keep queues short on long runs."""
        sends = self._sends.get(key)
        if sends and len(sends) > 64:
            self._sends[key] = [s for s in sends if not s.matched]
        recvs = self._recvs.get(key)
        if recvs and len(recvs) > 64:
            self._recvs[key] = [r for r in recvs if not r.matched]

    def unmatched_send_count(self) -> int:
        return sum(
            1 for q in self._sends.values() for s in q if not s.matched
        )

    # -- collectives ---------------------------------------------------------

    def arrive_collective(
        self, op: Operation, group_size: int, arg: object = None
    ) -> CollectiveWave:
        """Register a rank's arrival at its next wave on ``op.comm_id``."""
        key = (op.comm_id, op.rank)
        index = self._next_wave.get(key, 0)
        self._next_wave[key] = index + 1
        waves = self._waves.setdefault(op.comm_id, [])
        while len(waves) <= index:
            waves.append(CollectiveWave(comm_id=op.comm_id, index=len(waves)))
        wave = waves[index]
        wave.envelope_check(op)
        if op.rank in wave.arrived:
            raise CollectiveMismatchError(
                f"rank {op.rank} arrived twice at wave {index} on comm "
                f"{op.comm_id}"
            )
        wave.arrived[op.rank] = op.ref
        wave.args[op.rank] = arg
        if len(wave.arrived) == group_size:
            wave.complete = True
        return wave

    def incomplete_waves(self) -> List[CollectiveWave]:
        return [
            w for waves in self._waves.values() for w in waves if not w.complete
        ]
