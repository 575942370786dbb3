"""Operation records: the elements of the traces ``t(i)``.

Every intercepted MPI call becomes one :class:`Operation`. The record
carries exactly the fields that point-to-point matching, collective
matching, and the wait state transition system consume:

* identity: ``(rank, ts)`` — the pair ``(i, j)`` of the paper;
* call classification: :class:`~repro.mpi.constants.OpKind`;
* p2p envelope: ``peer``/``tag``/``comm_id`` (``peer`` is the destination
  for sends, the source for receives/probes — possibly ``ANY_SOURCE``);
* observed runtime outcome: ``observed_peer``/``observed_tag`` record the
  matching decision of the (virtual) MPI implementation for wildcard
  receives, mirroring how MUST "uses return values of MPI calls to
  observe the interleaving that occurs at runtime";
* request linkage for non-blocking operations and their completions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, OpKind

#: Reference to an operation as the paper writes it: ``(i, j)`` with the
#: process identifier first and the local logical timestamp second.
OpRef = Tuple[int, int]


@dataclass(slots=True)
class Operation:
    """One MPI operation ``o_{i,j}`` of a process trace.

    Parameters mirror the call arguments that matter for matching and
    blocking analysis; payload contents are irrelevant to deadlock
    detection and only a byte count is kept for the cost model.
    """

    kind: OpKind
    rank: int
    ts: int
    comm_id: int = 0
    #: Destination rank for sends, source rank for receives/probes
    #: (world-rank numbering; may be ``ANY_SOURCE`` or ``PROC_NULL``).
    peer: Optional[int] = None
    tag: int = 0
    #: Root world rank for rooted collectives.
    root: Optional[int] = None
    #: Request id created by a non-blocking p2p operation.
    request: Optional[int] = None
    #: Request ids a completion operation waits/tests on.
    requests: Tuple[int, ...] = ()
    #: Matching decision observed at runtime for wildcard receives: the
    #: actual source rank (and tag) of the received message.
    observed_peer: Optional[int] = None
    observed_tag: Optional[int] = None
    #: Indices (into ``requests``) that the runtime observed completing
    #: for WAITANY/WAITSOME/TEST* operations.
    completed_indices: Tuple[int, ...] = ()
    #: For TEST*: whether the runtime observed the test succeed. Tests
    #: are non-blocking either way; this only affects request bookkeeping.
    test_flag: bool = False
    #: Payload size in bytes (cost model only).
    nbytes: int = 0
    #: Set when this op is part of a decomposed MPI_Sendrecv; the value
    #: groups the decomposed ops of one Sendrecv for report rendering.
    sendrecv_group: Optional[int] = None
    #: Free-form source location for reports ("file.c:123").
    location: str = ""

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank {self.rank}")
        if self.ts < 0:
            raise ValueError(f"negative timestamp {self.ts}")
        kind = self.kind
        if kind.p2p and self.peer is None:
            raise ValueError(f"{kind.value} requires a peer rank")
        if kind.send and self.peer == ANY_SOURCE:
            raise ValueError("sends cannot target ANY_SOURCE")
        if kind.nonblocking_p2p and self.request is None:
            raise ValueError(f"{kind.value} requires a request id")
        if kind.completion and not self.requests:
            raise ValueError(f"{kind.value} requires request ids")

    # -- classification helpers (used pervasively by the analyses) ------

    @property
    def ref(self) -> OpRef:
        """The ``(i, j)`` pair identifying this operation."""
        return (self.rank, self.ts)

    def is_send(self) -> bool:
        return self.kind.send

    def is_recv(self) -> bool:
        return self.kind.recv

    def is_probe(self) -> bool:
        return self.kind.probe

    def is_p2p(self) -> bool:
        return self.kind.p2p

    def is_collective(self) -> bool:
        return self.kind.collective

    def is_completion(self) -> bool:
        return self.kind.completion

    def is_finalize(self) -> bool:
        return self.kind is OpKind.FINALIZE

    def is_wildcard_receive(self) -> bool:
        """True for receives/probes posted with ``MPI_ANY_SOURCE``."""
        kind = self.kind
        return (kind.recv or kind.probe) and self.peer == ANY_SOURCE

    def effective_source(self) -> Optional[int]:
        """Source rank after resolving wildcards with runtime knowledge.

        ``None`` when a wildcard receive never matched (e.g. it is part
        of a manifest deadlock and the runtime observed no message).
        """
        if not (self.is_recv() or self.is_probe()):
            raise ValueError("effective_source applies to receives/probes")
        if self.peer != ANY_SOURCE:
            return self.peer
        return self.observed_peer

    def envelope_matches_send(self, send: "Operation") -> bool:
        """Whether ``send``'s envelope is admissible for this receive.

        This is MPI envelope matching: communicator and tag must agree
        (modulo ``ANY_TAG``) and the source must agree (modulo
        ``ANY_SOURCE``). Order constraints are the matcher's job.
        """
        if not (self.is_recv() or self.is_probe()) or not send.is_send():
            return False
        if self.comm_id != send.comm_id:
            return False
        if self.tag != ANY_TAG and self.tag != send.tag:
            return False
        if self.peer != ANY_SOURCE and self.peer != send.rank:
            return False
        return send.peer == self.rank

    def describe(self) -> str:
        """Short human-readable rendering for reports and errors."""
        if self.sendrecv_group is not None:
            base = f"{OpKind.SENDRECV_MARKER.value}[part {self.kind.value}]"
        else:
            base = self.kind.value
        details = []
        if self.is_send():
            details.append(f"to={self.peer}")
        elif self.is_recv() or self.is_probe():
            src = "ANY" if self.peer == ANY_SOURCE else str(self.peer)
            details.append(f"from={src}")
        if self.is_p2p() and self.tag not in (0, ANY_TAG):
            details.append(f"tag={self.tag}")
        if self.root is not None:
            details.append(f"root={self.root}")
        if self.comm_id != 0:
            details.append(f"comm={self.comm_id}")
        suffix = f"({', '.join(details)})" if details else "()"
        return f"{base}{suffix}@{self.rank}:{self.ts}"


def make_op(kind: OpKind, rank: int, ts: int, **kwargs: object) -> Operation:
    """Convenience constructor used heavily by tests and workloads."""
    return Operation(kind=kind, rank=rank, ts=ts, **kwargs)  # type: ignore[arg-type]
