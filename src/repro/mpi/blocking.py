"""The blocking predicate ``b : Op -> {True, False}`` of Section 3.1.

The paper fixes a *strict* interpretation of the MPI standard: every
standard-mode send blocks (no buffering assumed) and every collective
synchronizes. Section 3.3 discusses the freedoms MPI grants
implementations; :class:`BlockingSemantics` makes those freedoms
explicit so that

* the tool analyses default to the strict ``b`` (detecting potential
  deadlocks that a buffering MPI would mask, like 126.lammps's), and
* the virtual runtime can execute with a *relaxed* ``b`` that models a
  realistic MPI (buffered standard sends, non-synchronizing non-barrier
  collectives), which is what makes "detected but not manifest"
  scenarios representable at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mpi.constants import PROC_NULL, OpKind
from repro.mpi.ops import Operation

# Collectives where even a relaxed MPI must synchronize all participants
# (data flows from/to everyone, or the call is explicitly a barrier).
_ALWAYS_SYNC_COLLECTIVES = frozenset(
    {
        OpKind.BARRIER,
        OpKind.ALLREDUCE,
        OpKind.ALLGATHER,
        OpKind.ALLTOALL,
    }
)


@dataclass(frozen=True)
class BlockingSemantics:
    """Configuration of the MPI freedoms of Section 3.3.

    ``strict()`` is the paper's ``b``; ``relaxed(threshold)`` models a
    typical eager-protocol MPI implementation.
    """

    #: If True, standard-mode MPI_Send with payloads up to
    #: ``eager_threshold`` completes without a matching receive
    #: (implementation-internal buffering).
    buffer_standard_sends: bool = False
    #: Eager-protocol cutoff in bytes; only meaningful when
    #: ``buffer_standard_sends`` is set.
    eager_threshold: int = 1 << 16
    #: If True, every collective synchronizes its whole group (the strict
    #: reading). If False, rooted/non-barrier collectives let
    #: non-participating-in-data ranks leave early.
    synchronizing_collectives: bool = True

    @staticmethod
    def strict() -> "BlockingSemantics":
        """The paper's fixed definition of ``b`` (Section 3.1)."""
        return BlockingSemantics(
            buffer_standard_sends=False, synchronizing_collectives=True
        )

    @staticmethod
    def relaxed(eager_threshold: int = 1 << 16) -> "BlockingSemantics":
        """A realistic MPI: eager sends buffer, collectives relax."""
        return BlockingSemantics(
            buffer_standard_sends=True,
            eager_threshold=eager_threshold,
            synchronizing_collectives=False,
        )

    def send_buffers(self, op: Operation) -> bool:
        """Whether a standard-mode send of ``op``'s size may buffer."""
        if op.kind not in (OpKind.SEND, OpKind.ISEND):
            return False
        return self.buffer_standard_sends and op.nbytes <= self.eager_threshold

    def collective_synchronizes(self, kind: OpKind) -> bool:
        """Whether a collective kind synchronizes its full group."""
        if not kind.collective:
            raise ValueError(f"{kind} is not a collective")
        if self.synchronizing_collectives:
            return True
        return kind in _ALWAYS_SYNC_COLLECTIVES


def is_blocking(op: Operation, semantics: BlockingSemantics | None = None) -> bool:
    """The predicate ``b(i, j)`` from Section 3.1.

    With the default (strict) semantics this is verbatim the paper's
    definition: MPI_Send, MPI_Recv, MPI_Probe, collectives and
    MPI_Wait[any,some,all] block; MPI_Iprobe, the non-blocking
    point-to-point flavours, MPI_Bsend/MPI_Rsend and MPI_Test* do not.
    """
    if semantics is None:
        semantics = BlockingSemantics.strict()
    kind = op.kind
    if op.is_p2p() and op.peer == PROC_NULL:
        # Operations on MPI_PROC_NULL return immediately and match
        # nothing, under every MPI implementation.
        return False
    if kind is OpKind.FINALIZE:
        # Finalize is the designated terminal operation: treated as
        # blocking so no rule-(1) transition fires past it.
        return True
    if kind in (OpKind.SEND, OpKind.SSEND):
        if kind is OpKind.SEND and semantics.send_buffers(op):
            return False
        return True
    if kind in (OpKind.BSEND, OpKind.RSEND):
        return False
    if kind in (OpKind.RECV, OpKind.PROBE):
        return True
    if kind in (
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
        OpKind.IRECV,
        OpKind.IPROBE,
        OpKind.PSTART_SEND,
        OpKind.PSTART_RECV,
    ):
        return False
    if kind in (OpKind.SEND_INIT, OpKind.RECV_INIT, OpKind.REQUEST_FREE):
        # Persistent-request management is purely local.
        return False
    if kind.collective:
        return True
    if kind.wait:
        return True
    if kind.test:
        return False
    raise ValueError(f"blocking predicate undefined for {kind}")


def _strict_b(kind: OpKind) -> Optional[bool]:
    """``b`` under the strict semantics for one kind, ``None`` where
    it is undefined. Strict ``b`` ignores payload size, so one probe
    operation per kind (real peer, so PROC_NULL stays a per-op check)
    decides it."""
    probe = Operation(
        kind=kind, rank=0, ts=0, peer=0, request=0, requests=(0,)
    )
    try:
        return is_blocking(probe, BlockingSemantics.strict())
    except ValueError:
        return None


# Section 3.1's classification, evaluated once per kind: the tool-side
# trackers read ``kind.strict_blocking`` instead of walking the chain
# above per message.
for _kind in OpKind:
    _kind.strict_blocking = _strict_b(_kind)
del _kind
