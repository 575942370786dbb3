"""Local (per-operation) argument checks.

These are the checks a first-layer tool node can run on each operation
as it arrives, with no cross-node information: argument ranges,
communicator membership, and request lifecycle. They correspond to
MUST's distributed local checks — everything here is decidable from
the operation stream of the ranks one node hosts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.checks.findings import CheckFinding, Severity
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, OpKind
from repro.mpi.ops import Operation

#: MPI guarantees at least this much tag space (MPI_TAG_UB lower bound).
MIN_TAG_UB = 32767


@dataclass
class _RankState:
    """Request-lifecycle bookkeeping for one rank."""

    live_requests: Set[int] = field(default_factory=set)
    persistent: Set[int] = field(default_factory=set)
    finalized: bool = False


class LocalChecker:
    """Streaming per-operation validation for a set of ranks."""

    def __init__(self, comms: CommRegistry) -> None:
        self.comms = comms
        self.findings: List[CheckFinding] = []
        self._ranks: Dict[int, _RankState] = {}

    def _state(self, rank: int) -> _RankState:
        state = self._ranks.get(rank)
        if state is None:
            state = _RankState()
            self._ranks[rank] = state
        return state

    def _report(
        self,
        check: str,
        severity: Severity,
        op: Operation,
        message: str,
    ) -> None:
        self.findings.append(
            CheckFinding(
                check=check,
                severity=severity,
                rank=op.rank,
                message=message,
                op=op.ref,
                location=op.location,
            )
        )

    # ------------------------------------------------------------------

    def check_op(self, op: Operation) -> None:
        """Validate one operation in stream order."""
        state = self._state(op.rank)
        if state.finalized:
            self._report(
                "call-after-finalize",
                Severity.ERROR,
                op,
                f"{op.kind.value} issued after MPI_Finalize",
            )
        if op.comm_id not in self.comms:
            self._report(
                "invalid-communicator",
                Severity.ERROR,
                op,
                f"unknown communicator {op.comm_id}",
            )
            return
        comm = self.comms.get(op.comm_id)
        if op.is_p2p():
            self._check_peer(op, comm)
            self._check_tag(op)
        if op.is_collective() and not comm.contains(op.rank):
            self._report(
                "not-a-member",
                Severity.ERROR,
                op,
                f"{op.kind.value} on communicator {op.comm_id} whose "
                "group does not contain the caller",
            )
        if op.root is not None and not comm.contains(op.root):
            self._report(
                "invalid-root",
                Severity.ERROR,
                op,
                f"root {op.root} is not in communicator {op.comm_id}",
            )
        self._check_requests(op, state)
        if op.is_finalize():
            state.finalized = True
            for req in sorted(state.live_requests):
                self.findings.append(
                    CheckFinding(
                        check="request-leak",
                        severity=Severity.WARNING,
                        rank=op.rank,
                        message=(
                            f"request {req} neither completed nor freed "
                            "before MPI_Finalize"
                        ),
                        op=op.ref,
                        location=op.location,
                    )
                )

    def _check_peer(self, op: Operation, comm) -> None:
        peer = op.peer
        if peer is None:
            return
        if peer in (PROC_NULL,):
            return
        if peer == ANY_SOURCE:
            if op.is_send():
                self._report(
                    "invalid-peer",
                    Severity.ERROR,
                    op,
                    "MPI_ANY_SOURCE used as a send destination",
                )
            return
        if not comm.contains(peer):
            self._report(
                "invalid-peer",
                Severity.ERROR,
                op,
                f"peer rank {peer} outside communicator {op.comm_id} "
                f"(group size {comm.size})",
            )
        elif peer == op.rank:
            self._report(
                "self-message",
                Severity.WARNING,
                op,
                f"{op.kind.value} addressed to the calling rank itself; "
                "deadlocks unless a non-blocking counterpart exists",
            )

    def _check_tag(self, op: Operation) -> None:
        tag = op.tag
        if tag == ANY_TAG:
            if op.is_send():
                self._report(
                    "invalid-tag",
                    Severity.ERROR,
                    op,
                    "MPI_ANY_TAG used on a send",
                )
            return
        if tag < 0:
            self._report(
                "invalid-tag", Severity.ERROR, op, f"negative tag {tag}"
            )
        elif tag > MIN_TAG_UB:
            self._report(
                "tag-above-ub",
                Severity.WARNING,
                op,
                f"tag {tag} above the portable MPI_TAG_UB minimum "
                f"({MIN_TAG_UB})",
            )

    def _check_requests(self, op: Operation, state: _RankState) -> None:
        if op.request is not None:
            state.live_requests.add(op.request)
            if op.kind in (OpKind.SEND_INIT, OpKind.RECV_INIT):
                state.persistent.add(op.request)
        if op.kind in (OpKind.PSTART_SEND, OpKind.PSTART_RECV):
            # Start instances complete via WAIT*; the persistent handle
            # stays live. (The instance id is op.request, added above.)
            return
        if op.kind is OpKind.REQUEST_FREE:
            # MPI_Request_free releases the persistent handle itself
            # (recorded in op.requests since the handle was threaded
            # through the engine's persistent path).
            for req in op.requests:
                state.live_requests.discard(req)
                state.persistent.discard(req)
            return
        if op.is_completion():
            for req in op.requests:
                if req not in state.live_requests:
                    self._report(
                        "unknown-request",
                        Severity.ERROR,
                        op,
                        f"{op.kind.value} on unknown or already-"
                        f"completed request {req}",
                    )
            # Consume what the run observed completing: every request
            # of a Wait/Waitall (they return no other way), the observed
            # indices of the rest — none for a Test* that failed.
            if op.kind.test or op.kind.any_completion:
                done = [
                    op.requests[i] for i in op.completed_indices
                    if i < len(op.requests)  # a loaded trace may lie
                ]
            else:
                done = list(op.requests)
            state.live_requests.difference_update(done)

    # ------------------------------------------------------------------

    def errors(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]
