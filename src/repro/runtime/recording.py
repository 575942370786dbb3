"""How an MPI call becomes an operation record — the one copy.

The paper's tool never sees MPI, only the per-process traces
``t(i) = o_{i,0}..o_{i,m_i}`` of intercepted calls (Section 3), with
persistent operations handled "like non-blocking point-to-point
operations". Three drivers produce such traces here: the engine
records what programs do (:mod:`repro.runtime.engine`), the static
extractor what they would do (:mod:`repro.analysis.extract`), and the
symbolic instantiator what a term tree unrolls to
(:mod:`repro.analysis.symbolic.symexec`). Deciding statically where
the model is deterministic and at run time otherwise only works if all
three mean the same sequence, so the rule lives here and nowhere else:
timestamps, request-id allocation, persistent handles and their Start
instances (:class:`CallRecorder`), the communicators a completed
``MPI_Comm_dup``/``_split``/``_create`` wave hands out
(:func:`comm_results`), and the results a program observes
identically in every world (:func:`request_result`,
:func:`proc_null_result`, :data:`NOT_DONE`).

What is *not* here is everything only one driver knows: whether and
when a request completes (the engine matches, the extractor stubs),
the statuses a stub fabricates, and ``sendrecv_group`` numbering,
which :class:`~repro.runtime.program.Rank` allocates on the generator
side of a ``yield from`` where no recorder can see it.
"""
from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.mpi.communicator import CommRegistry, Communicator
from repro.mpi.constants import ANY_TAG, PROC_NULL, OpKind
from repro.mpi.ops import Operation
from repro.runtime.program import Call, Status
from repro.util.errors import MpiUsageError

#: What ``MPI_Test*`` hands the program when it finds nothing done.
NOT_DONE: Dict[OpKind, object] = {
    OpKind.TEST: (False, None),
    OpKind.TESTALL: (False, None),
    OpKind.TESTANY: (False, None, None),
    OpKind.TESTSOME: ((), ()),
}

PROC_NULL_STATUS = Status(PROC_NULL, ANY_TAG, 0)

#: Start kind, communicator, peer, tag and byte count of a persistent
#: handle: what each of its ``MPI_Start`` instances is recorded with.
_Envelope = Tuple[OpKind, int, Optional[int], int, int]


class RequestMisuse(MpiUsageError):
    """A call broke the persistent-request lifecycle.

    :meth:`CallRecorder.record` raises this *after* recording the call
    wherever there is something to record, and ``op`` is that record;
    it is ``None`` only for ``MPI_Start`` on an unknown handle, which
    has no envelope to record. The recorder reports and the caller
    decides: the engine lets it propagate (MUST would report the call;
    the run is over), the extractor carries on with ``op`` because
    ``check_request_typestate`` is what tells the user and needs the
    sequence to do it.
    """

    def __init__(self, message: str, op: Optional[Operation]) -> None:
        super().__init__(message)
        self.op = op


class CallRecorder:
    """The trace of one rank, and the request state that shapes it."""

    __slots__ = (
        "rank", "ops", "_next_request", "_envelopes", "_active", "_owner",
    )

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: ``t(rank)`` so far; an operation's ``ts`` is its index here.
        self.ops: List[Operation] = []
        self._next_request = 0
        #: Persistent handle -> envelope, from ``*_init`` to ``free``.
        self._envelopes: Dict[int, _Envelope] = {}
        #: Persistent handle -> its active Start instance, and back, so
        #: completing a request deactivates its handle without a scan.
        self._active: Dict[int, int] = {}
        self._owner: Dict[int, int] = {}

    def _new_request(self) -> int:
        request = self._next_request
        self._next_request = request + 1
        return request

    def record(self, call: Call) -> Operation:
        """Append the operation ``call`` is intercepted as.

        A fresh request id goes to every ``I*send``/``Irecv``, every
        persistent handle and every Start instance, in call order; a
        Start is recorded with its handle's envelope and
        ``requests=(handle,)``; a completion names the active instance
        of each persistent handle it was given, not the handle.
        Raises :class:`RequestMisuse` as described there.
        """
        kind = call.kind
        comm_id = call.comm.comm_id
        peer = call.peer
        tag = call.tag
        nbytes = call.nbytes
        requests = call.requests
        request: Optional[int] = None
        misuse: Optional[str] = None
        if kind.nonblocking_p2p:
            if kind is OpKind.PSTART_SEND or kind is OpKind.PSTART_RECV:
                handle = requests[0]
                envelope = self._envelopes.get(handle)
                if envelope is None:
                    raise RequestMisuse(
                        f"rank {self.rank}: {handle} is not a persistent "
                        "request",
                        None,
                    )
                kind, comm_id, peer, tag, nbytes = envelope
                previous = self._active.get(handle)
                if previous is not None:
                    misuse = (
                        f"rank {self.rank}: MPI_Start on already-active "
                        f"persistent request {handle}"
                    )
                    del self._owner[previous]
                request = self._new_request()
                self._active[handle] = request
                self._owner[request] = handle
            else:
                request = self._new_request()
        elif kind.completion:
            if self._envelopes:
                instances: List[int] = []
                for req in requests:
                    if req in self._envelopes:
                        instance = self._active.get(req)
                        if instance is not None:
                            req = instance
                        elif misuse is None:
                            misuse = (
                                f"rank {self.rank}: completion on inactive "
                                f"persistent request {req}"
                            )
                    instances.append(req)
                requests = tuple(instances)
        elif kind is OpKind.SEND_INIT or kind is OpKind.RECV_INIT:
            request = self._new_request()
            self._envelopes[request] = (
                OpKind.PSTART_SEND if kind is OpKind.SEND_INIT
                else OpKind.PSTART_RECV,
                comm_id, peer, tag, nbytes,
            )
        elif kind is OpKind.REQUEST_FREE:
            handle = requests[0]
            if handle not in self._envelopes:
                misuse = (
                    f"rank {self.rank}: {handle} is not a persistent request"
                )
            elif handle in self._active:
                misuse = (
                    f"rank {self.rank}: MPI_Request_free on active "
                    f"persistent request {handle}"
                )
            else:
                del self._envelopes[handle]
        op = Operation(
            kind=kind,
            rank=self.rank,
            ts=len(self.ops),
            comm_id=comm_id,
            peer=peer,
            tag=tag,
            root=call.root,
            request=request,
            requests=requests,
            nbytes=nbytes,
            sendrecv_group=call.sendrecv_group,
            location=call.location,
        )
        self.ops.append(op)
        if misuse is not None:
            raise RequestMisuse(misuse, op)
        return op

    def complete(self, request: int) -> None:
        """``request`` is done and consumed: if it is a Start instance,
        its handle is inactive again and may be started or freed.

        Called by whoever *decides* that — the engine when a
        ``Wait*``/``Test*`` consumes a request, the extractor only for
        the entries its stubbed result reports as done. Deciding it for
        more than the program was told is what makes an extraction
        diverge from every run.
        """
        handle = self._owner.pop(request, None)
        if handle is not None:
            del self._active[handle]


def request_result(op: Operation) -> Optional[int]:
    """The request id a call hands its program: the one it created —
    except from a Start, where the program holds the handle already."""
    return None if op.requests else op.request


def proc_null_result(op: Operation) -> object:
    """What the program gets back from a call on ``MPI_PROC_NULL``: it
    completes at once, matches nothing and delivers an empty status."""
    kind = op.kind
    if kind is OpKind.IPROBE:
        return (True, PROC_NULL_STATUS)
    if op.request is not None:
        return request_result(op)
    if kind.recv or kind.probe:
        return PROC_NULL_STATUS
    return None


def comm_results(
    comms: CommRegistry,
    kind: OpKind,
    comm_id: int,
    args_by_rank: Mapping[int, Any],
) -> Mapping[int, Optional[Communicator]]:
    """What each arrived rank of a completed collective wave on
    ``comm_id`` gets back: its new communicator (or ``None``) from
    ``MPI_Comm_dup``/``_split``/``_create``, ``None`` from any other
    kind. ``args_by_rank`` holds each rank's color or group.

    Raises :class:`MpiUsageError` when the ranks of an
    ``MPI_Comm_create`` disagree on the group.
    """
    if kind is OpKind.COMM_DUP:
        return dict.fromkeys(args_by_rank, comms.dup(comm_id))
    if kind is OpKind.COMM_SPLIT:
        return comms.split(comm_id, dict(args_by_rank))
    if kind is not OpKind.COMM_CREATE:
        return dict.fromkeys(args_by_rank)
    groups = {tuple(g) for g in args_by_rank.values()}
    if len(groups) != 1:
        raise MpiUsageError("MPI_Comm_create called with differing groups")
    (group,) = groups
    newcomm = comms.create(group) if group else None
    return {
        r: newcomm if newcomm is not None and r in newcomm.group else None
        for r in args_by_rank
    }
