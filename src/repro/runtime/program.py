"""Rank-program API for the virtual MPI runtime.

A *rank program* is a generator function receiving a :class:`Rank`
handle. MPI calls are built with the handle's mpi4py-flavoured methods
and submitted to the engine with ``yield``; the value of the yield
expression is the call's result (e.g. a :class:`Status` for a receive,
a request id for ``isend``)::

    def worker(rank):
        if rank.rank == 0:
            yield rank.send(dest=1, tag=7)
        else:
            status = yield rank.recv(source=ANY_SOURCE, tag=7)
            assert status.source == 0

Helper subroutines compose with ``yield from`` (e.g.
:meth:`Rank.sendrecv`). The engine drives these generators under real
MPI matching semantics (:mod:`repro.runtime.engine`).
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from types import FrameType
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, OpKind
from repro.mpi.communicator import Communicator

#: Cached display form of source file paths (relative when possible).
_PATH_CACHE: Dict[str, str] = {}


def _display_path(path: str) -> str:
    cached = _PATH_CACHE.get(path)
    if cached is None:
        cached = path
        try:
            rel = os.path.relpath(path)
            if not rel.startswith(".."):
                cached = rel
        except ValueError:
            pass
        _PATH_CACHE[path] = cached
    return cached


def _callsite() -> str:
    """``file:line`` of the rank-program frame issuing the current call.

    Walks out of this module so that helper layers (the ``Rank``
    builders, the ``sendrecv`` decomposition) never show up as the
    source of an MPI call; findings then point at application code.
    The walk starts at ``Call.__init__``'s caller: ``Call.__post_init__``
    and the dataclass-generated ``__init__`` are always skipped, and
    every frame walked is a frame object built on demand.
    """
    frame: Optional[FrameType] = sys._getframe(3)
    while frame is not None:
        filename = frame.f_code.co_filename
        # Skip synthesized frames (code compiled from a string).
        if filename != __file__ and not filename.startswith("<"):
            return f"{_display_path(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return ""


@dataclass(frozen=True, slots=True)
class Status:
    """Observed completion envelope of a receive/probe (MPI_Status)."""

    source: int
    tag: int
    nbytes: int = 0


@dataclass(slots=True)
class Call:
    """A single MPI call descriptor, submitted via ``yield``.

    Only the engine constructs results for these; programs treat them as
    opaque. ``comm`` is a :class:`Communicator` so that programs can use
    derived communicators naturally.
    """

    kind: OpKind
    comm: Communicator
    peer: Optional[int] = None
    tag: int = 0
    root: Optional[int] = None
    requests: Tuple[int, ...] = ()
    nbytes: int = 0
    #: MPI_Comm_split arguments (color may be None for MPI_UNDEFINED).
    color: Optional[int] = None
    #: MPI_Comm_create group (world ranks) for the new communicator.
    group: Optional[Tuple[int, ...]] = None
    #: Sendrecv decomposition marker (set internally).
    sendrecv_group: Optional[int] = None
    #: ``file:line`` of the issuing rank-program statement; captured
    #: automatically at construction so every recorded operation (and
    #: every finding derived from it) can cite its source location.
    location: str = ""

    def __post_init__(self) -> None:
        if not self.location:
            self.location = _callsite()


class Rank:
    """Per-rank handle: call builders plus identity/communicator info."""

    def __init__(self, world_rank: int, world: Communicator) -> None:
        self._world_rank = world_rank
        self._world = world
        self._sendrecv_counter = 0

    @property
    def rank(self) -> int:
        """This process's world rank."""
        return self._world_rank

    @property
    def size(self) -> int:
        """World size."""
        return self._world.size

    @property
    def world(self) -> Communicator:
        return self._world

    # -- point-to-point --------------------------------------------------

    def _p2p(
        self,
        kind: OpKind,
        peer: int,
        tag: int,
        comm: Optional[Communicator],
        nbytes: int,
    ) -> Call:
        return Call(
            kind=kind,
            comm=comm or self._world,
            peer=peer,
            tag=tag,
            nbytes=nbytes,
        )

    def send(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
             nbytes: int = 8) -> Call:
        """Blocking standard-mode send (MPI_Send)."""
        return self._p2p(OpKind.SEND, dest, tag, comm, nbytes)

    def ssend(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
              nbytes: int = 8) -> Call:
        """Blocking synchronous send (MPI_Ssend)."""
        return self._p2p(OpKind.SSEND, dest, tag, comm, nbytes)

    def bsend(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
              nbytes: int = 8) -> Call:
        """Buffered send (MPI_Bsend): never blocks."""
        return self._p2p(OpKind.BSEND, dest, tag, comm, nbytes)

    def rsend(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
              nbytes: int = 8) -> Call:
        """Ready send (MPI_Rsend): never blocks."""
        return self._p2p(OpKind.RSEND, dest, tag, comm, nbytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
             comm: Communicator | None = None, nbytes: int = 8) -> Call:
        """Blocking receive (MPI_Recv); yields a :class:`Status`."""
        return self._p2p(OpKind.RECV, source, tag, comm, nbytes)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
              comm: Communicator | None = None) -> Call:
        """Blocking probe (MPI_Probe); yields a :class:`Status`."""
        return self._p2p(OpKind.PROBE, source, tag, comm, 0)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
               comm: Communicator | None = None) -> Call:
        """Non-blocking probe; yields ``(flag, Status | None)``."""
        return self._p2p(OpKind.IPROBE, source, tag, comm, 0)

    def isend(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
              nbytes: int = 8) -> Call:
        """Non-blocking standard send; yields a request id."""
        return self._p2p(OpKind.ISEND, dest, tag, comm, nbytes)

    def issend(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
               nbytes: int = 8) -> Call:
        """Non-blocking synchronous send; yields a request id."""
        return self._p2p(OpKind.ISSEND, dest, tag, comm, nbytes)

    def ibsend(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
               nbytes: int = 8) -> Call:
        """Non-blocking buffered send; yields a request id."""
        return self._p2p(OpKind.IBSEND, dest, tag, comm, nbytes)

    def irsend(self, dest: int, tag: int = 0, *, comm: Communicator | None = None,
               nbytes: int = 8) -> Call:
        """Non-blocking ready send; yields a request id."""
        return self._p2p(OpKind.IRSEND, dest, tag, comm, nbytes)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
              comm: Communicator | None = None, nbytes: int = 8) -> Call:
        """Non-blocking receive; yields a request id."""
        return self._p2p(OpKind.IRECV, source, tag, comm, nbytes)

    # -- persistent communication -----------------------------------------

    def send_init(self, dest: int, tag: int = 0, *,
                  comm: Communicator | None = None, nbytes: int = 8) -> Call:
        """MPI_Send_init: create an inactive persistent send request.

        Yields a persistent request handle; activate it with
        :meth:`start`, complete each activation with a wait/test, and
        release it with :meth:`request_free`.
        """
        return Call(OpKind.SEND_INIT, comm or self._world, peer=dest,
                    tag=tag, nbytes=nbytes)

    def recv_init(self, source: int, tag: int = ANY_TAG, *,
                  comm: Communicator | None = None, nbytes: int = 8) -> Call:
        """MPI_Recv_init: create an inactive persistent receive request."""
        return Call(OpKind.RECV_INIT, comm or self._world, peer=source,
                    tag=tag, nbytes=nbytes)

    def start(self, request: int) -> Call:
        """MPI_Start: activate a persistent request.

        The engine records the activation as a fresh non-blocking
        send/receive instance (the paper handles persistent operations
        "like non-blocking point-to-point operations").
        """
        return Call(OpKind.PSTART_SEND, self._world, requests=(request,))

    def startall(self, requests: Sequence[int]) -> Iterator[Call]:
        """MPI_Startall, decomposed into individual starts.

        Use as ``yield from rank.startall([r1, r2])``.
        """
        for request in requests:
            yield self.start(request)

    def request_free(self, request: int) -> Call:
        """MPI_Request_free on an inactive persistent request."""
        return Call(OpKind.REQUEST_FREE, self._world, requests=(request,))

    # -- completions -----------------------------------------------------

    def wait(self, request: int) -> Call:
        """MPI_Wait; yields the request's :class:`Status` (or None)."""
        return Call(OpKind.WAIT, self._world, requests=(request,))

    def waitall(self, requests: Sequence[int]) -> Call:
        """MPI_Waitall; yields a tuple of statuses."""
        return Call(OpKind.WAITALL, self._world, requests=tuple(requests))

    def waitany(self, requests: Sequence[int]) -> Call:
        """MPI_Waitany; yields ``(index, status)``."""
        return Call(OpKind.WAITANY, self._world, requests=tuple(requests))

    def waitsome(self, requests: Sequence[int]) -> Call:
        """MPI_Waitsome; yields ``(indices, statuses)``."""
        return Call(OpKind.WAITSOME, self._world, requests=tuple(requests))

    def test(self, request: int) -> Call:
        """MPI_Test; yields ``(flag, status | None)``."""
        return Call(OpKind.TEST, self._world, requests=(request,))

    def testall(self, requests: Sequence[int]) -> Call:
        """MPI_Testall; yields ``(flag, statuses | None)``."""
        return Call(OpKind.TESTALL, self._world, requests=tuple(requests))

    def testany(self, requests: Sequence[int]) -> Call:
        """MPI_Testany; yields ``(flag, index, status)``."""
        return Call(OpKind.TESTANY, self._world, requests=tuple(requests))

    def testsome(self, requests: Sequence[int]) -> Call:
        """MPI_Testsome; yields ``(indices, statuses)``."""
        return Call(OpKind.TESTSOME, self._world, requests=tuple(requests))

    # -- collectives -----------------------------------------------------

    def barrier(self, *, comm: Communicator | None = None) -> Call:
        return Call(OpKind.BARRIER, comm or self._world)

    def bcast(self, root: int, *, comm: Communicator | None = None,
              nbytes: int = 8) -> Call:
        return Call(OpKind.BCAST, comm or self._world, root=root, nbytes=nbytes)

    def reduce(self, root: int, *, comm: Communicator | None = None,
               nbytes: int = 8) -> Call:
        return Call(OpKind.REDUCE, comm or self._world, root=root, nbytes=nbytes)

    def allreduce(self, *, comm: Communicator | None = None,
                  nbytes: int = 8) -> Call:
        return Call(OpKind.ALLREDUCE, comm or self._world, nbytes=nbytes)

    def gather(self, root: int, *, comm: Communicator | None = None,
               nbytes: int = 8) -> Call:
        return Call(OpKind.GATHER, comm or self._world, root=root, nbytes=nbytes)

    def scatter(self, root: int, *, comm: Communicator | None = None,
                nbytes: int = 8) -> Call:
        return Call(OpKind.SCATTER, comm or self._world, root=root, nbytes=nbytes)

    def allgather(self, *, comm: Communicator | None = None,
                  nbytes: int = 8) -> Call:
        return Call(OpKind.ALLGATHER, comm or self._world, nbytes=nbytes)

    def alltoall(self, *, comm: Communicator | None = None,
                 nbytes: int = 8) -> Call:
        return Call(OpKind.ALLTOALL, comm or self._world, nbytes=nbytes)

    def scan(self, *, comm: Communicator | None = None, nbytes: int = 8) -> Call:
        return Call(OpKind.SCAN, comm or self._world, nbytes=nbytes)

    def reduce_scatter(self, *, comm: Communicator | None = None,
                       nbytes: int = 8) -> Call:
        return Call(OpKind.REDUCE_SCATTER, comm or self._world, nbytes=nbytes)

    def comm_dup(self, *, comm: Communicator | None = None) -> Call:
        """MPI_Comm_dup; yields the new :class:`Communicator`."""
        return Call(OpKind.COMM_DUP, comm or self._world)

    def comm_split(self, color: Optional[int], *,
                   comm: Communicator | None = None) -> Call:
        """MPI_Comm_split; yields the new communicator (or None)."""
        return Call(OpKind.COMM_SPLIT, comm or self._world, color=color)

    def comm_create(self, group: Sequence[int], *,
                    comm: Communicator | None = None) -> Call:
        """MPI_Comm_create: new communicator over ``group`` (world
        ranks); collective over the parent communicator. Yields the new
        communicator for members, None for non-members."""
        return Call(OpKind.COMM_CREATE, comm or self._world,
                    group=tuple(group))

    def comm_free(self, comm: Communicator) -> Call:
        """MPI_Comm_free (collective over the freed communicator)."""
        return Call(OpKind.COMM_FREE, comm)

    def finalize(self) -> Call:
        return Call(OpKind.FINALIZE, self._world)

    # -- composite calls ---------------------------------------------------

    def sendrecv(self, dest: int, source: int, sendtag: int = 0,
                 recvtag: int = ANY_TAG, *, comm: Communicator | None = None,
                 nbytes: int = 8) -> Iterator[Call]:
        """MPI_Sendrecv, decomposed as the standard suggests.

        Implemented as Isend + Irecv + Waitall (paper footnote 1); the
        decomposed operations carry a shared ``sendrecv_group`` marker so
        reports render them as one call. Use as
        ``status = yield from rank.sendrecv(...)``.
        """
        c = comm or self._world
        group = self._sendrecv_counter
        self._sendrecv_counter += 1
        send = Call(OpKind.ISEND, c, peer=dest, tag=sendtag, nbytes=nbytes,
                    sendrecv_group=group)
        recv = Call(OpKind.IRECV, c, peer=source, tag=recvtag, nbytes=nbytes,
                    sendrecv_group=group)
        sreq = yield send
        rreq = yield recv
        statuses = yield Call(OpKind.WAITALL, self._world,
                              requests=(sreq, rreq), sendrecv_group=group)
        return statuses[1]
