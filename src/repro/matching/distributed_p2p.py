"""Distributed point-to-point matching at a first-layer node [13].

Matching is receiver-located: send information travels (as
:class:`~repro.core.messages.PassSend`, intralayer) to the node that
hosts the destination rank; that node pairs sends with its hosted
receives. Wildcard receives are resolved with the matching decision
the MPI implementation made at runtime (``observed_peer`` on the
operation — the "additional status update" of Section 4.1); a wildcard
receive that never completed in the application run stays unmatched.

MPI's non-overtaking rule is preserved: per (communicator, source,
destination) channel, sends are consumed in send order by the
tag-compatible receives in their posted order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.messages import PassSend
from repro.mpi.constants import ANY_TAG
from repro.mpi.ops import Operation, OpRef


@dataclass(slots=True)
class _PostedRecv:
    ref: OpRef
    comm_id: int
    #: Resolved source: explicit peer or the runtime-observed wildcard
    #: decision; None when the wildcard never resolved (unmatchable).
    source: Optional[int]
    tag: int
    is_probe: bool


@dataclass(frozen=True, slots=True)
class MatchEvent:
    """A pairing produced by the matcher."""

    recv_ref: OpRef
    send: PassSend
    is_probe: bool


class NodeP2PMatcher:
    """Receiver-side matching structures of one first-layer node.

    Only what can still match is kept: a send leaves its channel when a
    receive consumes it, a receive or probe when it is matched, and an
    emptied channel leaves the table — so the structures are bounded by
    the unmatched residue, not by the length of the run.
    """

    def __init__(self) -> None:
        #: (comm, src, dst) -> unconsumed sends in arrival order.
        self._sends: Dict[Tuple[int, int, int], List[PassSend]] = {}
        #: (comm, dst) -> unmatched receives/probes in issue order.
        self._recvs: Dict[Tuple[int, int], List[_PostedRecv]] = {}

    # -- receives -----------------------------------------------------------

    def post_receive(self, op: Operation) -> Optional[MatchEvent]:
        """Register a hosted receive/probe; return its match if found.

        A matched probe is complete (it never consumes); an unmatched
        receive or directed probe stays posted for a send to arrive.
        """
        posted = _PostedRecv(
            ref=op.ref,
            comm_id=op.comm_id,
            source=op.effective_source(),
            tag=op.tag,
            is_probe=op.is_probe(),
        )
        event = self._match_posted(posted)
        if event is None:
            self._recvs.setdefault((op.comm_id, op.rank), []).append(posted)
        return event

    def _match_posted(self, posted: _PostedRecv) -> Optional[MatchEvent]:
        if posted.source is None:
            return None  # unresolved wildcard: never matches
        key = (posted.comm_id, posted.source, posted.ref[0])
        stored = self._sends.get(key)
        if stored is None:
            return None
        for index, info in enumerate(stored):
            if posted.tag != ANY_TAG and posted.tag != info.tag:
                continue
            if not posted.is_probe:
                del stored[index]
                if not stored:
                    del self._sends[key]
            return MatchEvent(
                recv_ref=posted.ref, send=info, is_probe=posted.is_probe
            )
        return None

    # -- sends ----------------------------------------------------------------

    def store_send(self, info: PassSend) -> List[MatchEvent]:
        """handlePassSend: match against posted receives, else store.

        Returns all pairings this arrival produces (possibly several
        probes plus one consuming receive).
        """
        events: List[MatchEvent] = []
        consumed = False
        key = (info.comm_id, info.dest)
        posted_list = self._recvs.get(key, [])
        index = 0
        while index < len(posted_list):
            posted = posted_list[index]
            if posted.source != info.send_rank or (
                posted.tag != ANY_TAG and posted.tag != info.tag
            ):
                index += 1
                continue
            del posted_list[index]
            events.append(
                MatchEvent(
                    recv_ref=posted.ref, send=info, is_probe=posted.is_probe
                )
            )
            if not posted.is_probe:
                consumed = True
                break  # the message is consumed; later receives wait
        if events and not posted_list:
            del self._recvs[key]
        if not consumed:
            self._sends.setdefault(
                (info.comm_id, info.send_rank, info.dest), []
            ).append(info)
        return events

    def pending_receive_count(self) -> int:
        return sum(map(len, self._recvs.values()))

    def stored_send_count(self) -> int:
        return sum(map(len, self._sends.values()))

    def stats(self) -> Dict[str, int]:
        """Residual matcher state, for per-shard gauges at join."""
        return {
            "pending_receives": self.pending_receive_count(),
            "stored_sends": self.stored_send_count(),
        }
