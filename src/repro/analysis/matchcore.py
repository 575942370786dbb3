"""The sequential-model matching core: one step function, three drivers.

Deadlock in the sequential model *is* multi-queue string matching
(arXiv:0709.3693): every ``(comm, src, dst, tag)`` combination is a
string of messages in post order, every ``(comm, dst, source spec, tag
spec)`` combination a string of receives, and MPI's non-overtaking rule
consumes each string strictly front to back. This module owns that
matching and everything else the static deciders share — the kind
classes, the static tables, the mutable state, the step function with
its wake closure, the blocked-rank condition and the terminal-state
diagnosis — and nothing a single driver needs on its own:

* :mod:`repro.analysis.explore` branches over scheduler interleavings
  and wildcard choices, copying the state at each branch;
* :func:`repro.analysis.sequential.match_linear` is the zero-branch
  case: wildcard-free programs have one matching (arXiv:0709.3692), so
  a worklist over :meth:`MatchState.step` decides them;
* :func:`repro.analysis.sequential.match_sequences` is that worklist
  for ``repro lint``, recorded outcomes included.

Fidelity contract
-----------------
The transition semantics mirror the virtual runtime
(:mod:`repro.runtime.engine` + :mod:`repro.runtime.matchstate`) under
the paper's strict blocking predicate ``b``, so every witness replays:

* matching is *eager*: a send arriving at a destination with a
  compatible posted receive pairs immediately (earliest receive in
  post order), and a receive finding compatible messages always takes
  one (per-sender earliest — MPI's non-overtaking rule);
* the **only** nondeterministic matching decision is which sender a
  wildcard receive takes when several senders have messages queued —
  the caller of :meth:`MatchState.step` makes it (``candidate``);
* completions are deterministic: ``MPI_Waitany`` consumes the
  lowest-index done request at execution and exactly the waking
  request when parked (one request completes per match event). A
  recorded trace instead names what completed (``completed_indices``,
  ``test_flag``); ``observed=True`` makes the step follow the record.

Eager matching is what lets the strings stay static: a live message
and a live compatible receive never coexist, so each string is
consumed in order and the whole matching state is one cursor per
string. Whether an operation has been posted is read off the program
counters; nothing is ever queued or deleted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import repro.mpi.blocking  # noqa: F401  (assigns OpKind.strict_blocking)
from repro.analysis.witness import WitnessSchedule
from repro.core.waitfor import (
    Clause,
    GroupClause,
    WaitForCondition,
    WaitTarget,
    intern_target,
)
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    WORLD_COMM_ID,
    OpKind,
)
from repro.mpi.ops import Operation, OpRef
from repro.util.errors import ReproError
from repro.wfg.detect import DetectionResult, detect_deadlock
from repro.wfg.graph import WaitForGraph

#: Wildcard pinnings made by one step: ``(receive ref, source)`` pairs.
Pins = Tuple[Tuple[OpRef, int], ...]


class MatchUnsupported(ReproError):
    """The program uses a construct the sequential model cannot follow
    soundly (or one the engine itself would reject as an MPI usage
    error)."""


# -- kind classes ---------------------------------------------------------
#
# What a step does with an operation, read off the strict ``b`` of
# Section 3.1 (``OpKind.strict_blocking``) and the constants module's
# predicates. A blocking p2p call parks until matched; a request
# flavour completes its request instead; the buffered and ready sends
# complete at posting either way.

#: Sends that complete at post time (no rendezvous): the calls ``b``
#: itself exempts, and their request flavours.
_BUFFERED_SEND_KINDS = frozenset(
    kind
    for kind in OpKind
    if kind.send and not kind.strict_blocking and not kind.nonblocking_p2p
) | {OpKind.IBSEND, OpKind.IRSEND}

(
    _SEND_PARKS,    # MPI_Send, MPI_Ssend: park until matched
    _SEND_REQUEST,  # MPI_Isend, MPI_Issend, MPI_Start[send]
    _SEND_BUFFERED,
    _RECV_PARKS,    # MPI_Recv
    _RECV_REQUEST,  # MPI_Irecv, MPI_Start[recv]
    _PROBE,
    _WAIT,
    _TEST,
    _COLLECTIVE,
    _FINALIZE,
    _NULL_REQUEST,  # request flavour addressed to MPI_PROC_NULL
    _LOCAL,         # purely rank-local effect
) = range(12)


def _step_class(kind: OpKind) -> int:
    if kind.send:
        if kind.strict_blocking:
            return _SEND_PARKS
        if kind in _BUFFERED_SEND_KINDS:
            return _SEND_BUFFERED
        return _SEND_REQUEST
    if kind.recv:
        return _RECV_PARKS if kind.strict_blocking else _RECV_REQUEST
    if kind.probe and kind.strict_blocking:
        return _PROBE
    if kind.wait:
        return _WAIT
    if kind.test:
        return _TEST
    if kind.collective:
        return _COLLECTIVE
    if kind is OpKind.FINALIZE:
        return _FINALIZE
    # MPI_Iprobe, persistent-request management, the Sendrecv marker.
    return _LOCAL


#: Keyed by the member's value: a string hashes in C, an enum member
#: through a Python-level ``__hash__`` — once per operation adds up.
_STEP_CLASS: Dict[str, int] = {
    kind.value: _step_class(kind) for kind in OpKind
}


def runtime_steered(kind: OpKind) -> bool:
    """Whether what an operation of ``kind`` does depends on event
    timing (``MPI_Iprobe``, ``MPI_Test*``, ``MPI_Waitany``/``some``):
    one interleaving then says nothing about the others, and a static
    extraction through it is inexact."""
    return kind.test or kind.any_completion or kind is OpKind.IPROBE


# -- static tables ----------------------------------------------------------

class _Channel:
    """The message strings of one directed ``(comm, src, dst)`` pair."""

    __slots__ = ("index", "src", "by_tag", "arrival")

    def __init__(self, index: int, src: int) -> None:
        self.index = index
        self.src = src
        #: tag -> id of the string of this channel's messages with it.
        self.by_tag: Dict[int, int] = {}
        #: Every message of the channel (its ``ts``) in post order — the
        #: string an ``ANY_TAG`` receive consumes.
        self.arrival: List[int] = []


class Tables:
    """Everything a step reads and never writes, for one program set."""

    def __init__(
        self, sequences: Sequence[Sequence[Operation]], comms: CommRegistry
    ) -> None:
        self.seqs: List[List[Operation]] = [list(s) for s in sequences]
        self.comms = comms
        self.p = len(self.seqs)
        self.lens = [len(s) for s in self.seqs]

        #: The request-creating (nonblocking p2p) operations, and per
        #: rank: request id -> its slot in that list (and in the
        #: state's request flags).
        self.requests: List[Operation] = []
        self.slots: List[Dict[int, int]] = []
        #: Per rank, per ``ts``: the step class of the operation, the
        #: string (or collective wave) it belongs to, and its position
        #: in that string.
        self.code: List[List[int]] = []
        self.queue: List[List[int]] = []
        self.pos: List[List[int]] = []
        #: The strings: the ``ts`` of each message (all from one
        #: sender) or receive (all by one destination), in post order.
        self.strings: List[List[int]] = []
        self.channels: Dict[Tuple[int, int, int], _Channel] = {}
        #: Collective waves: wave id -> communicator and index of the
        #: wave on it, ``{member rank: ts of its call}``. MPI_Finalize
        #: is the world's last wave (index -1): it completes when every
        #: rank arrived, and never when some rank does not finalize.
        self.wave_of: List[Tuple[int, int]] = []
        self.wave_members: List[Dict[int, int]] = []

        #: (is a send, comm, posting rank, peer, tag) -> string id.
        ids: Dict[Tuple[bool, int, int, int, int], int] = {}
        wave_ids: Dict[Tuple[int, int], int] = {}
        for r, seq in enumerate(self.seqs):
            slots: Dict[int, int] = {}
            codes: List[int] = []
            queues: List[int] = []
            positions: List[int] = []
            wave_no: Dict[int, int] = {}
            for op in seq:
                kind = op.kind
                code = _STEP_CLASS[kind._value_]
                queue = pos = -1
                if kind.nonblocking_p2p and op.request is not None:
                    slots[op.request] = len(self.requests)
                    self.requests.append(op)
                if kind.p2p and op.peer == PROC_NULL:
                    code = _NULL_REQUEST if kind.nonblocking_p2p else _LOCAL
                elif code <= _RECV_REQUEST:
                    assert op.peer is not None
                    key = (kind.send, op.comm_id, r, op.peer, op.tag)
                    queue = ids.get(key, -1)
                    if queue < 0:
                        queue = ids[key] = len(self.strings)
                        self.strings.append([])
                    pos = len(self.strings[queue])
                    self.strings[queue].append(op.ts)
                    if kind.send:
                        pair = (op.comm_id, r, op.peer)
                        channel = self.channels.get(pair)
                        if channel is None:
                            channel = self.channels[pair] = _Channel(
                                len(self.channels), r
                            )
                        channel.by_tag[op.tag] = queue
                        channel.arrival.append(op.ts)
                elif code == _COLLECTIVE or code == _FINALIZE:
                    if code == _FINALIZE:
                        wave = (WORLD_COMM_ID, -1)
                    else:
                        wave = (op.comm_id, wave_no.get(op.comm_id, 0))
                        wave_no[op.comm_id] = wave[1] + 1
                    queue = wave_ids.get(wave, -1)
                    if queue < 0:
                        queue = wave_ids[wave] = len(self.wave_of)
                        self.wave_of.append(wave)
                        self.wave_members.append({})
                    # (A rank's first MPI_Finalize is its arrival.)
                    self.wave_members[queue].setdefault(r, op.ts)
                codes.append(code)
                queues.append(queue)
                positions.append(pos)
            self.slots.append(slots)
            self.code.append(codes)
            self.queue.append(queues)
            self.pos.append(positions)

        #: Per receive string: the channel a *directed* receive reads
        #: (None for a wildcard, or when nobody ever sends on it).
        self.recv_channel: Dict[int, Optional[_Channel]] = {}
        #: Per message string: the receive strings whose head an
        #: arriving message of it may pair with.
        self.partners: Dict[int, Tuple[int, ...]] = {}
        for (is_send, comm_id, rank, peer, tag), string in ids.items():
            if is_send:
                self.partners[string] = tuple(
                    ids[key]
                    for key in (
                        (False, comm_id, peer, rank, tag),
                        (False, comm_id, peer, rank, ANY_TAG),
                        (False, comm_id, peer, ANY_SOURCE, tag),
                        (False, comm_id, peer, ANY_SOURCE, ANY_TAG),
                    )
                    if key in ids
                )
            else:
                self.recv_channel[string] = self.channels.get(
                    (comm_id, peer, rank)
                )
        #: ``(comm, dst)`` -> the channels into ``dst``, by sender: where
        #: a wildcard's per-sender-earliest candidates come from.
        self.inbound: Dict[Tuple[int, int], List[_Channel]] = {}
        for (comm_id, _src, dst), into in self.channels.items():
            self.inbound.setdefault((comm_id, dst), []).append(into)
        for channels in self.inbound.values():
            channels.sort(key=lambda into: into.src)
        #: Per wave: the group that must arrive, and the arrival count
        #: that completes it — the group size when exactly the group
        #: calls it, else unreachable.
        self.wave_group: List[Tuple[int, ...]] = [
            comms.get(comm_id).group if comm_id in comms else ()
            for comm_id, _idx in self.wave_of
        ]
        self.wave_size: List[int] = [
            len(group) if set(members) == set(group) else -1
            for group, members in zip(self.wave_group, self.wave_members)
        ]

    def check_waves(self) -> None:
        """Reject what the engine rejects as collective usage errors.

        A precondition of the verify entry points, not of stepping:
        ``repro lint`` steps through mismatched waves (members park
        until the whole group arrived, whatever they called) because
        ``check_collective_consistency`` already reports them.
        """
        for (comm_id, idx), group, members in zip(
            self.wave_of, self.wave_group, self.wave_members
        ):
            if comm_id not in self.comms:
                raise MatchUnsupported(
                    f"collective on unknown communicator {comm_id}"
                )
            kinds = set()
            roots = set()
            in_group = set(group)
            for r, ts in members.items():
                if r not in in_group:
                    raise MatchUnsupported(
                        f"rank {r} calls a collective on communicator "
                        f"{comm_id} it does not belong to"
                    )
                op = self.seqs[r][ts]
                kinds.add(op.kind)
                roots.add(op.root)
            if len(kinds) > 1 or len(roots) > 1:
                raise MatchUnsupported(
                    f"mismatched collective wave {idx} on communicator "
                    f"{comm_id} ({', '.join(sorted(k.value for k in kinds))})"
                )


# -- terminal-state diagnosis -------------------------------------------------

@dataclass
class Terminal:
    """What a transition-free state means: who is stuck, and whether
    the wait-for graph over them has a deadlock."""

    num_ranks: int
    #: Blocked op of every stuck rank (deadlocked or not).
    blocked: Dict[int, OpRef] = field(default_factory=dict)
    finished: Set[int] = field(default_factory=set)
    conditions: Dict[int, WaitForCondition] = field(default_factory=dict)
    graph: Optional[WaitForGraph] = None
    detection: Optional[DetectionResult] = None
    deadlocked: Tuple[int, ...] = ()
    witness_cycle: Tuple[int, ...] = ()

    def witness(
        self, schedule: List[int], pinnings: Dict[OpRef, int], label: str
    ) -> Optional[WitnessSchedule]:
        """The replayable schedule behind a deadlock (None without one);
        ``schedule`` is the issue order that reached this state."""
        if not self.deadlocked:
            return None
        return WitnessSchedule(
            num_ranks=self.num_ranks,
            schedule=schedule,
            pinnings=pinnings,
            deadlocked=self.deadlocked,
            blocked_ops=dict(self.blocked),
            witness_cycle=self.witness_cycle,
            label=label,
        )


# -- the mutable state and its step function ------------------------------------

class MatchState:
    """Program counters plus one cursor per string.

    The first ``taken[s]`` messages (or receives) of string ``s`` have
    been paired; the rest, as far as posted, are live.
    An operation is *posted* once its rank has executed it: it sits
    before the rank's program counter, or at it with the rank parked.
    """

    __slots__ = (
        "tables", "pcs", "parked", "taken", "cursor", "done",
        "consumed", "needs", "waiting", "arrivals", "woken",
    )

    def __init__(self, tables: Tables) -> None:
        self.tables = tables
        self.pcs = [0] * tables.p
        #: True when the op at ``pcs[r]`` had its posting side effect
        #: and the rank is parked in it.
        self.parked = [False] * tables.p
        self.taken = [0] * len(tables.strings)
        #: Per channel: how much of ``arrival`` is known consumed (only
        #: a shortcut past messages tagged receives already took).
        self.cursor = [0] * len(tables.channels)
        #: Per request slot: completed (matched / buffered), and
        #: consumed by an executed completion.
        self.done = bytearray(len(tables.requests))
        self.consumed = bytearray(len(tables.requests))
        #: Per rank parked in a WAIT*: the undone request slots it
        #: watches and how many more completions release it.
        self.waiting: List[FrozenSet[int]] = [frozenset()] * tables.p
        self.needs = [0] * tables.p
        #: Per wave (MPI_Finalize included): how many ranks arrived.
        self.arrivals = [0] * len(tables.wave_of)
        #: Ranks released from a parked state, in release order, for a
        #: driver that keeps a worklist (it drains the list).
        self.woken: List[int] = []

    def copy(self) -> "MatchState":
        new = MatchState.__new__(MatchState)
        new.tables = self.tables
        new.pcs = self.pcs[:]
        new.parked = self.parked[:]
        new.taken = self.taken[:]
        new.cursor = self.cursor[:]
        new.done = self.done[:]
        new.consumed = self.consumed[:]
        new.waiting = self.waiting[:]
        new.needs = self.needs[:]
        new.arrivals = self.arrivals[:]
        new.woken = []
        return new

    def key(self) -> Hashable:
        """Identity of the state: program counters, parked flags,
        unmatched messages and unmatched posted receives (both as
        their strings' cursors, which say the same given the program
        counters) and consumed requests. Request done-ness, wave
        arrivals and the shortcuts are derivable and left out."""
        return (
            tuple(self.pcs),
            tuple(self.parked),
            tuple(self.taken),
            bytes(self.consumed),
        )

    # -- queries ---------------------------------------------------------

    def _head(self, channel: _Channel, tag: int) -> int:
        """``ts`` of the earliest live message on ``channel`` a receive
        with ``tag`` may take, or -1."""
        tables = self.tables
        src = channel.src
        if tag != ANY_TAG:
            string = channel.by_tag.get(tag, -1)
            if string < 0:
                return -1
            messages = tables.strings[string]
            at = self.taken[string]
        else:
            # Lazy deletion over the one shared string: skip what the
            # per-tag cursors say is gone.
            messages = channel.arrival
            at = self.cursor[channel.index]
            queue, pos, taken = tables.queue[src], tables.pos[src], self.taken
            while at < len(messages) and (
                pos[messages[at]] < taken[queue[messages[at]]]
            ):
                at += 1
            self.cursor[channel.index] = at
        if at == len(messages):
            return -1
        ts = messages[at]
        pc = self.pcs[src]
        return ts if ts < pc or (ts == pc and self.parked[src]) else -1

    def candidates(self, rank: int) -> List[OpRef]:
        """The messages the wildcard receive ``rank`` stands at may
        take: per-sender earliest compatible, sorted by sender."""
        op = self.tables.seqs[rank][self.pcs[rank]]
        found = []
        for channel in self.tables.inbound.get((op.comm_id, rank), ()):
            ts = self._head(channel, op.tag)
            if ts >= 0:
                found.append((channel.src, ts))
        return found

    def _wanted(
        self, op: Operation, observed: bool
    ) -> Tuple[Tuple[int, ...], bool]:
        """The requests a completion is about, and whether it needs all
        of them. A recorded any-completion needs exactly what the trace
        saw complete."""
        if not op.kind.any_completion:
            return op.requests, True
        if observed and op.completed_indices:
            count = len(op.requests)
            seen = [op.requests[i] for i in op.completed_indices if i < count]
            return tuple(seen), True
        return op.requests, False

    # -- the step ----------------------------------------------------------

    def step(
        self,
        rank: int,
        candidate: Optional[OpRef] = None,
        observed: bool = False,
    ) -> Pins:
        """Execute the operation ``rank`` stands at, plus its
        deterministic closure (mirrors the engine's wake chains).

        ``candidate`` is the message a wildcard receive takes, chosen by
        the caller among :meth:`candidates`; a directed receive finds
        its own. ``observed`` makes completions follow the outcome a
        recorded trace carries instead of the model's own. Returns the
        wildcard pinnings the step made.
        """
        tables = self.tables
        pcs = self.pcs
        pc = pcs[rank]
        op = tables.seqs[rank][pc]
        code = tables.code[rank][pc]
        pins: Pins = ()

        if code <= _SEND_BUFFERED:
            string = tables.queue[rank][pc]
            dst = op.peer
            assert dst is not None
            # Earliest compatible posted receive, in post order.
            best = best_string = -1
            for recv_string in tables.partners[string]:
                posts = tables.strings[recv_string]
                at = self.taken[recv_string]
                if at < len(posts):
                    ts = posts[at]
                    if (
                        ts < pcs[dst] or (ts == pcs[dst] and self.parked[dst])
                    ) and (best < 0 or ts < best):
                        best, best_string = ts, recv_string
            if code != _SEND_PARKS and op.request is not None and (
                best >= 0 or code == _SEND_BUFFERED
            ):
                self.done[tables.slots[rank][op.request]] = 1
            if best >= 0:
                self.taken[string] += 1
                self.taken[best_string] += 1
                pcs[rank] = pc + 1  # matched: call/request completes at post
                if tables.seqs[dst][best].peer == ANY_SOURCE:
                    pins = (((dst, best), rank),)
                self._matched(dst, best, observed)
            else:
                if code == _SEND_PARKS:
                    self.parked[rank] = True  # strict b: park until matched
                else:
                    pcs[rank] = pc + 1
                # Engine ``_notify_probe_waiters``: the only new message
                # a probe parked at the destination can see is this one.
                if 0 <= dst < tables.p and self.parked[dst]:
                    at = pcs[dst]
                    probe = tables.seqs[dst][at]
                    if (
                        tables.code[dst][at] == _PROBE
                        and probe.comm_id == op.comm_id
                        and probe.peer in (ANY_SOURCE, rank)
                        and probe.tag in (ANY_TAG, op.tag)
                    ):
                        self._release(dst)
        elif code <= _RECV_REQUEST:
            string = tables.queue[rank][pc]
            src, ts = rank, -1
            if candidate is not None:
                src, ts = candidate
            elif op.peer != ANY_SOURCE:
                channel = tables.recv_channel[string]
                if channel is not None:
                    src, ts = channel.src, self._head(channel, op.tag)
            if ts >= 0:
                self.taken[tables.queue[src][ts]] += 1
                self.taken[string] += 1
                pcs[rank] = pc + 1
                if code == _RECV_REQUEST:
                    assert op.request is not None
                    self.done[tables.slots[rank][op.request]] = 1
                if op.peer == ANY_SOURCE:
                    pins = (((rank, pc), src),)
                self._matched(src, ts, observed)
            elif code == _RECV_PARKS:
                self.parked[rank] = True
            else:
                pcs[rank] = pc + 1
        elif code == _WAIT or code == _TEST:
            self._complete(rank, op, code, observed)
        elif code == _COLLECTIVE or code == _FINALIZE:
            self.parked[rank] = True
            wave = tables.queue[rank][pc]
            self.arrivals[wave] += 1
            if self.arrivals[wave] == tables.wave_size[wave]:
                # Last arrival releases the group.
                members = tables.wave_members[wave]
                for m in tables.wave_group[wave]:
                    if pcs[m] == members[m] and self.parked[m]:
                        self._release(m)
        elif code == _PROBE:
            if op.peer != ANY_SOURCE:
                assert op.peer is not None
                channel = tables.channels.get((op.comm_id, op.peer, rank))
                seen = channel is not None and self._head(channel, op.tag) >= 0
            else:
                seen = bool(self.candidates(rank))
            if seen:
                pcs[rank] = pc + 1
            else:
                self.parked[rank] = True
        else:
            if code == _NULL_REQUEST:
                assert op.request is not None
                self.done[tables.slots[rank][op.request]] = 1
            pcs[rank] = pc + 1
        return pins

    # -- the wake closure ------------------------------------------------------

    def _release(self, rank: int) -> None:
        self.pcs[rank] += 1
        self.parked[rank] = False
        self.woken.append(rank)

    def _matched(self, rank: int, ts: int, observed: bool) -> None:
        """The queued send or pending receive at ``(rank, ts)`` just
        paired: wake whoever was waiting on it."""
        tables = self.tables
        code = tables.code[rank][ts]
        if code == _SEND_PARKS or code == _RECV_PARKS:
            # A blocking unmatched call implies its rank parked in it;
            # the match releases it.
            self._release(rank)
            return
        if code == _SEND_BUFFERED:
            return
        # The request created there completed; a WAIT* the rank is
        # parked in may have been waiting for it.
        request = tables.seqs[rank][ts].request
        assert request is not None
        slot = tables.slots[rank][request]
        self.done[slot] = 1
        if self.needs[rank] and slot in self.waiting[rank]:
            self.needs[rank] -= 1
            if not self.needs[rank]:
                wait = tables.seqs[rank][self.pcs[rank]]
                wanted, need_all = self._wanted(wait, observed)
                if need_all:
                    for other in wanted:
                        self.consumed[tables.slots[rank][other]] = 1
                else:
                    self.consumed[slot] = 1
                self._release(rank)

    def _complete(
        self, rank: int, op: Operation, code: int, observed: bool
    ) -> None:
        """Engine ``_try_completion``: consume and advance on success,
        park a WAIT* otherwise (TEST flavours never block)."""
        tables = self.tables
        slots = tables.slots[rank]
        done, consumed = self.done, self.consumed
        if code == _TEST and observed and not op.test_flag:
            # The trace says the test failed, whatever was done by then.
            self.pcs[rank] += 1
            return
        wanted, need_all = self._wanted(op, observed)
        watched = []
        for request in wanted:
            slot = slots.get(request, -1)
            if slot < 0:
                raise MatchUnsupported(
                    f"rank {rank} completes unknown request {request} "
                    "(the engine would raise an MPI usage error)"
                )
            if consumed[slot]:
                raise MatchUnsupported(
                    f"rank {rank} reuses already-completed request {request}"
                )
            watched.append(slot)
        undone = [slot for slot in watched if not done[slot]]
        take: List[int]
        if need_all:
            take = [] if undone else watched
        elif op.kind in (OpKind.WAITANY, OpKind.TESTANY):
            take = [slot for slot in watched if done[slot]][:1]
        else:
            take = [slot for slot in watched if done[slot]]
        if take:
            for slot in take:
                consumed[slot] = 1
            self.pcs[rank] += 1
        elif code == _TEST:
            self.pcs[rank] += 1
        else:
            self.parked[rank] = True
            self.waiting[rank] = frozenset(undone)
            self.needs[rank] = len(undone) if need_all else 1

    # -- blocked ranks and terminal states -----------------------------------------

    def _posted(self, rank: int, ts: Optional[int]) -> bool:
        if ts is None:
            return False
        pc = self.pcs[rank]
        return ts < pc or (ts == pc and self.parked[rank])

    def _p2p_clause(self, op: Operation) -> Clause:
        assert op.peer is not None
        if op.kind.send:
            return (intern_target(op.peer, "no matching receive posted"),)
        if op.peer != ANY_SOURCE:
            return (intern_target(op.peer, "no matching send posted"),)
        return GroupClause(
            self.tables.comms.get(op.comm_id).group,
            op.rank,
            "wildcard receive: any sender qualifies",
        )

    def blocked_condition(self, rank: int) -> WaitForCondition:
        """Wait-for condition of a parked rank at a terminal state
        (mirrors the reason strings of the runtime WFG path)."""
        tables = self.tables
        op = tables.seqs[rank][self.pcs[rank]]
        cond = WaitForCondition(
            rank=rank, op_ref=op.ref, op_description=op.describe()
        )
        kind = op.kind
        if kind.p2p:
            cond.clauses.append(self._p2p_clause(op))
        elif kind.wait:
            unsatisfied: List[Clause] = []
            for request in op.requests:
                slot = tables.slots[rank].get(request, -1)
                if slot < 0 or self.consumed[slot] or self.done[slot]:
                    continue
                unsatisfied.append(self._p2p_clause(tables.requests[slot]))
            if not kind.any_completion:
                cond.clauses.extend(unsatisfied)
            else:
                # Any one completion releases the rank: flatten into a
                # single explicit OR clause.
                flat: Dict[WaitTarget, None] = {}
                for clause in unsatisfied:
                    if isinstance(clause, GroupClause):
                        reason = clause.reason
                        clause = tuple(
                            intern_target(k, reason) for k in clause.ranks()
                        )
                    flat.update(dict.fromkeys(clause))
                cond.clauses.append(tuple(flat))
        elif kind.collective:
            wave = tables.queue[rank][self.pcs[rank]]
            members = tables.wave_members[wave]
            reason = (
                f"never called a matching {kind.value} on communicator "
                f"{op.comm_id}"
            )
            for m in tables.wave_group[wave]:
                if not self._posted(m, members.get(m)):
                    cond.clauses.append((intern_target(m, reason),))
        return cond

    def classify_terminal(self) -> Terminal:
        """Diagnose a transition-free state.

        Mirrors the runtime analysis (`core.transition.finished`): a
        rank sitting in MPI_Finalize counts as finished, not blocked —
        it produced all its communication and can release nobody.
        """
        tables = self.tables
        terminal = Terminal(num_ranks=tables.p)
        for rank in range(tables.p):
            pc = self.pcs[rank]
            if pc >= tables.lens[rank] or (
                tables.code[rank][pc] == _FINALIZE
            ):
                terminal.finished.add(rank)
            else:
                terminal.blocked[rank] = (rank, pc)
        if terminal.blocked:
            terminal.conditions = {
                rank: self.blocked_condition(rank)
                for rank in terminal.blocked  # filled in rank order
            }
            terminal.graph = WaitForGraph.from_conditions(
                tables.p,
                terminal.conditions.values(),
                finished=terminal.finished,
            )
            terminal.detection = detect_deadlock(terminal.graph)
            terminal.deadlocked = terminal.detection.deadlocked
            terminal.witness_cycle = tuple(terminal.detection.witness_cycle)
        return terminal
