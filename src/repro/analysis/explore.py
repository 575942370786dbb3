"""Bounded match-set exploration of wildcard nondeterminism.

`repro.analysis.seqmatch` replays the *one* deterministic schedule a
wildcard-free program has. With ``MPI_ANY_SOURCE`` in play there is a
set of feasible matchings (the paper's Fig. 10 stress case is built
on exactly this), and a deadlock may hide in only some of them. This
module enumerates that set as an explicit state graph over the
extracted per-rank sequences (:mod:`repro.analysis.extract`) and
classifies the program:

* ``deadlock-free`` — no reachable terminal state has a blocked rank;
* ``deadlock-possible`` — some schedule + wildcard choice deadlocks;
  the verdict carries a replayable :class:`WitnessSchedule`;
* ``bound-exceeded`` — the graph was cut off by ``max_states`` /
  ``max_depth`` before either claim could be proved. This is *not*
  ``deadlock-free``.

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
  that choice, times the scheduler interleaving, is the branch
  structure of the state graph;
* completions are deterministic: ``MPI_Waitany`` consumes the
  lowest-index done request at execution and exactly the waking
  request when parked (one request completes per match event).

States are memoized by a compact hashable key — program counters,
parked flags, unmatched messages, unposted receives, and consumed
request sets; request done-ness and collective wave arrivals are
derivable and deliberately not stored. Every transition strictly
increases ``sum(2*pc + parked)``, so the graph is acyclic and the
visited-set prune is sound for deadlock reachability.

Partial-order reduction, derived from one static may-send table
(``senders[(comm, dst)]``, :meth:`_Model.build_por_tables`):

* when some rank has a single enabled transition that is *safe* —
  commutes with every other enabled transition and cannot change any
  future wildcard candidate set — only that transition is explored (a
  singleton ample set). A wildcard receive with at most one possible
  sender counts as directed, so it and the sends into it are safe;
* otherwise only the enabled transitions of one communication-closed
  rank cluster are explored (a persistent set): clusters that never
  exchange a message or share a collective are searched one after
  another, their state counts adding instead of multiplying.

This collapses the Fig. 10 wildcard storm and single-sender wildcard
programs to a chain while preserving every reachable deadlock; what
stays exponential is one cluster with two or more live senders into a
wildcard (DESIGN §10).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.extract import Extraction
from repro.analysis.witness import WitnessSchedule
from repro.core.waitfor import WaitForCondition, WaitTarget, intern_target
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    OpKind,
    is_collective_kind,
    is_completion_kind,
    is_recv_kind,
    is_send_kind,
)
from repro.mpi.ops import Operation, OpRef
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import ReproError
from repro.wfg.detect import DetectionResult, detect_deadlock
from repro.wfg.graph import WaitForGraph

DEFAULT_MAX_STATES = 200_000
DEFAULT_MAX_DEPTH = 1_000_000

#: Send calls/requests that complete at post time (no rendezvous).
_BUFFERED_SEND_KINDS = frozenset(
    {OpKind.BSEND, OpKind.RSEND, OpKind.IBSEND, OpKind.IRSEND}
)
#: Blocking send calls that park until matched under strict ``b``.
_RENDEZVOUS_BLOCKING_SENDS = frozenset({OpKind.SEND, OpKind.SSEND})
#: Ops with purely rank-local effect.
_LOCAL_KINDS = frozenset(
    {
        OpKind.SEND_INIT,
        OpKind.RECV_INIT,
        OpKind.REQUEST_FREE,
        OpKind.IPROBE,
        OpKind.SENDRECV_MARKER,
    }
)
_WAIT_PARK_KINDS = frozenset(
    {OpKind.WAIT, OpKind.WAITALL, OpKind.WAITANY, OpKind.WAITSOME}
)
#: Nonblocking p2p kinds that register a completable request.
_REQUEST_CREATOR_KINDS = frozenset(
    {
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
        OpKind.IRECV,
        OpKind.PSTART_SEND,
        OpKind.PSTART_RECV,
    }
)


class ExplorationUnsupported(ReproError):
    """The program uses a construct the explorer cannot model soundly
    (or one the engine itself would reject as an MPI usage error)."""


class Verdict(Enum):
    """Classification of one program set by the explorer."""

    DEADLOCK_FREE = "deadlock-free"
    DEADLOCK_POSSIBLE = "deadlock-possible"
    BOUND_EXCEEDED = "bound-exceeded"


@dataclass
class ExploreStats:
    """Exploration effort counters (mirrored into ``verify.*``)."""

    states_explored: int = 0
    #: Enabled transitions skipped by the partial-order reduction.
    states_pruned: int = 0
    #: Transitions whose successor was already memoized.
    memo_hits: int = 0
    transitions: int = 0
    max_depth_reached: int = 0


@dataclass
class ExploreResult:
    """Outcome of one bounded exploration."""

    verdict: Verdict
    stats: ExploreStats
    witness: Optional[WitnessSchedule] = None
    deadlocked: Tuple[int, ...] = ()
    witness_cycle: Tuple[int, ...] = ()
    blocked_ops: Dict[int, OpRef] = field(default_factory=dict)
    conditions: Dict[int, WaitForCondition] = field(default_factory=dict)
    graph: Optional[WaitForGraph] = None
    detection: Optional[DetectionResult] = None
    reason: str = ""
    #: Decidable-fragment label when this result came from the linear
    #: fast path (:mod:`repro.analysis.symbolic.fragments`); empty for
    #: genuine state-graph explorations.
    fragment: str = ""

    @property
    def has_deadlock(self) -> bool:
        return self.verdict is Verdict.DEADLOCK_POSSIBLE


class _State(NamedTuple):
    """Hashable memoization key; everything else is derivable."""

    pcs: Tuple[int, ...]
    #: True when the op at ``pcs[r]`` had its posting side effect and
    #: the rank is parked in it.
    posted: Tuple[bool, ...]
    #: Unmatched posted sends (messages in flight).
    inflight: FrozenSet[OpRef]
    #: Unmatched posted receives.
    pending: FrozenSet[OpRef]
    #: Per-rank request ids consumed by completions.
    consumed: Tuple[FrozenSet[int], ...]


class _Transition(NamedTuple):
    rank: int
    #: For a receive with candidates: the message (send op ref) taken.
    cand: Optional[OpRef]


class _Model:
    """Static tables + transition semantics over extracted sequences."""

    def __init__(
        self, sequences: Sequence[Sequence[Operation]], comms: CommRegistry
    ) -> None:
        self.seqs: List[List[Operation]] = [list(s) for s in sequences]
        self.comms = comms
        self.p = len(self.seqs)
        self.lens = [len(s) for s in self.seqs]

        #: Per rank: request id -> creating (nonblocking p2p) operation.
        self.creators: List[Dict[int, Operation]] = []
        for seq in self.seqs:
            table: Dict[int, Operation] = {}
            for op in seq:
                if op.request is not None and op.kind in _REQUEST_CREATOR_KINDS:
                    table[op.request] = op
            self.creators.append(table)

        #: Collective wave bookkeeping: op ref -> (comm, wave index),
        #: and (comm, wave index) -> {member rank: ts of its call}.
        self.wave_of: Dict[OpRef, Tuple[int, int]] = {}
        self.wave_members: Dict[Tuple[int, int], Dict[int, int]] = {}
        counts: Dict[Tuple[int, int], int] = {}
        for r, seq in enumerate(self.seqs):
            for op in seq:
                if not is_collective_kind(op.kind):
                    continue
                key = (r, op.comm_id)
                idx = counts.get(key, 0)
                counts[key] = idx + 1
                self.wave_of[op.ref] = (op.comm_id, idx)
                self.wave_members.setdefault((op.comm_id, idx), {})[r] = op.ts
        self._check_waves()

        #: First MPI_Finalize position per rank (None: rank never
        #: finalizes — the world finalize wave then never completes).
        self.finalize_ts: List[Optional[int]] = []
        for seq in self.seqs:
            ts = next(
                (op.ts for op in seq if op.kind is OpKind.FINALIZE), None
            )
            self.finalize_ts.append(ts)

    def _check_waves(self) -> None:
        """Reject what the engine rejects as collective usage errors."""
        for (comm_id, idx), members in self.wave_members.items():
            if comm_id not in self.comms:
                raise ExplorationUnsupported(
                    f"collective on unknown communicator {comm_id}"
                )
            group = self.comms.get(comm_id).group
            kinds = set()
            roots = set()
            for r, ts in members.items():
                if r not in group:
                    raise ExplorationUnsupported(
                        f"rank {r} calls a collective on communicator "
                        f"{comm_id} it does not belong to"
                    )
                op = self.seqs[r][ts]
                kinds.add(op.kind)
                roots.add(op.root)
            if len(kinds) > 1 or len(roots) > 1:
                raise ExplorationUnsupported(
                    f"mismatched collective wave {idx} on communicator "
                    f"{comm_id} ({', '.join(sorted(k.value for k in kinds))})"
                )

    # -- state basics ---------------------------------------------------

    def initial_state(self) -> _State:
        empty: FrozenSet[OpRef] = frozenset()
        return _State(
            pcs=tuple(0 for _ in range(self.p)),
            posted=tuple(False for _ in range(self.p)),
            inflight=empty,
            pending=empty,
            consumed=tuple(frozenset() for _ in range(self.p)),
        )

    def _op_at(self, state: _State, rank: int) -> Operation:
        return self.seqs[rank][state.pcs[rank]]

    # -- matching queries ------------------------------------------------

    def _recv_candidates(
        self,
        op: Operation,
        inflight: FrozenSet[OpRef],
    ) -> List[Operation]:
        """Per-sender earliest compatible message, sorted by sender."""
        per_sender: Dict[int, Operation] = {}
        for ref in inflight:
            sop = self.seqs[ref[0]][ref[1]]
            if sop.comm_id != op.comm_id or sop.peer != op.rank:
                continue
            if op.peer != ANY_SOURCE and op.peer != sop.rank:
                continue
            if op.tag != ANY_TAG and op.tag != sop.tag:
                continue
            best = per_sender.get(sop.rank)
            if best is None or sop.ts < best.ts:
                per_sender[sop.rank] = sop
        return [per_sender[src] for src in sorted(per_sender)]

    def _forced_recv(
        self,
        sop: Operation,
        pending: FrozenSet[OpRef],
    ) -> Optional[Operation]:
        """The receive a newly arrived message pairs with (earliest
        compatible posted receive, in post order), or None."""
        best: Optional[Operation] = None
        for ref in pending:
            rop = self.seqs[ref[0]][ref[1]]
            if rop.comm_id != sop.comm_id or rop.rank != sop.peer:
                continue
            if rop.peer != ANY_SOURCE and rop.peer != sop.rank:
                continue
            if rop.tag != ANY_TAG and rop.tag != sop.tag:
                continue
            if best is None or rop.ts < best.ts:
                best = rop
        return best

    def _probe_sees_message(
        self,
        op: Operation,
        inflight: FrozenSet[OpRef],
    ) -> bool:
        for ref in inflight:
            sop = self.seqs[ref[0]][ref[1]]
            if sop.comm_id != op.comm_id or sop.peer != op.rank:
                continue
            if op.peer != ANY_SOURCE and op.peer != sop.rank:
                continue
            if op.tag != ANY_TAG and op.tag != sop.tag:
                continue
            return True
        return False

    # -- enabled transitions ----------------------------------------------

    def enabled(self, state: _State) -> List[_Transition]:
        out: List[_Transition] = []
        for r in range(self.p):
            if state.pcs[r] >= self.lens[r] or state.posted[r]:
                continue
            op = self.seqs[r][state.pcs[r]]
            if (
                is_recv_kind(op.kind)
                and op.peer != PROC_NULL
            ):
                cands = self._recv_candidates(op, state.inflight)
                if not cands:
                    out.append(_Transition(r, None))
                elif op.peer != ANY_SOURCE:
                    # Directed: per-sender earliest is unique.
                    out.append(_Transition(r, cands[0].ref))
                else:
                    out.extend(_Transition(r, c.ref) for c in cands)
            else:
                out.append(_Transition(r, None))
        return out

    # -- partial-order reduction ------------------------------------------

    def build_por_tables(self) -> None:
        """The static may-send relation the reduction is derived from.

        ``senders[(comm, dst)]`` is every rank with any send to ``dst``
        on ``comm`` anywhere in its program. Two tables follow from it:

        * ``wildcard_dst`` — destinations that post a wildcard receive
          or probe *and* have more than one possible sender. With at
          most one, every candidate set is a subset of one FIFO
          channel, so the wildcard is a directed receive in all but
          spelling.
        * ``cluster[r]`` — the smallest rank of ``r``'s communication-
          closed cluster: ranks joined with their point-to-point peers
          and with the whole group of every communicator they call a
          collective on. Each possible sender of a wildcard is already
          joined by its own send. ``MPI_Finalize`` joins nobody — its
          arrival is a safe singleton, so it is never left to a
          persistent set.

        Whole programs, not suffixes: an over-approximated relation
        only merges clusters or keeps a wildcard unsafe, which costs
        states and never a verdict.
        """
        senders: Dict[Tuple[int, int], Set[int]] = {}
        wildcards: Set[Tuple[int, int]] = set()
        root = list(range(self.p))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        def union(a: int, b: int) -> None:
            a, b = find(a), find(b)
            root[max(a, b)] = min(a, b)

        for r, seq in enumerate(self.seqs):
            for op in seq:
                if is_collective_kind(op.kind):
                    for m in self.comms.get(op.comm_id).group:
                        union(r, m)
                elif op.is_p2p() and op.peer is not None:
                    if op.peer == ANY_SOURCE:
                        wildcards.add((op.comm_id, r))
                    elif 0 <= op.peer < self.p:  # not PROC_NULL
                        union(r, op.peer)
                        if is_send_kind(op.kind):
                            senders.setdefault(
                                (op.comm_id, op.peer), set()
                            ).add(r)
        self.senders = senders
        self.wildcard_dst = {
            key for key in wildcards if len(senders.get(key, ())) > 1
        }
        self.cluster = [find(r) for r in range(self.p)]

    def is_safe(self, state: _State, t: _Transition) -> bool:
        """Safe = effect-deterministic, commutes with every other
        enabled transition, and cannot change a future wildcard (or
        probe) candidate set. Safe transitions stay enabled until
        executed, so chaining one loses no reachable terminal state."""
        op = self._op_at(state, t.rank)
        kind = op.kind
        if op.is_p2p() and op.peer == PROC_NULL:
            return True
        if kind in _LOCAL_KINDS:
            return True
        if kind in (OpKind.WAIT, OpKind.WAITALL):
            # Needs *all* requests: consumption set is fixed, timing
            # invisible to other ranks. (WAITANY/WAITSOME are not safe:
            # which request they consume depends on event timing.)
            return True
        if is_collective_kind(kind) or kind is OpKind.FINALIZE:
            # Arrival only enables; wave completion is deterministic.
            return True
        if is_send_kind(kind):
            # Adding a message where no wildcard has a second possible
            # sender cannot change any candidate set; receives/probes
            # fed by one FIFO channel are deterministic regardless of
            # timing.
            return (op.comm_id, op.peer) not in self.wildcard_dst
        if is_recv_kind(kind):
            # The message a directed receive takes is fixed by
            # per-sender FIFO, and nobody else can take it (only this
            # rank receives/probes on its own queues, in program
            # order). A wildcard with at most one possible sender is
            # the same receive; with none it can only pend — the
            # Fig. 10 storm collapses to linear here.
            return (
                op.peer != ANY_SOURCE
                or (op.comm_id, op.rank) not in self.wildcard_dst
            )
        # PROBE (message could be stealable before execution), TEST*,
        # WAITANY, WAITSOME: timing-dependent.
        return False

    # -- transition application -------------------------------------------

    def apply(
        self, state: _State, t: _Transition
    ) -> Tuple[_State, List[Tuple[OpRef, int]]]:
        """Execute ``t`` plus its deterministic closure (mirrors the
        engine's wake chains); returns the new state and any wildcard
        pinnings recorded by matches along the way."""
        pcs = list(state.pcs)
        posted = list(state.posted)
        # Shared with ``state`` until the op at hand changes them: most
        # transitions touch none of the three.
        inflight = state.inflight
        pending = state.pending
        consumed = state.consumed
        pins: List[Tuple[OpRef, int]] = []
        seqs = self.seqs

        def advance(k: int) -> None:
            pcs[k] += 1
            posted[k] = False

        def request_done(k: int, req_id: int) -> bool:
            creator = self.creators[k].get(req_id)
            if creator is None:
                raise ExplorationUnsupported(
                    f"rank {k} completes unknown request {req_id} "
                    "(the engine would raise an MPI usage error)"
                )
            if pcs[k] <= creator.ts:
                return False  # not executed yet
            if creator.peer == PROC_NULL:
                return True
            if is_send_kind(creator.kind):
                if creator.kind in _BUFFERED_SEND_KINDS:
                    return True
                return creator.ref not in inflight
            return creator.ref not in pending

        def consume(k: int, reqs: Sequence[int]) -> None:
            nonlocal consumed
            consumed = (
                consumed[:k] + (consumed[k].union(reqs),) + consumed[k + 1:]
            )

        def try_completion(k: int, wop: Operation) -> bool:
            """Engine ``_try_completion``: consume + advance on success."""
            reqs = list(wop.requests)
            for q in reqs:
                if q in consumed[k]:
                    raise ExplorationUnsupported(
                        f"rank {k} reuses already-completed request {q}"
                    )
            done_idx = [
                i for i, q in enumerate(reqs) if request_done(k, q)
            ]
            kind = wop.kind
            if kind in (
                OpKind.WAIT,
                OpKind.WAITALL,
                OpKind.TEST,
                OpKind.TESTALL,
            ):
                if len(done_idx) != len(reqs):
                    return False
                consume(k, reqs)
                advance(k)
                return True
            if kind in (OpKind.WAITANY, OpKind.TESTANY):
                if not done_idx:
                    return False
                consume(k, (reqs[done_idx[0]],))
                advance(k)
                return True
            if kind in (OpKind.WAITSOME, OpKind.TESTSOME):
                if not done_idx:
                    return False
                consume(k, [reqs[i] for i in done_idx])
                advance(k)
                return True
            raise AssertionError(kind)

        def recheck_completion(k: int) -> None:
            """A request of rank ``k`` completed; wake a parked WAIT*."""
            if pcs[k] >= self.lens[k] or not posted[k]:
                return
            wop = seqs[k][pcs[k]]
            if wop.kind in _WAIT_PARK_KINDS:
                try_completion(k, wop)

        def send_side_completed(sop: Operation) -> None:
            """An in-flight send just matched: wake its sender."""
            k = sop.rank
            if sop.kind in _RENDEZVOUS_BLOCKING_SENDS:
                # A blocking unmatched send implies the sender parked
                # in it; the match releases it.
                if pcs[k] == sop.ts and posted[k]:
                    advance(k)
            elif sop.kind not in _BUFFERED_SEND_KINDS:
                # Rendezvous request (isend/issend/pstart) newly done.
                recheck_completion(k)

        def recv_side_completed(rop: Operation, src: int) -> None:
            """A pending receive just matched: wake its receiver."""
            if rop.peer == ANY_SOURCE:
                pins.append((rop.ref, src))
            k = rop.rank
            if rop.kind is OpKind.RECV:
                if pcs[k] == rop.ts and posted[k]:
                    advance(k)
            else:
                recheck_completion(k)

        def wake_parked_probe(comm_id: int, dst: int) -> None:
            """Engine ``_notify_probe_waiters`` for one destination."""
            if dst >= self.p or pcs[dst] >= self.lens[dst]:
                return
            if not posted[dst]:
                return
            wop = seqs[dst][pcs[dst]]
            if wop.kind is not OpKind.PROBE or wop.comm_id != comm_id:
                return
            if self._probe_sees_message(wop, inflight):
                advance(dst)

        def finalize_arrivals() -> int:
            count = 0
            for m in range(self.p):
                ts = self.finalize_ts[m]
                if ts is None:
                    continue
                if pcs[m] > ts or (pcs[m] == ts and posted[m]):
                    count += 1
            return count

        r = t.rank
        op = seqs[r][pcs[r]]
        kind = op.kind

        if op.is_p2p() and op.peer == PROC_NULL:
            advance(r)
        elif is_send_kind(kind):
            rop = self._forced_recv(op, pending)
            if rop is not None:
                pending = pending - {rop.ref}
                advance(r)  # matched: call/request completes at post
                recv_side_completed(rop, r)
            else:
                inflight = inflight | {op.ref}
                if kind in _RENDEZVOUS_BLOCKING_SENDS:
                    posted[r] = True  # strict b: park until matched
                else:
                    advance(r)
                wake_parked_probe(op.comm_id, op.peer)
        elif is_recv_kind(kind):
            if t.cand is not None:
                sop = seqs[t.cand[0]][t.cand[1]]
                inflight = inflight - {t.cand}
                if op.peer == ANY_SOURCE:
                    pins.append((op.ref, sop.rank))
                advance(r)
                send_side_completed(sop)
            else:
                pending = pending | {op.ref}
                if kind is OpKind.RECV:
                    posted[r] = True
                else:
                    advance(r)
        elif kind is OpKind.PROBE:
            if self._probe_sees_message(op, inflight):
                advance(r)
            else:
                posted[r] = True
        elif kind is OpKind.IPROBE:
            advance(r)
        elif is_completion_kind(kind):
            if not try_completion(r, op):
                if kind in _WAIT_PARK_KINDS:
                    posted[r] = True
                else:
                    advance(r)  # TEST flavours never block
        elif is_collective_kind(kind):
            posted[r] = True
            comm_id, idx = self.wave_of[op.ref]
            members = self.wave_members[(comm_id, idx)]
            group = self.comms.get(comm_id).group
            complete = all(
                m in members
                and (
                    pcs[m] > members[m]
                    or (pcs[m] == members[m] and posted[m])
                )
                for m in group
            )
            if complete:
                for m in group:
                    if pcs[m] == members[m] and posted[m]:
                        advance(m)
        elif kind is OpKind.FINALIZE:
            posted[r] = True
            if finalize_arrivals() == self.p:
                for m in range(self.p):
                    ts = self.finalize_ts[m]
                    if ts is not None and pcs[m] == ts and posted[m]:
                        advance(m)
        elif kind in _LOCAL_KINDS:
            advance(r)
        else:
            raise ExplorationUnsupported(
                f"cannot explore {kind.value}"
            )

        new_state = _State(
            pcs=tuple(pcs),
            posted=tuple(posted),
            inflight=inflight,
            pending=pending,
            consumed=consumed,
        )
        return new_state, pins

    # -- terminal-state classification -------------------------------------

    def classify_terminal(
        self, state: _State
    ) -> Tuple[Dict[int, OpRef], Set[int]]:
        """Blocked ops + finished ranks of a transition-free state.

        Mirrors the runtime analysis (`core.transition.finished`): a
        rank sitting in MPI_Finalize counts as finished, not blocked —
        it produced all its communication and can release nobody.
        """
        blocked: Dict[int, OpRef] = {}
        finished: Set[int] = set()
        for r in range(self.p):
            if state.pcs[r] >= self.lens[r]:
                finished.add(r)
                continue
            op = self.seqs[r][state.pcs[r]]
            if op.kind is OpKind.FINALIZE:
                finished.add(r)
            else:
                blocked[r] = op.ref
        return blocked, finished

    def blocked_condition(
        self, state: _State, rank: int
    ) -> WaitForCondition:
        """Wait-for condition of a parked rank at a terminal state
        (mirrors the reason strings of the runtime WFG path)."""
        op = self.seqs[rank][state.pcs[rank]]
        cond = WaitForCondition(
            rank=rank, op_ref=op.ref, op_description=op.describe()
        )
        kind = op.kind

        def p2p_clause(
            creator: Operation,
        ) -> Tuple[WaitTarget, ...]:
            if is_send_kind(creator.kind):
                return (
                    intern_target(
                        creator.peer, "no matching receive posted"
                    ),
                )
            if creator.peer != ANY_SOURCE:
                return (
                    intern_target(creator.peer, "no matching send posted"),
                )
            group = self.comms.get(creator.comm_id).group
            return tuple(
                intern_target(k, "wildcard receive: any sender qualifies")
                for k in group
                if k != creator.rank
            )

        if is_send_kind(kind):
            cond.clauses.append(
                (intern_target(op.peer, "no matching receive posted"),)
            )
        elif is_recv_kind(kind) or op.is_probe():
            cond.clauses.append(p2p_clause(op))
        elif kind in _WAIT_PARK_KINDS:
            unsatisfied: List[Tuple[WaitTarget, ...]] = []
            for q in op.requests:
                if q in state.consumed[rank]:
                    continue
                creator = self.creators[rank].get(q)
                if creator is None:
                    continue
                done = False
                if creator.ts < state.pcs[rank]:
                    if creator.peer == PROC_NULL:
                        done = True
                    elif is_send_kind(creator.kind):
                        done = (
                            creator.kind in _BUFFERED_SEND_KINDS
                            or creator.ref not in state.inflight
                        )
                    else:
                        done = creator.ref not in state.pending
                if not done:
                    unsatisfied.append(p2p_clause(creator))
            if kind in (OpKind.WAIT, OpKind.WAITALL):
                cond.clauses.extend(unsatisfied)
            else:
                # Any one completion releases the rank: flatten into a
                # single OR clause.
                flat: List[WaitTarget] = []
                seen: Set[Tuple[int, str]] = set()
                for clause in unsatisfied:
                    for tgt in clause:
                        key = (tgt.rank, tgt.reason)
                        if key not in seen:
                            seen.add(key)
                            flat.append(tgt)
                cond.clauses.append(tuple(flat))
        elif is_collective_kind(kind):
            comm_id, idx = self.wave_of[op.ref]
            members = self.wave_members[(comm_id, idx)]
            group = self.comms.get(comm_id).group
            for m in group:
                ts = members.get(m)
                arrived = ts is not None and (
                    state.pcs[m] > ts
                    or (state.pcs[m] == ts and state.posted[m])
                )
                if not arrived:
                    cond.clauses.append(
                        (
                            intern_target(
                                m,
                                "never called a matching "
                                f"{op.kind.value} on communicator "
                                f"{op.comm_id}",
                            ),
                        )
                    )
        return cond


def _flush_metrics(
    metrics: Optional[MetricsRegistry],
    stats: ExploreStats,
    verdict: Optional[Verdict],
) -> None:
    if metrics is None:
        return
    metrics.inc("verify.runs")
    metrics.inc("verify.states_explored", stats.states_explored)
    metrics.inc("verify.states_pruned", stats.states_pruned)
    metrics.inc("verify.memo_hits", stats.memo_hits)
    metrics.inc("verify.transitions", stats.transitions)
    if verdict is Verdict.DEADLOCK_POSSIBLE:
        metrics.inc("verify.deadlocks_found")
    elif verdict is Verdict.BOUND_EXCEEDED:
        metrics.inc("verify.bound_exceeded")


def explore_sequences(
    sequences: Sequence[Sequence[Operation]],
    comms: CommRegistry,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    por: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    label: str = "",
) -> ExploreResult:
    """Explore every feasible schedule/matching of ``sequences``.

    Depth-first over the acyclic state graph with memoization; the
    first reachable deadlocked terminal state ends the search with a
    witness (the DFS path is the schedule). ``por=False`` disables the
    partial-order reduction — exploration is then the naive memoized
    enumeration (used by the POR soundness/ratio tests).
    """
    model = _Model(sequences, comms)
    if por:
        model.build_por_tables()
    stats = ExploreStats()

    def finish(
        verdict: Verdict, **kw: object
    ) -> ExploreResult:
        result = ExploreResult(verdict=verdict, stats=stats, **kw)  # type: ignore[arg-type]
        _flush_metrics(metrics, stats, verdict)
        return result

    def choose(state: _State, ts: List[_Transition]) -> List[_Transition]:
        if not por or len(ts) <= 1:
            return ts
        per_rank: Dict[int, int] = {}
        for t in ts:
            per_rank[t.rank] = per_rank.get(t.rank, 0) + 1
        for t in ts:
            if per_rank[t.rank] == 1 and model.is_safe(state, t):
                stats.states_pruned += len(ts) - 1
                return [t]
        # Persistent set: nothing outside a cluster can enable, disable
        # or fail to commute with a transition inside it.
        first = model.cluster[ts[0].rank]
        kept = [t for t in ts if model.cluster[t.rank] == first]
        stats.states_pruned += len(ts) - len(kept)
        return kept

    root = model.initial_state()
    visited: Set[_State] = {root}
    stats.states_explored = 1

    root_enabled = model.enabled(root)
    if not root_enabled:
        blocked, _ = model.classify_terminal(root)
        # No operation ever executed: nothing can be parked.
        assert not blocked
        return finish(Verdict.DEADLOCK_FREE)

    frames: List[Tuple[_State, Iterator[_Transition]]] = [
        (root, iter(choose(root, root_enabled)))
    ]
    #: One (issuing rank, pinnings) entry per frame transition taken.
    path: List[Tuple[int, List[Tuple[OpRef, int]]]] = []

    while frames:
        state, it = frames[-1]
        t = next(it, None)
        if t is None:
            frames.pop()
            if path:
                path.pop()
            continue
        new_state, pins = model.apply(state, t)
        stats.transitions += 1
        if new_state in visited:
            stats.memo_hits += 1
            continue
        if len(visited) >= max_states:
            return finish(
                Verdict.BOUND_EXCEEDED,
                reason=f"state bound {max_states} reached",
            )
        visited.add(new_state)
        stats.states_explored += 1

        enabled = model.enabled(new_state)
        if not enabled:
            blocked, finished = model.classify_terminal(new_state)
            if blocked:
                conditions = {
                    r: model.blocked_condition(new_state, r)
                    for r in sorted(blocked)
                }
                graph = WaitForGraph.from_conditions(
                    model.p, conditions.values(), finished=finished
                )
                detection = detect_deadlock(graph)
                if detection.has_deadlock:
                    schedule = [rank for rank, _ in path] + [t.rank]
                    pinnings: Dict[OpRef, int] = {}
                    for _, step_pins in path:
                        pinnings.update(step_pins)
                    pinnings.update(pins)
                    witness = WitnessSchedule(
                        num_ranks=model.p,
                        schedule=schedule,
                        pinnings=pinnings,
                        deadlocked=detection.deadlocked,
                        blocked_ops=dict(blocked),
                        witness_cycle=tuple(detection.witness_cycle),
                        label=label,
                    )
                    return finish(
                        Verdict.DEADLOCK_POSSIBLE,
                        witness=witness,
                        deadlocked=detection.deadlocked,
                        witness_cycle=tuple(detection.witness_cycle),
                        blocked_ops=dict(blocked),
                        conditions=conditions,
                        graph=graph,
                        detection=detection,
                    )
            continue
        if len(path) + 1 >= max_depth:
            return finish(
                Verdict.BOUND_EXCEEDED,
                reason=f"depth bound {max_depth} reached",
            )
        path.append((t.rank, pins))
        if len(path) > stats.max_depth_reached:
            stats.max_depth_reached = len(path)
        frames.append((new_state, iter(choose(new_state, enabled))))

    return finish(Verdict.DEADLOCK_FREE)


def explore_extraction(
    extraction: Extraction,
    **kwargs: object,
) -> ExploreResult:
    """Explore an :class:`Extraction`, guarding its exactness contract."""
    if extraction.truncated:
        raise ExplorationUnsupported(
            "extraction truncated ranks "
            f"{sorted(extraction.truncated)}; sequences are incomplete"
        )
    if not (extraction.exact or extraction.wildcard_exact):
        raise ExplorationUnsupported(
            "extracted sequences are inexact beyond wildcard statuses "
            "(probe/test results may have steered control flow)"
        )
    return explore_sequences(
        extraction.sequences, extraction.comms, **kwargs  # type: ignore[arg-type]
    )
