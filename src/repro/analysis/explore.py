"""Bounded match-set exploration of wildcard nondeterminism.

A wildcard-free program has *one* matching, which
:func:`repro.analysis.sequential.match_linear` replays. With
``MPI_ANY_SOURCE`` in play there is a set of feasible matchings (the
paper's Fig. 10 stress case is built on exactly this), and a deadlock
may hide in only some of them. This module enumerates that set as an
explicit state graph over the extracted per-rank sequences
(:mod:`repro.analysis.extract`) and classifies the program:

* ``deadlock-free`` — no reachable terminal state has a blocked rank;
* ``deadlock-possible`` — some schedule + wildcard choice deadlocks;
  the verdict carries a replayable :class:`WitnessSchedule`;
* ``bound-exceeded`` — the graph was cut off by ``max_states`` /
  ``max_depth`` before either claim could be proved. This is *not*
  ``deadlock-free``.

The transition semantics are :meth:`MatchState.step` of
:mod:`repro.analysis.matchcore` (its fidelity contract is what makes
every witness replay); this module is only the search policy over it.
The one nondeterministic matching decision — which sender a wildcard
receive takes when several have messages queued — times the scheduler
interleaving is the branch structure of the state graph. The search
copies the state at each branch and steps the copy.

States are memoized by a compact hashable key
(:meth:`MatchState.key`) — program counters, parked flags, unmatched
messages, unmatched posted receives, and consumed requests; request
done-ness and collective wave arrivals are derivable and deliberately
left out. Every transition strictly increases ``sum(2*pc + parked)``,
so the graph is acyclic and the visited-set prune is sound for
deadlock reachability.

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
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.extract import Extraction
from repro.analysis.matchcore import (
    MatchState,
    MatchUnsupported,
    Pins,
    Tables,
)
from repro.analysis.witness import WitnessSchedule
from repro.core.waitfor import WaitForCondition
from repro.mpi.constants import ANY_SOURCE, PROC_NULL, OpKind
from repro.mpi.communicator import CommRegistry
from repro.mpi.ops import Operation, OpRef
from repro.obs.metrics import MetricsRegistry
from repro.wfg.detect import DetectionResult
from repro.wfg.graph import WaitForGraph

DEFAULT_MAX_STATES = 200_000
DEFAULT_MAX_DEPTH = 1_000_000

#: The program uses a construct the explorer cannot model soundly (or
#: one the engine itself would reject as an MPI usage error).
ExplorationUnsupported = MatchUnsupported


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


class _Transition(NamedTuple):
    rank: int
    #: For a wildcard receive with candidates: the message (send op
    #: ref) taken.
    cand: Optional[OpRef]


class _Model(Tables):
    """The core's static tables, what is enabled in a state, and the
    tables the partial-order reduction is derived from."""

    def enabled(self, state: MatchState) -> List[_Transition]:
        out: List[_Transition] = []
        for r in range(self.p):
            pc = state.pcs[r]
            if pc >= self.lens[r] or state.parked[r]:
                continue
            op = self.seqs[r][pc]
            if op.kind.recv and op.peer == ANY_SOURCE:
                cands = state.candidates(r)
                if cands:
                    out.extend(_Transition(r, c) for c in cands)
                    continue
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
                if op.kind.collective:
                    for m in self.comms.get(op.comm_id).group:
                        union(r, m)
                elif op.is_p2p() and op.peer is not None:
                    if op.peer == ANY_SOURCE:
                        wildcards.add((op.comm_id, r))
                    elif 0 <= op.peer < self.p:  # not PROC_NULL
                        union(r, op.peer)
                        if op.kind.send:
                            senders.setdefault(
                                (op.comm_id, op.peer), set()
                            ).add(r)
        self.senders = senders
        self.wildcard_dst = {
            key for key in wildcards if len(senders.get(key, ())) > 1
        }
        self.cluster = [find(r) for r in range(self.p)]

    def is_safe(self, op: Operation) -> bool:
        """Safe = effect-deterministic, commutes with every other
        enabled transition, and cannot change a future wildcard (or
        probe) candidate set. Safe transitions stay enabled until
        executed, so chaining one loses no reachable terminal state."""
        kind = op.kind
        if op.is_p2p() and op.peer == PROC_NULL:
            return True
        if kind.completion:
            # WAIT/WAITALL need *all* requests: consumption set is
            # fixed, timing invisible to other ranks. Which request a
            # WAITANY/WAITSOME/TEST* consumes depends on event timing.
            return kind in (OpKind.WAIT, OpKind.WAITALL)
        if kind.send:
            # Adding a message where no wildcard has a second possible
            # sender cannot change any candidate set; receives/probes
            # fed by one FIFO channel are deterministic regardless of
            # timing.
            return (op.comm_id, op.peer) not in self.wildcard_dst
        if kind.recv:
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
        # A probed message could be stolen before the probe executes.
        # Everything else is rank-local, or an arrival (collective,
        # MPI_Finalize) that only enables: wave completion is
        # deterministic.
        return kind is not OpKind.PROBE


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
    model.check_waves()
    if por:
        model.build_por_tables()
    stats = ExploreStats()

    def finish(
        verdict: Verdict, **kw: object
    ) -> ExploreResult:
        result = ExploreResult(verdict=verdict, stats=stats, **kw)  # type: ignore[arg-type]
        _flush_metrics(metrics, stats, verdict)
        return result

    def choose(
        state: MatchState, ts: List[_Transition]
    ) -> List[_Transition]:
        if not por or len(ts) <= 1:
            return ts
        per_rank: Dict[int, int] = {}
        for t in ts:
            per_rank[t.rank] = per_rank.get(t.rank, 0) + 1
        for t in ts:
            if per_rank[t.rank] == 1 and model.is_safe(
                model.seqs[t.rank][state.pcs[t.rank]]
            ):
                stats.states_pruned += len(ts) - 1
                return [t]
        # Persistent set: nothing outside a cluster can enable, disable
        # or fail to commute with a transition inside it.
        first = model.cluster[ts[0].rank]
        kept = [t for t in ts if model.cluster[t.rank] == first]
        stats.states_pruned += len(ts) - len(kept)
        return kept

    root = MatchState(model)
    visited = {root.key()}
    stats.states_explored = 1

    frames: List[Tuple[MatchState, Iterator[_Transition]]] = [
        (root, iter(choose(root, model.enabled(root))))
    ]
    #: One (issuing rank, pinnings) entry per frame transition taken.
    path: List[Tuple[int, Pins]] = []

    while frames:
        state, it = frames[-1]
        t = next(it, None)
        if t is None:
            frames.pop()
            if path:
                path.pop()
            continue
        # Backtracking by snapshot: the frame keeps its state, each
        # transition steps a copy.
        new_state = state.copy()
        pins = new_state.step(t.rank, t.cand)
        stats.transitions += 1
        key = new_state.key()
        if key in visited:
            stats.memo_hits += 1
            continue
        if len(visited) >= max_states:
            return finish(
                Verdict.BOUND_EXCEEDED,
                reason=f"state bound {max_states} reached",
            )
        visited.add(key)
        stats.states_explored += 1

        enabled = model.enabled(new_state)
        if not enabled:
            terminal = new_state.classify_terminal()
            if terminal.deadlocked:
                pinnings: Dict[OpRef, int] = {}
                for _, step_pins in path:
                    pinnings.update(step_pins)
                pinnings.update(pins)
                return finish(
                    Verdict.DEADLOCK_POSSIBLE,
                    witness=terminal.witness(
                        [rank for rank, _ in path] + [t.rank],
                        pinnings,
                        label,
                    ),
                    deadlocked=terminal.deadlocked,
                    witness_cycle=terminal.witness_cycle,
                    blocked_ops=terminal.blocked,
                    conditions=terminal.conditions,
                    graph=terminal.graph,
                    detection=terminal.detection,
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
