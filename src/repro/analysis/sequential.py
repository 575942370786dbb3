"""The zero-branch drivers of the matching core.

For programs without ``MPI_ANY_SOURCE`` (and without runtime-steered
completions), MPI matching is *deterministic*: per-channel FIFO plus
the non-overtaking rule pin every pairing, so all schedules reach the
same terminal configuration (the matching-order theorem of
arXiv:0709.3692 — a single interleaving decides deadlock for the
wildcard-free fragment). The match-set explorer would enumerate one
chain of singleton ample sets anyway; the two entry points here run
that one interleaving as a worklist over
:meth:`repro.analysis.matchcore.MatchState.step` — no state key, no
visited set, no branching — in time linear in the operation count:

* :func:`match_linear` is the verify/prove fast path. It refuses
  (:class:`LinearMatchUnsupported`) whatever makes one interleaving
  not authoritative, and its processing order is a feasible issue
  order, so a deadlock verdict carries a replayable
  :class:`~repro.analysis.witness.WitnessSchedule`.
* :func:`match_sequences` is the ``repro lint`` pass. It adds what
  lint needs and verify must not have: recorded traces decide their
  wildcards and ``Waitany``/``Waitsome``/``Test*`` outcomes from what
  the run observed, and usage errors the other lint checks already
  report (mismatched collective waves, a request completed twice)
  leave their rank stuck instead of refusing the whole program.

Both hand the terminal configuration to the core's diagnosis, so the
wait-for conditions, reason strings and graph are the explorer's.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.matchcore import (
    MatchState,
    MatchUnsupported,
    Tables,
    runtime_steered,
)
from repro.analysis.witness import WitnessSchedule
from repro.core.waitfor import WaitForCondition
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_TAG
from repro.mpi.ops import Operation, OpRef
from repro.wfg.detect import DetectionResult
from repro.wfg.graph import WaitForGraph


class LinearMatchUnsupported(MatchUnsupported):
    """The sequences fall outside the wildcard-free linear fragment."""


def _run(state: MatchState, *, observed: bool, strict: bool) -> List[int]:
    """Step every rank until all are parked or done; returns the issue
    order. ``strict`` refuses what only exploration can decide;
    without it a step the model rejects parks its rank for good."""
    tables = state.tables
    pcs, parked, woken = state.pcs, state.parked, state.woken
    schedule: List[int] = []
    worklist = deque(range(tables.p))
    queued = [True] * tables.p
    while worklist:
        rank = worklist.popleft()
        queued[rank] = False
        seq = tables.seqs[rank]
        while pcs[rank] < len(seq) and not parked[rank]:
            op = seq[pcs[rank]]
            if strict:
                if runtime_steered(op.kind):
                    raise LinearMatchUnsupported(
                        f"{op.kind.value} is outside the linear "
                        "wildcard-free fragment"
                    )
                if op.is_wildcard_receive():
                    raise LinearMatchUnsupported(
                        "wildcard receive requires match-set exploration"
                    )
            schedule.append(rank)
            try:
                state.step(rank, None, observed)
            except MatchUnsupported as exc:
                if strict:
                    raise LinearMatchUnsupported(str(exc)) from None
                parked[rank] = True
            if woken:
                for other in woken:
                    if not queued[other]:
                        queued[other] = True
                        worklist.append(other)
                woken.clear()
    return schedule


# -- verify / prove fast path ---------------------------------------------------

@dataclass
class LinearMatchResult:
    """Terminal configuration of the unique wildcard-free matching."""

    #: True when the wait-for analysis of the terminal configuration
    #: found a deadlock (same detector as the explorer/runtime).
    has_deadlock: bool
    ops_processed: int
    deadlocked: Tuple[int, ...] = ()
    witness_cycle: Tuple[int, ...] = ()
    blocked_ops: Dict[int, OpRef] = field(default_factory=dict)
    conditions: Dict[int, WaitForCondition] = field(default_factory=dict)
    graph: Optional[WaitForGraph] = None
    detection: Optional[DetectionResult] = None
    witness: Optional[WitnessSchedule] = None


def match_linear(
    sequences: Sequence[Sequence[Operation]],
    comms: CommRegistry,
    *,
    label: str = "",
) -> LinearMatchResult:
    """Decide deadlock for wildcard-free ``sequences`` in linear time.

    Raises :class:`LinearMatchUnsupported` when the sequences use
    wildcards or runtime-steered completions — callers fall back to
    :func:`repro.analysis.explore.explore_sequences`.
    """
    tables = Tables(sequences, comms)
    try:
        tables.check_waves()
    except MatchUnsupported as exc:
        raise LinearMatchUnsupported(str(exc)) from None
    state = MatchState(tables)
    schedule = _run(state, observed=False, strict=True)
    terminal = state.classify_terminal()
    return LinearMatchResult(
        has_deadlock=bool(terminal.deadlocked),
        ops_processed=len(schedule),
        deadlocked=terminal.deadlocked,
        witness_cycle=terminal.witness_cycle,
        blocked_ops=terminal.blocked,
        conditions=terminal.conditions,
        graph=terminal.graph,
        detection=terminal.detection,
        witness=terminal.witness(schedule, {}, label),
    )


# -- repro lint ---------------------------------------------------------------

@dataclass
class StaticMatchResult:
    """Verdict of one sequential replay."""

    applicable: bool
    deadlocked: Tuple[int, ...] = ()
    witness_cycle: Tuple[int, ...] = ()
    #: Blocked op of every stuck rank (deadlocked or not).
    blocked_ops: Dict[int, Operation] = field(default_factory=dict)
    finished: Set[int] = field(default_factory=set)
    graph: Optional[WaitForGraph] = None
    detection: Optional[DetectionResult] = None
    reason_skipped: str = ""
    #: Machine-readable reason when ``applicable`` is False (e.g.
    #: ``"wildcard-unsupported"``), so callers can report a structured
    #: finding and route the program to the match-set explorer.
    skipped_check: str = ""
    #: Decidable-fragment label backing this verdict — the shared
    #: vocabulary of :mod:`repro.analysis.symbolic.fragments`
    #: (``SEQ-DETERMINISTIC`` when the replay was authoritative,
    #: ``UNDECIDABLE`` when it refused).
    fragment: str = ""

    @property
    def has_deadlock(self) -> bool:
        return bool(self.deadlocked)


def _pin_observed(
    sequences: Sequence[Sequence[Operation]],
) -> List[List[Operation]]:
    """Recorded wildcard receives as the directed receives the run
    observed. The envelope itself is rewritten (not decided per step)
    because the blocked-rank condition and the report read it too."""
    pinned: List[List[Operation]] = []
    for seq in sequences:
        out: List[Operation] = []
        for op in seq:
            if op.is_wildcard_receive() and op.observed_peer is not None:
                tag = op.tag
                if tag == ANY_TAG and op.observed_tag is not None:
                    tag = op.observed_tag
                op = replace(op, peer=op.observed_peer, tag=tag)
            out.append(op)
        pinned.append(out)
    return pinned


def match_sequences(
    sequences: Sequence[Sequence[Operation]],
    comms: CommRegistry,
    *,
    resolve_observed: bool = False,
) -> StaticMatchResult:
    """Replay ``sequences`` under the deterministic sequential model.

    ``resolve_observed`` is for recorded traces: wildcards are pinned
    to the observed matching first and completions follow the recorded
    outcome. A wildcard left unresolved makes the model inapplicable
    and the replay refuses rather than guess.
    """
    if resolve_observed:
        sequences = _pin_observed(sequences)
    for seq in sequences:
        for op in seq:
            if op.is_wildcard_receive():
                return StaticMatchResult(
                    applicable=False,
                    reason_skipped=(
                        f"{op.describe()} uses MPI_ANY_SOURCE with no "
                        "observed match; the sequential model only covers "
                        "deterministic matchings — use `repro verify` for "
                        "wildcard-aware match-set exploration"
                    ),
                    skipped_check="wildcard-unsupported",
                    fragment="UNDECIDABLE",
                )
    tables = Tables(sequences, comms)
    state = MatchState(tables)
    _run(state, observed=resolve_observed, strict=False)
    terminal = state.classify_terminal()
    return StaticMatchResult(
        applicable=True,
        deadlocked=terminal.deadlocked,
        witness_cycle=terminal.witness_cycle,
        blocked_ops={
            rank: tables.seqs[rank][ts]
            for rank, (_, ts) in terminal.blocked.items()
        },
        finished=terminal.finished,
        graph=terminal.graph,
        detection=terminal.detection,
        fragment="SEQ-DETERMINISTIC",
    )
