"""Graph-based deadlock detection on the AND/OR wait-for graph [9].

The criterion is a liveness fixpoint, the standard generalization of
"cycle" (pure AND) and "knot" (pure OR) criteria to AND⊕OR graphs:

* every process *not* in the graph (not blocked) is live;
* a blocked process becomes live when each of its clauses contains at
  least one live target (all its AND legs can be released, each via
  some OR alternative);
* processes never becoming live are deadlocked.

For the terminal state of the transition system this is a necessary
and sufficient deadlock criterion; for intermediate states it never
produces false positives (a reported process truly can never advance
given the current matching) — Section 3.2.

A *witness cycle* through the deadlocked set is also computed for
human-readable reports, mirroring MUST's report of the dependency
cycle (e.g. the two-process send-send cycle of 126.lammps).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.waitfor import GroupClause
from repro.wfg.graph import WaitForGraph


@dataclass
class DetectionResult:
    """Outcome of one graph-based deadlock check."""

    deadlocked: Tuple[int, ...]
    #: Blocked processes that the fixpoint proved releasable.
    releasable: Tuple[int, ...]
    #: A dependency cycle inside the deadlocked set, when one exists
    #: (for pure-AND deadlocks a cycle always exists).
    witness_cycle: Tuple[int, ...] = ()

    @property
    def has_deadlock(self) -> bool:
        return bool(self.deadlocked)


@dataclass
class _GroupWatch:
    """Pending group clauses over one process group."""

    #: Some member of the group is live: every clause is satisfied.
    fired: bool
    #: ``(rank, clause index)`` of the clauses still pending.
    watchers: List[Tuple[int, int]] = field(default_factory=list)


def detect_deadlock(graph: WaitForGraph) -> DetectionResult:
    """Run the liveness fixpoint and extract a witness cycle.

    Finished processes are excluded from the live seeds: they produce
    no further operations, so they can release nobody. A blocked
    process all of whose alternatives point at finished processes is
    therefore deadlocked even without a dependency cycle.

    A blocked process is never live while one of its own clauses is
    pending, so a pending "anyone in G but me" clause is satisfied
    exactly when the first member of G goes live — whoever that is, it
    is not the waiter. Group clauses therefore cost one watcher entry
    each and one membership index per distinct group, instead of one
    reverse arc per target.
    """
    live: Set[int] = (
        set(range(graph.num_processes))
        - graph.blocked_ranks
        - graph.finished
    )

    # Counting fixpoint: per blocked node, which clauses do not yet
    # contain a live target and how many of them there are. Explicit
    # clauses are watched through reverse arcs, group clauses through
    # their group's watch, which keeps the pass O(arcs) in the former
    # and O(clauses + group sizes) in the latter.
    pending: Dict[int, List[bool]] = {}
    unsatisfied: Dict[int, int] = {}
    reverse: Dict[int, List[Tuple[int, int]]] = {}
    # A group is looked up by identity (clauses of one communicator
    # share one tuple), then by value (copies that crossed a process
    # boundary separately), so each distinct group is indexed once.
    watch_by_id: Dict[int, _GroupWatch] = {}
    watch_by_value: Dict[Tuple[int, ...], _GroupWatch] = {}
    watches_of: Dict[int, List[_GroupWatch]] = {}

    def watch_for(group: Tuple[int, ...]) -> _GroupWatch:
        watch = watch_by_id.get(id(group))
        if watch is None:
            watch = watch_by_value.get(group)
            if watch is None:
                watch = _GroupWatch(fired=not live.isdisjoint(group))
                watch_by_value[group] = watch
                if not watch.fired:
                    for member in group:
                        watches_of.setdefault(member, []).append(watch)
            watch_by_id[id(group)] = watch
        return watch

    for rank, node in graph.nodes.items():
        flags: List[bool] = []
        for ci, clause in enumerate(node.clauses):
            if isinstance(clause, GroupClause):
                watch = watch_for(clause.group)
                if not watch.fired:
                    watch.watchers.append((rank, ci))
                flags.append(not watch.fired)
                continue
            satisfied = not live.isdisjoint(clause)
            flags.append(not satisfied)
            if not satisfied:
                for dst in clause:
                    reverse.setdefault(dst, []).append((rank, ci))
        pending[rank] = flags
        unsatisfied[rank] = sum(flags)

    newly_live: Set[int] = {
        rank for rank, count in unsatisfied.items() if count == 0
    }
    # Every initially-live process can release its dependents too.
    release_queue: deque[int] = deque(live)
    release_queue.extend(newly_live)

    def satisfy(rank: int, ci: int) -> None:
        flags = pending[rank]
        if flags[ci]:
            flags[ci] = False
            unsatisfied[rank] -= 1
            if unsatisfied[rank] == 0:
                newly_live.add(rank)
                release_queue.append(rank)

    while release_queue:
        releaser = release_queue.popleft()
        for rank, ci in reverse.get(releaser, ()):  # clauses watching it
            satisfy(rank, ci)
        for watch in watches_of.get(releaser, ()):
            if not watch.fired:
                watch.fired = True
                for rank, ci in watch.watchers:
                    satisfy(rank, ci)
                watch.watchers.clear()

    deadlocked = sorted(graph.blocked_ranks - newly_live)
    releasable = sorted(graph.blocked_ranks & newly_live)
    cycle = _witness_cycle(graph, set(deadlocked)) if deadlocked else ()
    return DetectionResult(
        deadlocked=tuple(deadlocked),
        releasable=tuple(releasable),
        witness_cycle=tuple(cycle),
    )


def _witness_cycle(graph: WaitForGraph, deadlocked: Set[int]) -> Sequence[int]:
    """Find a cycle within the deadlocked set for the report.

    Follows, from an arbitrary deadlocked process, one deadlocked
    successor per step (each deadlocked node has a clause whose targets
    are all non-live, hence deadlocked or blocked-forever); the walk
    must revisit a node within |deadlocked| steps.
    """
    if not deadlocked:
        return ()
    start = min(deadlocked)
    path: List[int] = [start]
    seen: Dict[int, int] = {start: 0}
    current = start
    for _ in range(len(deadlocked) + 1):
        nxt = _deadlocked_successor(graph, current, deadlocked)
        if nxt is None:
            return ()  # degenerate: an empty clause (unsatisfiable wait)
        if nxt in seen:
            return path[seen[nxt]:]
        seen[nxt] = len(path)
        path.append(nxt)
        current = nxt
    return ()


def _deadlocked_successor(
    graph: WaitForGraph, rank: int, deadlocked: Set[int]
) -> Optional[int]:
    node = graph.nodes.get(rank)
    if node is None:
        return None
    for clause in node.clauses:
        in_dead = [dst for dst in clause if dst in deadlocked]
        blocked_forever = [
            dst for dst in clause
            if dst in deadlocked or dst in graph.finished
        ]
        if len(blocked_forever) == len(clause) and in_dead:
            return min(in_dead)
    # Fall back to any deadlocked target of any clause.
    for clause in node.clauses:
        for dst in clause:
            if dst in deadlocked:
                return dst
    return None
