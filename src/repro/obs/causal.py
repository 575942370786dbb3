"""Causal wait-state analysis: who made whom wait, for how long.

The runtime detector answers *whether* the terminal state deadlocks;
this module answers the follow-up questions a user actually asks of a
report: which ranks are the root cause, how much of the run's total
blocked time they are responsible for, and along which dependency
chain the waiting propagated.

Inputs are the wait-state trace events the first-layer nodes emit
(:mod:`repro.core.distributed`):

* ``waitstate.dwell`` complete spans — one per operation that blocked
  and later advanced (a canAdvance flip), carrying the wait info
  captured when it first blocked;
* ``waitstate.final`` instants — the terminal wait state of each
  still-blocked rank at the consistent cut of a detection, carrying
  the serialized ``requestWaits`` payload plus the activation stamp;
* the ``resume`` detection instants, whose args list the finished and
  unblocked ranks of the cut.

From the final events of the last detection we rebuild the exact
AND/OR wait-for conditions the TBON root resolved (through the same
:func:`repro.core.waitfor.resolve_conditions`), rebuild the WFG, and
re-run the liveness fixpoint — so the blame root-cause set *equals*
the runtime WFG's deadlocked set by construction. Blocked time is then
attributed:

* a terminal interval is walked backward through the reconstructed
  graph to a deadlocked rank (a deadlocked rank blames its deadlocked
  successor; a releasable-but-blocked rank blames the nearest
  deadlocked rank reachable through its wait-for arcs);
* a transient (closed) dwell interval blames its immediate blocker —
  the smallest target rank recorded when it blocked.

The critical path follows deadlocked successors from the rank with
the largest terminal blocked time around the dependency cycle.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.messages import CollectiveWait, P2PWait, RankWaitInfo
from repro.core.waitfor import WaitForCondition, resolve_conditions
from repro.obs.events import TraceEvent
from repro.obs.timeline import UnifiedTimeline
from repro.wfg.detect import DetectionResult, detect_deadlock
from repro.wfg.graph import WaitForGraph

#: Categories of the wait-state events (kept in sync with
#: ``repro.core.distributed``).
CAT_DWELL = "waitstate.dwell"
CAT_FINAL = "waitstate.final"


@dataclass
class BlockedInterval:
    """One reconstructed blocked interval of one rank."""

    rank: int
    #: Simulated-clock microseconds (activation of the blocked op).
    start_us: float
    end_us: float
    op: str
    #: Union of the immediate wait-for target ranks.
    targets: Tuple[int, ...]
    #: Terminal: still blocked at the detection's consistent cut.
    terminal: bool = False
    detection: Optional[int] = None
    #: Root-cause rank this interval's time is attributed to.
    blamed: Optional[int] = None

    @property
    def duration_us(self) -> float:
        return max(0.0, self.end_us - self.start_us)


@dataclass
class BlameReport:
    """Everything `repro blame` knows about one run."""

    num_ranks: int
    intervals: List[BlockedInterval] = field(default_factory=list)
    conditions: Dict[int, WaitForCondition] = field(default_factory=dict)
    finished: Set[int] = field(default_factory=set)
    graph: Optional[WaitForGraph] = None
    result: Optional[DetectionResult] = None
    #: Human-readable chain along the witness cycle.
    chain: Tuple[str, ...] = ()
    #: Hop dictionaries along the critical path.
    critical_path: List[Dict[str, object]] = field(default_factory=list)
    #: blamed rank -> attributed blocked microseconds.
    attribution: Dict[int, float] = field(default_factory=dict)
    timeline: Optional[UnifiedTimeline] = None

    @property
    def root_causes(self) -> Tuple[int, ...]:
        return self.result.deadlocked if self.result is not None else ()

    @property
    def has_deadlock(self) -> bool:
        return bool(self.root_causes)

    @property
    def total_blocked_us(self) -> float:
        return sum(iv.duration_us for iv in self.intervals)

    @property
    def attributed_to_root_us(self) -> float:
        roots = set(self.root_causes)
        return sum(
            iv.duration_us
            for iv in self.intervals
            if iv.blamed is not None and iv.blamed in roots
        )

    @property
    def attributed_ratio(self) -> float:
        """Share of total blocked time attributed to the root causes."""
        total = self.total_blocked_us
        if total <= 0.0:
            return 1.0 if self.has_deadlock else 0.0
        return self.attributed_to_root_us / total

    def per_rank_blocked_us(self) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for iv in self.intervals:
            out[iv.rank] = out.get(iv.rank, 0.0) + iv.duration_us
        return out


# ---------------------------------------------------------------------------
# condition reconstruction
# ---------------------------------------------------------------------------


def _entry_targets(entry: Dict[str, object], rank: int) -> List[int]:
    coll = entry.get("collective")
    if coll is not None:
        return [k for k in coll.get("group", []) if k != rank]
    return [int(t) for t in entry.get("targets", [])]


def conditions_from_wait_args(
    per_rank_args: Dict[int, Dict[str, object]],
) -> Dict[int, WaitForCondition]:
    """Rebuild CNF wait-for conditions from serialized wait info.

    The input maps each blocked rank to the ``args`` payload of its
    ``waitstate.final`` event (the format of
    :func:`repro.core.distributed.wait_info_args`). The payloads become
    the :class:`RankWaitInfo` records they were serialized from and go
    through :func:`repro.core.waitfor.resolve_conditions`, the resolver
    the TBON root runs; communicator groups come from the collective
    entries, which carry them.
    """
    groups: Dict[int, Sequence[int]] = {}
    infos: List[RankWaitInfo] = []
    for rank, args in per_rank_args.items():
        entries: List[object] = []
        for entry in args.get("entries", []):
            coll = entry.get("collective")
            if coll is not None:
                groups[coll["comm"]] = coll.get("group", [])
                entries.append(CollectiveWait(coll["comm"], coll["wave"]))
            else:
                entries.append(
                    P2PWait(
                        tuple(int(t) for t in entry.get("targets", [])),
                        str(entry.get("reason", "")),
                    )
                )
        infos.append(
            RankWaitInfo(
                rank=rank,
                op_description=str(args.get("op", "?")),
                entries=tuple(entries),
                or_semantics=bool(args.get("or")),
            )
        )
    return resolve_conditions(infos, groups.__getitem__)


# ---------------------------------------------------------------------------
# blame walking
# ---------------------------------------------------------------------------


def _deadlocked_successor(
    graph: WaitForGraph, rank: int, dead: Set[int]
) -> Optional[int]:
    """Smallest deadlocked rank among ``rank``'s wait-for targets."""
    node = graph.nodes.get(rank)
    if node is None:
        return None
    best: Optional[int] = None
    for clause in node.clauses:
        for dst in clause:
            if dst in dead and (best is None or dst < best):
                best = dst
    return best


def _nearest_deadlocked(
    graph: WaitForGraph, start: int, dead: Set[int]
) -> Optional[int]:
    """BFS through wait-for arcs to the nearest deadlocked rank."""
    seen = {start}
    queue: deque[int] = deque([start])
    while queue:
        rank = queue.popleft()
        for succ in sorted(graph.successors(rank)):
            if succ in dead:
                return succ
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return None


def _blame_target(
    graph: Optional[WaitForGraph],
    dead: Set[int],
    interval: BlockedInterval,
) -> Optional[int]:
    if interval.terminal and graph is not None:
        if interval.rank in dead:
            succ = _deadlocked_successor(graph, interval.rank, dead)
            return succ if succ is not None else interval.rank
        if dead:
            near = _nearest_deadlocked(graph, interval.rank, dead)
            if near is not None:
                return near
        succs = graph.successors(interval.rank)
        if succs:
            return min(succs)
    # Transient interval (or no graph): blame the immediate blocker.
    if interval.targets:
        return min(interval.targets)
    return None


def blame_chain(
    graph: WaitForGraph,
    result: DetectionResult,
    conditions: Dict[int, WaitForCondition],
) -> List[str]:
    """Annotated dependency chain along the witness cycle (read off
    ``conditions``, which ``graph`` was built from)."""
    cycle = result.witness_cycle
    if not cycle:
        return []
    lines: List[str] = []
    for i, rank in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        cond = conditions.get(rank)
        op = cond.op_description if cond is not None else "?"
        reason = cond.reason_for(nxt) if cond is not None else None
        line = f"rank {rank} in {op} waits for rank {nxt}"
        if reason:
            line += f": {reason}"
        lines.append(line)
    return lines


def _critical_path(
    graph: Optional[WaitForGraph],
    result: Optional[DetectionResult],
    conditions: Dict[int, WaitForCondition],
    intervals: Sequence[BlockedInterval],
) -> List[Dict[str, object]]:
    """Follow deadlocked successors from the longest-blocked rank."""
    terminal_us: Dict[int, float] = {}
    for iv in intervals:
        if iv.terminal:
            terminal_us[iv.rank] = terminal_us.get(iv.rank, 0.0) + iv.duration_us
    if graph is None or result is None or not result.deadlocked:
        if not terminal_us:
            return []
        rank = max(terminal_us, key=lambda r: (terminal_us[r], -r))
        cond = conditions.get(rank)
        return [
            {
                "rank": rank,
                "op": cond.op_description if cond else "?",
                "blocked_us": terminal_us[rank],
                "waits_for": None,
            }
        ]
    dead = set(result.deadlocked)
    candidates = [r for r in dead if r in terminal_us] or sorted(dead)
    start = max(
        candidates, key=lambda r: (terminal_us.get(r, 0.0), -r)
    )
    path: List[Dict[str, object]] = []
    seen: Set[int] = set()
    rank: Optional[int] = start
    while rank is not None and rank not in seen:
        seen.add(rank)
        nxt = _deadlocked_successor(graph, rank, dead)
        cond = conditions.get(rank)
        path.append(
            {
                "rank": rank,
                "op": cond.op_description if cond else "?",
                "blocked_us": terminal_us.get(rank, 0.0),
                "waits_for": nxt,
            }
        )
        rank = nxt
    return path


# ---------------------------------------------------------------------------
# event -> report
# ---------------------------------------------------------------------------


def _infer_num_ranks(
    intervals: Sequence[BlockedInterval],
    per_rank_args: Dict[int, Dict[str, object]],
    finished: Iterable[int],
    unblocked: Iterable[int],
) -> int:
    top = -1
    for iv in intervals:
        top = max(top, iv.rank, *(iv.targets or (-1,)))
    for rank, args in per_rank_args.items():
        top = max(top, rank)
        for entry in args.get("entries", []):
            coll = entry.get("collective")
            if coll is not None:
                top = max(top, *(list(coll.get("group", [])) or [-1]))
            else:
                top = max(top, *(list(entry.get("targets", [])) or [-1]))
    for rank in finished:
        top = max(top, rank)
    for rank in unblocked:
        top = max(top, rank)
    return max(1, top + 1)


def analyze_events(
    events: Sequence[TraceEvent], *, num_ranks: Optional[int] = None
) -> BlameReport:
    """Reconstruct blocked intervals and attribute blame from a trace."""
    dwell: List[TraceEvent] = []
    final: List[TraceEvent] = []
    resumes: List[TraceEvent] = []
    for ev in events:
        if ev.cat == CAT_DWELL and ev.ph == "X":
            dwell.append(ev)
        elif ev.cat == CAT_FINAL:
            final.append(ev)
        elif ev.cat == "detection" and ev.name == "resume":
            resumes.append(ev)

    # Terminal wait states: only the LAST detection's cut — earlier
    # detections' still-blocked ops either advanced later (their dwell
    # span covers the same time) or re-appear in the last cut.
    detections = [
        (ev.args or {}).get("detection")
        for ev in final
        if (ev.args or {}).get("detection") is not None
    ]
    last_detection = max(detections) if detections else None

    intervals: List[BlockedInterval] = []
    per_rank_args: Dict[int, Dict[str, object]] = {}
    for ev in dwell:
        args = ev.args or {}
        entries = args.get("entries", [])
        targets: Set[int] = set()
        for entry in entries:
            targets.update(_entry_targets(entry, ev.tid))
        intervals.append(
            BlockedInterval(
                rank=ev.tid,
                start_us=ev.ts,
                end_us=ev.ts + (ev.dur or 0.0),
                op=str(args.get("op", "?")),
                targets=tuple(sorted(targets)),
            )
        )
    for ev in final:
        args = ev.args or {}
        if args.get("detection") != last_detection:
            continue
        per_rank_args[ev.tid] = args
        targets = set()
        for entry in args.get("entries", []):
            targets.update(_entry_targets(entry, ev.tid))
        since = float(args.get("since", ev.ts))
        intervals.append(
            BlockedInterval(
                rank=ev.tid,
                start_us=since,
                end_us=ev.ts,
                op=str(args.get("op", "?")),
                targets=tuple(sorted(targets)),
                terminal=True,
                detection=last_detection,
            )
        )

    finished: Set[int] = set()
    unblocked: Set[int] = set()
    for ev in resumes:
        args = ev.args or {}
        if args.get("detection") != last_detection:
            continue
        finished.update(args.get("finished_ranks", []))
        unblocked.update(args.get("unblocked_ranks", []))

    if num_ranks is None:
        num_ranks = _infer_num_ranks(
            intervals, per_rank_args, finished, unblocked
        )

    report = BlameReport(num_ranks=num_ranks, intervals=intervals)
    report.finished = finished
    report.timeline = UnifiedTimeline(events)

    if per_rank_args:
        report.conditions = conditions_from_wait_args(per_rank_args)
        report.graph = WaitForGraph.from_conditions(
            num_ranks, report.conditions.values(), finished=finished
        )
        report.result = detect_deadlock(report.graph)
        report.chain = tuple(
            blame_chain(report.graph, report.result, report.conditions)
        )

    dead = set(report.root_causes)
    for iv in intervals:
        iv.blamed = _blame_target(report.graph, dead, iv)
        if iv.blamed is not None:
            report.attribution[iv.blamed] = (
                report.attribution.get(iv.blamed, 0.0) + iv.duration_us
            )
    report.critical_path = _critical_path(
        report.graph, report.result, report.conditions, intervals
    )
    return report
