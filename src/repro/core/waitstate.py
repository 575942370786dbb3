"""Centralized wait state analysis — the Figure 1(a) baseline.

One tool process receives all operations, runs the transition system
to its terminal state, derives wait-for conditions, builds the
wait-for graph, checks the deadlock criterion, and renders the report.
This is both the scalability baseline of the evaluation and the
reference oracle the distributed implementation is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any, Callable, Dict, List, Optional, TextIO, Tuple, TypeVar,
)

from repro.core.transition import State, TransitionSystem, UnexpectedMatch
from repro.core.waitfor import WaitForCondition, wait_for_conditions
from repro.mpi.blocking import BlockingSemantics
from repro.mpi.trace import MatchedTrace
from repro.perf.timers import (
    PHASE_DEADLOCK_CHECK,
    PHASE_GRAPH_BUILD,
    PHASE_OUTPUT,
    PHASE_WFG_GATHER,
    PhaseTimers,
)
from repro.wfg.detect import DetectionResult, detect_deadlock
from repro.wfg.dot import render_dot, write_dot
from repro.wfg.graph import WaitForGraph
from repro.wfg.report import render_html_report, write_html_report

_T = TypeVar("_T")


@dataclass
class DeadlockAnalysis:
    """Complete result of one deadlock analysis over a matched trace.

    ``dot_text`` and ``html_report`` are rendered on first read and
    kept, timed into the output phase of ``timers``; they read None
    without a deadlock or with ``generate_outputs=False``.
    """

    terminal_state: State
    blocked: Tuple[int, ...]
    conditions: Dict[int, WaitForCondition]
    graph: WaitForGraph
    detection: DetectionResult
    unexpected_matches: List[UnexpectedMatch]
    timers: PhaseTimers
    generate_outputs: bool = True

    @property
    def has_deadlock(self) -> bool:
        return self.detection.has_deadlock

    @property
    def deadlocked(self) -> Tuple[int, ...]:
        return self.detection.deadlocked

    def _output(
        self, render: Callable[..., _T], *args: Any, **options: Any
    ) -> Optional[_T]:
        """``render(...)``, timed as output generation; None, with
        nothing called, for an analysis that has no reports."""
        if not (self.generate_outputs and self.has_deadlock):
            return None
        with self.timers.phase(PHASE_OUTPUT):
            return render(*args, **options)

    def _report(self, render: Callable[..., _T], *out: TextIO) -> Optional[_T]:
        """The HTML report, through the renderer or the writer."""
        return self._output(
            render, *out, self.graph, self.detection, self.conditions,
            unexpected=self.unexpected_matches,
        )

    @cached_property
    def dot_text(self) -> Optional[str]:
        return self._output(render_dot, self.graph, self.detection)

    @cached_property
    def html_report(self) -> Optional[str]:
        return self._report(render_html_report)

    def write_dot(self, out: TextIO) -> None:
        """Stream what ``dot_text`` reads to ``out``, keeping nothing."""
        self._output(write_dot, out, self.graph, self.detection)

    def write_html(self, out: TextIO) -> None:
        """Stream what ``html_report`` reads to ``out``, keeping nothing."""
        self._report(write_html_report, out)


def analyze_trace(
    matched: MatchedTrace,
    *,
    semantics: BlockingSemantics | None = None,
    generate_outputs: bool = True,
) -> DeadlockAnalysis:
    """Run the full centralized analysis pipeline on ``matched``.

    The DOT/HTML reports (the dominant cost at scale — Figure 10(b))
    are rendered when the analysis is asked for them;
    ``generate_outputs=False`` makes them read None.
    """
    timers = PhaseTimers()
    ts = TransitionSystem(matched, semantics=semantics)
    with timers.phase(PHASE_WFG_GATHER):
        terminal = ts.run()
        conditions = wait_for_conditions(ts, terminal)
    with timers.phase(PHASE_GRAPH_BUILD):
        graph = WaitForGraph.from_conditions(
            ts.num_processes,
            conditions.values(),
            finished=ts.finished_processes(terminal),
        )
    with timers.phase(PHASE_DEADLOCK_CHECK):
        detection = detect_deadlock(graph)
    return DeadlockAnalysis(
        terminal_state=terminal,
        blocked=tuple(sorted(conditions)),
        conditions=conditions,
        graph=graph,
        detection=detection,
        unexpected_matches=ts.find_unexpected_matches(terminal),
        timers=timers,
        generate_outputs=generate_outputs,
    )
