"""Phase timers for the detection-time breakdowns of Figures 10(b)/11(b).

The paper splits total deadlock-detection time into five activity
groups: Synchronization, WFG gather, Graph build, Deadlock check, and
Output generation. :class:`PhaseTimers` accumulates wall-clock time per
named phase so benches can print the same breakdown.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Mapping, Optional

#: Canonical phase names, in the paper's presentation order.
PHASE_SYNCHRONIZATION = "synchronization"
PHASE_WFG_GATHER = "wfg_gather"
PHASE_GRAPH_BUILD = "graph_build"
PHASE_DEADLOCK_CHECK = "deadlock_check"
PHASE_OUTPUT = "output_generation"

ALL_PHASES = (
    PHASE_SYNCHRONIZATION,
    PHASE_WFG_GATHER,
    PHASE_GRAPH_BUILD,
    PHASE_DEADLOCK_CHECK,
    PHASE_OUTPUT,
)


class PhaseTimers:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self._elapsed: Dict[str, float] = {}
        #: Once set, told of every later addition as a one-phase
        #: breakdown. An observed detection sets it to
        #: ``MetricsRegistry.merge_phase_breakdown`` after folding its
        #: own phases in, so a report rendered long afterwards still
        #: lands in the observer's histogram.
        self.sink: Optional[Callable[[Mapping[str, float]], None]] = None

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative phase time")
        self._elapsed[name] = self._elapsed.get(name, 0.0) + seconds
        if self.sink is not None:
            self.sink({name: seconds})

    def elapsed(self, name: str) -> float:
        return self._elapsed.get(name, 0.0)

    def total(self) -> float:
        return sum(self._elapsed.values())

    def breakdown(self) -> Dict[str, float]:
        """Phase -> seconds, in canonical order first, extras after."""
        ordered: Dict[str, float] = {}
        for name in ALL_PHASES:
            if name in self._elapsed:
                ordered[name] = self._elapsed[name]
        for name, value in self._elapsed.items():
            if name not in ordered:
                ordered[name] = value
        return ordered

    def shares(self) -> Dict[str, float]:
        """Phase -> fraction of total (the Figure 10(b) ratios)."""
        total = self.total()
        if total <= 0:
            return {name: 0.0 for name in self._elapsed}
        return {name: v / total for name, v in self.breakdown().items()}
