"""Known answers the timed paths are checked against.

Every expectation is a closed form of the workload's shape or the
terminal state of the centralized ``TransitionSystem`` -- an
implementation that shares no code with the distributed detector, the
backends, the explorer or the daemon being timed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.transition import TransitionSystem
from repro.mpi.trace import MatchedTrace


@dataclass(frozen=True)
class Expected:
    """What one analysis of one input must report."""

    deadlocked: Tuple[int, ...]
    #: Arcs of the wait-for graph of the last detection.
    arcs: Optional[int] = None
    #: Completed detections (timeout epochs plus the terminal one).
    detections: Optional[int] = None
    stable_state: Optional[Tuple[int, ...]] = None

    @property
    def deadlock(self) -> bool:
        return bool(self.deadlocked)

    @property
    def exit_code(self) -> int:
        return 1 if self.deadlocked else 0


def wildcard_storm(p: int) -> Expected:
    """Nobody sends: every rank OR-waits on every other rank."""
    return Expected(
        deadlocked=tuple(range(p)), arcs=p * (p - 1), detections=1
    )


def clean_run(matched: MatchedTrace, detections: int = 1) -> Expected:
    """A run that completes: nobody deadlocked, and the tool's stable
    state is the centralized transition system's terminal state."""
    return Expected(
        deadlocked=(),
        arcs=0,
        detections=detections,
        stable_state=tuple(TransitionSystem(matched).run()),
    )


def check_outcome(expected: Expected, outcome: Any) -> List[str]:
    """Mismatches between a ``DistributedOutcome`` and the answer."""
    wrong: List[str] = []
    if bool(outcome.has_deadlock) != expected.deadlock:
        wrong.append(
            f"verdict deadlock={outcome.has_deadlock}, "
            f"expected {expected.deadlock}"
        )
    if tuple(sorted(outcome.deadlocked)) != expected.deadlocked:
        wrong.append(
            f"{len(outcome.deadlocked)} deadlocked ranks, expected "
            f"{len(expected.deadlocked)}"
        )
    if expected.detections is not None:
        done = sum(1 for record in outcome.detections if record.complete)
        if done != expected.detections:
            wrong.append(
                f"{done} completed detections, expected "
                f"{expected.detections}"
            )
    if expected.arcs is not None:
        arcs = outcome.detection.graph.arc_count()
        if arcs != expected.arcs:
            wrong.append(f"{arcs} arcs, expected {expected.arcs}")
    if (
        expected.stable_state is not None
        and tuple(outcome.stable_state) != expected.stable_state
    ):
        wrong.append("stable state differs from the transition system's")
    return wrong


def check_cli(
    expected: Expected, returncode: int, stdout: str, ranks: int
) -> List[str]:
    """Mismatches in what ``repro demo|analyze`` printed and returned."""
    wrong: List[str] = []
    if returncode != expected.exit_code:
        wrong.append(f"exit code {returncode}, expected {expected.exit_code}")
    if expected.deadlock:
        line = f"wait-for graph: {ranks} nodes, {expected.arcs} arcs"
    else:
        line = "deadlocked ranks ()"
    if line not in stdout:
        wrong.append(f"output lacks {line!r}")
    return wrong


#: `repro verify` answers per rank-program file: verdict, deadlocked
#: ranks of the witness, and whether the witness must replay.
VERIFY: Dict[str, Tuple[str, Tuple[int, ...], bool]] = {
    "wildcard_pingpong.py": ("deadlock-free", (), False),
    "wildcard_pingpong_smoke.py": ("deadlock-free", (), False),
    "directed_pingpong.py": ("deadlock-free", (), False),
    "wildcard_master_worker.py": ("deadlock-possible", (0, 2), True),
}


def check_verify(filename: str, report: Any) -> List[str]:
    """Mismatches between a ``VerifyReport`` and the file's answer."""
    verdict, deadlocked, replays = VERIFY[filename]
    if len(report.programs) != 1:
        return [f"{filename}: {len(report.programs)} program sets, expected 1"]
    prog = report.programs[0]
    wrong: List[str] = []
    if prog.verdict_name != verdict:
        wrong.append(f"{filename}: {prog.verdict_name}, expected {verdict}")
    elif tuple(sorted(prog.result.deadlocked)) != deadlocked:
        wrong.append(
            f"{filename}: deadlocked {sorted(prog.result.deadlocked)}, "
            f"expected {list(deadlocked)}"
        )
    if replays and not (prog.replay is not None and prog.replay.confirmed):
        wrong.append(f"{filename}: witness did not replay to a deadlock")
    return wrong


def check_verify_cli(
    filenames: List[str], returncode: int, stdout: str
) -> List[str]:
    answers = [VERIFY[name] for name in filenames]
    want_code = 1 if any(a[0] == "deadlock-possible" for a in answers) else 0
    wrong: List[str] = []
    if returncode != want_code:
        wrong.append(f"exit code {returncode}, expected {want_code}")
    for verdict in ("deadlock-free", "deadlock-possible"):
        want = sum(1 for a in answers if a[0] == verdict)
        got = stdout.count(f"LINT_PROGRAMS: {verdict}")
        if got != want:
            wrong.append(f"{got} files {verdict}, expected {want}")
    if any(a[2] for a in answers) and "replay: confirmed" not in stdout:
        wrong.append("output lacks the confirmed witness replay")
    return wrong


def serve_job(workload: str, ranks: int) -> Expected:
    """The verdict of one entry of the serve mix (``workload`` is the
    built-in's name; an uploaded stress trace answers as ``stress``)."""
    if workload == "stress":
        return Expected(deadlocked=())
    if workload in ("wildcard", "lammps"):
        # lammps: the skeleton's unsafe exchange blocks every rank.
        return Expected(deadlocked=tuple(range(ranks)))
    raise ValueError(f"no known answer for workload {workload!r}")


def check_job(
    expected: Expected, ranks: int, result: Mapping[str, Any]
) -> List[str]:
    """Mismatches in a serve job's result document."""
    wrong: List[str] = []
    want = "deadlock" if expected.deadlock else "clean"
    if result.get("verdict") != want:
        wrong.append(f"job verdict {result.get('verdict')!r}, expected {want!r}")
    if tuple(sorted(result.get("deadlocked", ()))) != expected.deadlocked:
        wrong.append("job deadlocked set differs")
    if result.get("num_ranks") != ranks:
        wrong.append(f"job ran {result.get('num_ranks')} ranks, expected {ranks}")
    return wrong
