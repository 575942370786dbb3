"""The ``repro lint`` and ``repro verify`` entry points: orchestrate
the static passes.

A Python file is opened through :class:`repro.programfile.ProgramFile`,
the one reader under every command that takes a rank-program file
(read once, parsed once, executed at most once). The pipeline is

1. AST lint of the tree (:mod:`repro.analysis.astlint`) and symbolic
   classification of every discovered rank program (``lint`` only);
2. the file's program sets (:meth:`ProgramFile.program_sets`): an
   explicit ``LINT_PROGRAMS`` list, else every discovered rank program
   over ``LINT_RANKS`` virtual ranks;
3. statically extract the per-rank operation sequences
   (:mod:`repro.analysis.extract`) and run the request typestate FSM
   and the collective consistency checker
   (:mod:`repro.analysis.typestate`): :func:`_extract_and_check`;
4. ``lint``: when the extraction is exact and wildcard-free, replay the
   sequences under the deterministic sequential model
   (:func:`repro.analysis.sequential.match_sequences`) and report any
   deadlock with its witness cycle; ``verify``: the linear fast path or
   the match-set explorer, and a witness replay on request.

For a recorded ``.json`` trace, ``lint`` runs the checkers and the
replay on the recorded sequences, with wildcard receives pinned to
their observed matches.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.analysis.astlint import lint_module
from repro.analysis.explore import (
    ExplorationUnsupported,
    ExploreResult,
    Verdict,
    explore_extraction,
)
from repro.analysis.extract import Extraction, extract_programs
from repro.analysis.sequential import StaticMatchResult, match_sequences
from repro.analysis.symbolic.fragments import (
    ProgramClassification,
    classify_extraction,
    classify_module,
    decide_extraction,
)
from repro.analysis.typestate import (
    check_collective_consistency,
    check_request_typestate,
)
from repro.analysis.witness import ReplayOutcome, WitnessSchedule, replay_witness
from repro.checks.findings import (
    CHECK_STATIC_DEADLOCK,
    CHECK_VERIFY_BOUND,
    CHECK_VERIFY_DEADLOCK,
    CHECK_WILDCARD_UNSUPPORTED,
    CheckFinding,
    Severity,
)
from repro.mpi.serialize import load_trace
from repro.obs.metrics import MetricsRegistry
from repro.programfile import ProgramFile, ProgramFileError
from repro.util.errors import ReproError

#: Default virtual world size for statically analyzed programs.
DEFAULT_RANKS = 4


@dataclass
class LintReport:
    """Everything ``repro lint`` learned about one path."""

    path: str
    findings: List[CheckFinding] = field(default_factory=list)
    #: Program sets that were extracted and analyzed.
    programs_analyzed: int = 0
    #: Diagnostics about the analysis itself (import failures etc.).
    notes: List[str] = field(default_factory=list)
    #: Per-program decidable-fragment labels from the symbolic pass.
    classifications: List[ProgramClassification] = field(
        default_factory=list
    )

    def errors(self) -> List[CheckFinding]:
        return [
            f for f in self.findings if f.severity is Severity.ERROR
        ]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors())


def lint_path(path: str, *, ranks: int = DEFAULT_RANKS) -> LintReport:
    """Statically analyze a rank-program file or recorded trace."""
    if path.endswith(".json"):
        return _lint_trace(path)
    return _lint_python(path, ranks)


# ----------------------------------------------------------------------
# Python source files
# ----------------------------------------------------------------------

def _lint_python(path: str, ranks: int) -> LintReport:
    report = LintReport(path=path)
    try:
        program_file = ProgramFile(path)
    except ProgramFileError as exc:
        report.findings.append(
            CheckFinding(
                check="syntax-error",
                severity=Severity.ERROR,
                rank=None,
                message=exc.reason,
                location=f"{path}:{exc.lineno}",
            )
        )
        return report
    report.findings.extend(lint_module(program_file.tree, path))
    _classify_for_lint(program_file, report)
    try:
        program_sets = program_file.program_sets(ranks)
    except ProgramFileError as exc:
        report.notes.append(f"{exc.reason}; AST lint only")
        return report
    if not program_sets:
        report.notes.append(
            "no module-level rank programs found; AST lint only"
        )
    for label, program_set in program_sets:
        _analyze_program_set(label, program_set, report)
    return report


def _classify_for_lint(
    program_file: ProgramFile, report: LintReport
) -> None:
    """Run the symbolic pass and fold its provenance into the lint
    findings: ``loop-unsupported`` / ``symbolic-unsupported`` notes
    with file:line, and one ``role-split`` INFO per rank-dependent
    branch so role-parametric programs are visible in lint output."""
    path = program_file.path
    try:
        classifications = classify_module(program_file.tree, path)
    except RecursionError:  # pathological nesting; lint stays usable
        report.notes.append("symbolic classification overflowed; skipped")
        return
    report.classifications.extend(classifications)
    for cl in classifications:
        if cl.summary is not None:
            report.findings.extend(cl.summary.notes)
        for cond, lineno in cl.role_splits:
            report.findings.append(
                CheckFinding(
                    check="role-split",
                    severity=Severity.INFO,
                    rank=None,
                    message=(
                        f"{cl.name}: role split on `{cond}` — per-role "
                        "sequences extracted for both arms"
                    ),
                    location=f"{path}:{lineno}",
                )
            )
        report.notes.append(
            f"{cl.name}: fragment {cl.fragment.value}"
            + (f" ({cl.reason})" if cl.reason else "")
        )
        _prove_for_lint(cl, path, report)


def _prove_for_lint(
    cl: ProgramClassification, path: str, report: LintReport
) -> None:
    """Run the parameterized prover on decidable classifications.

    A certified program earns an INFO finding ("certified for all
    p"); a refuted one earns a WARNING carrying the minimal failing
    process count. Neither changes lint's exit code (only ERROR
    findings do) — the runtime-facing checks keep that authority.
    """
    if not cl.fragment.decidable or cl.summary is None:
        return
    from repro.analysis.symbolic.prove import ProveVerdict, prove_summary

    proof = prove_summary(cl.summary)
    if proof.verdict is ProveVerdict.PROVED_ALL_P:
        cert = proof.certificate
        assert cert is not None
        report.findings.append(
            CheckFinding(
                check="proved-all-p",
                severity=Severity.INFO,
                rank=None,
                message=(
                    f"{cl.name}: certified deadlock-free for all "
                    f"p >= 2 (sizes [2, {cert.window_hi}) confirmed, "
                    f"channel behavior verified periodic)"
                ),
                location=path,
            )
        )
    elif proof.verdict is ProveVerdict.REFUTED:
        ranks = ", ".join(str(r) for r in proof.deadlocked)
        report.findings.append(
            CheckFinding(
                check="prove-refuted",
                severity=Severity.WARNING,
                rank=None,
                message=(
                    f"{cl.name}: parameterized falsification found a "
                    f"deadlock at p={proof.min_p} (minimal failing "
                    f"process count; ranks {{{ranks}}})"
                ),
                location=path,
            )
        )


def _extract_and_check(
    program_set: Sequence[Callable[..., Any]],
    findings: List[CheckFinding],
) -> Tuple[Optional[Extraction], str]:
    """Extract ``program_set`` and run the consistency checkers on the
    sequences, appending to ``findings``. Returns the extraction, or
    None and why there is none."""
    try:
        extraction = extract_programs(program_set)
    except ReproError as exc:
        return None, f"extraction failed ({exc})"
    findings.extend(extraction.notes)
    findings.extend(check_request_typestate(extraction.sequences))
    findings.extend(
        check_collective_consistency(
            extraction.sequences,
            extraction.comms,
            hung_ranks=extraction.truncated,
        )
    )
    return extraction, ""


def _cycle_text(witness_cycle: Sequence[int]) -> str:
    """The tail of a deadlock finding that names the witness cycle."""
    if not witness_cycle:
        return ""
    chain = " -> ".join(str(r) for r in witness_cycle)
    return f"; dependency cycle {chain} -> {witness_cycle[0]}"


def _analyze_program_set(
    label: str, program_set: Sequence, report: LintReport
) -> None:
    if not program_set:
        return
    extraction, failure = _extract_and_check(program_set, report.findings)
    if extraction is None:
        report.notes.append(f"{label}: {failure}")
        return
    report.programs_analyzed += 1
    if not extraction.exact and not (
        extraction.wildcard_exact and not extraction.truncated
    ):
        report.notes.append(
            f"{label}: control flow may depend on runtime outcomes; "
            "sequential deadlock matching skipped"
        )
        return
    # Wildcard-exact sequences reach the matcher so its refusal
    # becomes a structured `wildcard-unsupported` finding pointing at
    # `repro verify` (instead of an opaque note).
    result = match_sequences(extraction.sequences, extraction.comms)
    _report_match(label, result, extraction, report)


def _report_match(
    label: str,
    result: StaticMatchResult,
    extraction: Optional[Extraction],
    report: LintReport,
) -> None:
    if not result.applicable:
        if result.skipped_check == CHECK_WILDCARD_UNSUPPORTED:
            report.findings.append(
                CheckFinding(
                    check=CHECK_WILDCARD_UNSUPPORTED,
                    severity=Severity.INFO,
                    rank=None,
                    message=f"{label}: {result.reason_skipped}",
                )
            )
        else:
            report.notes.append(
                f"{label}: {result.reason_skipped}"
            )
        return
    if not result.has_deadlock:
        return
    cycle = _cycle_text(result.witness_cycle)
    for rank in result.deadlocked:
        op = result.blocked_ops.get(rank)
        report.findings.append(
            CheckFinding(
                check=CHECK_STATIC_DEADLOCK,
                severity=Severity.ERROR,
                rank=rank,
                message=(
                    f"{label}: rank {rank} blocks forever at "
                    f"{op.describe() if op else 'its final operation'}"
                    f"{cycle}"
                ),
                op=op.ref if op else None,
                location=op.location if op else "",
            )
        )


# ----------------------------------------------------------------------
# Bounded verification (``repro verify``)
# ----------------------------------------------------------------------

@dataclass
class ProgramVerification:
    """Verdict of the match-set explorer for one program set."""

    label: str
    result: Optional[ExploreResult] = None
    witness: Optional[WitnessSchedule] = None
    replay: Optional[ReplayOutcome] = None
    findings: List[CheckFinding] = field(default_factory=list)
    #: Why exploration did not run (checker errors, inexact sequences).
    skipped_reason: str = ""

    @property
    def verdict_name(self) -> str:
        """The verdict string, or ``"inconclusive"`` when skipped."""
        if self.result is None:
            return "inconclusive"
        return self.result.verdict.value


@dataclass
class VerifyReport:
    """Everything ``repro verify`` learned about one path."""

    path: str
    #: The file as read, so a caller that goes on (``verify --prove``)
    #: has the parsed tree and does not read it again.
    program_file: ProgramFile
    programs: List[ProgramVerification] = field(default_factory=list)
    findings: List[CheckFinding] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def errors(self) -> List[CheckFinding]:
        all_findings = list(self.findings)
        for prog in self.programs:
            all_findings.extend(prog.findings)
        return [f for f in all_findings if f.severity is Severity.ERROR]

    @property
    def has_deadlock(self) -> bool:
        return any(
            p.result is not None and p.result.has_deadlock
            for p in self.programs
        )

    @property
    def inconclusive(self) -> bool:
        """Any program set without a definite verdict (skipped or
        bound-exceeded)."""
        return any(
            p.result is None
            or p.result.verdict is Verdict.BOUND_EXCEEDED
            for p in self.programs
        )


def verify_path(
    path: str,
    *,
    ranks: int = DEFAULT_RANKS,
    max_states: int = 200_000,
    max_depth: int = 1_000_000,
    por: bool = True,
    replay: bool = False,
    fastpath: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> VerifyReport:
    """Bounded wildcard-aware verification of a rank-program file.

    Extracts every discovered program set, runs the consistency
    checkers, and — when the sequences are exact up to wildcard
    statuses — explores the full match-set state graph. Wildcard-free
    exact sequences skip the state graph entirely: the fragment
    classifier routes them through the O(n) linear matcher
    (``fastpath=False`` forces exploration; ``verify.fastpath.*``
    counters record the routing). A
    `deadlock-possible` verdict carries a witness schedule;
    ``replay=True`` additionally feeds it back through the runtime
    engine to confirm the deadlock dynamically.
    """
    if path.endswith(".json"):
        raise ReproError(
            "verify needs rank programs to explore (and replay); "
            "recorded traces are analyzed by `repro lint` / "
            "`repro analyze`"
        )
    try:
        program_file = ProgramFile(path)
    except ProgramFileError as exc:
        raise ReproError(f"{exc.reason} ({path}:{exc.lineno})") from exc
    report = VerifyReport(path=path, program_file=program_file)
    try:
        program_sets = program_file.program_sets(ranks)
    except ProgramFileError as exc:
        raise ReproError(
            f"cannot import {path}: {exc.reason}; AST lint only"
        ) from exc
    if not program_sets:
        report.notes.append("no module-level rank programs found")
    for label, program_set in program_sets:
        report.programs.append(
            _verify_program_set(
                label,
                program_set,
                max_states=max_states,
                max_depth=max_depth,
                por=por,
                replay=replay,
                fastpath=fastpath,
                metrics=metrics,
            )
        )
    return report


def _verify_program_set(
    label: str,
    program_set: Sequence,
    *,
    max_states: int,
    max_depth: int,
    por: bool,
    replay: bool,
    fastpath: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> ProgramVerification:
    prog = ProgramVerification(label=label)
    extraction, failure = _extract_and_check(program_set, prog.findings)
    if extraction is None:
        prog.skipped_reason = failure
        return prog
    if any(f.severity is Severity.ERROR for f in prog.findings):
        # The engine would reject these programs (usage errors); an
        # exploration verdict would be meaningless.
        prog.skipped_reason = (
            "consistency checks reported errors; fix those first"
        )
        return prog
    # Decidable-fragment fast path: wildcard-free exact sequences have
    # a unique matching (arXiv:0709.3692), so a single linear replay
    # decides deadlock without building the state graph.
    if fastpath:
        classification = classify_extraction(extraction)
        if metrics is not None:
            metrics.inc(
                f"verify.fragment.{classification.fragment.value}"
            )
        fast = None
        if classification.decidable:
            fast = decide_extraction(extraction, label=label)
        if fast is not None:
            if metrics is not None:
                metrics.inc("verify.fastpath.hits")
                metrics.inc(
                    "verify.fastpath.linear_ops",
                    fast.stats.transitions,
                )
                if fast.has_deadlock:
                    metrics.inc("verify.fastpath.deadlocks_found")
            prog.result = fast
        else:
            if metrics is not None:
                metrics.inc("verify.fastpath.misses")
    if prog.result is None:
        try:
            prog.result = explore_extraction(
                extraction,
                max_states=max_states,
                max_depth=max_depth,
                por=por,
                metrics=metrics,
                label=label,
            )
        except ExplorationUnsupported as exc:
            prog.skipped_reason = str(exc)
            return prog
    result = prog.result
    if result.verdict is Verdict.BOUND_EXCEEDED:
        prog.findings.append(
            CheckFinding(
                check=CHECK_VERIFY_BOUND,
                severity=Severity.WARNING,
                rank=None,
                message=(
                    f"{label}: exploration stopped early ({result.reason}) "
                    f"after {result.stats.states_explored} states; "
                    "NOT a deadlock-freedom proof — raise --max-states/"
                    "--max-depth for a verdict"
                ),
            )
        )
        return prog
    if not result.has_deadlock:
        return prog
    prog.witness = result.witness
    cycle = _cycle_text(result.witness_cycle)
    for rank in result.deadlocked:
        ref = result.blocked_ops.get(rank)
        cond = result.conditions.get(rank)
        prog.findings.append(
            CheckFinding(
                check=CHECK_VERIFY_DEADLOCK,
                severity=Severity.ERROR,
                rank=rank,
                message=(
                    f"{label}: a feasible schedule deadlocks rank {rank} "
                    f"at {cond.op_description if cond else 'its op'}"
                    f"{cycle}"
                ),
                op=ref,
            )
        )
    if replay and prog.witness is not None:
        prog.replay = replay_witness(list(program_set), prog.witness)
    return prog


# ----------------------------------------------------------------------
# Recorded traces
# ----------------------------------------------------------------------

def _lint_trace(path: str) -> LintReport:
    report = LintReport(path=path)
    matched = load_trace(path)
    sequences = [
        list(matched.trace.sequence(r))
        for r in range(matched.trace.num_processes)
    ]
    report.programs_analyzed = 1
    report.findings.extend(check_request_typestate(sequences))
    report.findings.extend(
        check_collective_consistency(sequences, matched.comms)
    )
    result = match_sequences(
        sequences, matched.comms, resolve_observed=True
    )
    _report_match(os.path.basename(path), result, None, report)
    return report
