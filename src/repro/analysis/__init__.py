"""Static analysis of rank programs and recorded traces.

This package is the pre-execution counterpart of the runtime detector:
``repro lint`` runs it over Python rank-program files (AST lint +
static sequence extraction + deterministic sequential matching) and
over recorded ``.json`` traces, producing
:class:`~repro.checks.findings.CheckFinding` records without ever
starting the engine. ``repro verify`` goes further for wildcard
programs: it explores the full match-set state graph
(:mod:`repro.analysis.explore`) and backs every `deadlock-possible`
verdict with a replayable witness schedule
(:mod:`repro.analysis.witness`). The interprocedural symbolic
extractor and decidable-fragment classifier
(:mod:`repro.analysis.symbolic`) sit on top: wildcard-free programs
are labeled ``SEQ-DETERMINISTIC`` / ``SEQ-WILDCARD-FREE-LOOPS`` and
decided by an O(n) linear matching instead of state-graph search
(``repro classify``, and the ``repro verify`` fast path).
"""
from repro.analysis.astlint import lint_source
from repro.analysis.driver import (
    DEFAULT_RANKS,
    LintReport,
    ProgramVerification,
    VerifyReport,
    lint_path,
    verify_path,
)
from repro.analysis.explore import (
    ExplorationUnsupported,
    ExploreResult,
    ExploreStats,
    Verdict,
    explore_extraction,
    explore_sequences,
)
from repro.analysis.extract import Extraction, extract_programs
from repro.analysis.sequential import (
    LinearMatchResult,
    LinearMatchUnsupported,
    StaticMatchResult,
    match_linear,
    match_sequences,
)
from repro.analysis.symbolic import (
    Fragment,
    ProgramClassification,
    SequenceClassification,
    classify_extraction,
    classify_source,
    decide_extraction,
)
from repro.analysis.typestate import (
    check_collective_consistency,
    check_request_typestate,
)
from repro.analysis.witness import (
    ReplayOutcome,
    WitnessSchedule,
    replay_witness,
)
from repro.programfile import find_rank_programs

__all__ = [
    "DEFAULT_RANKS",
    "ExplorationUnsupported",
    "ExploreResult",
    "ExploreStats",
    "Extraction",
    "Fragment",
    "LinearMatchResult",
    "LinearMatchUnsupported",
    "LintReport",
    "ProgramClassification",
    "ProgramVerification",
    "ReplayOutcome",
    "SequenceClassification",
    "StaticMatchResult",
    "Verdict",
    "VerifyReport",
    "WitnessSchedule",
    "check_collective_consistency",
    "check_request_typestate",
    "classify_extraction",
    "classify_source",
    "decide_extraction",
    "match_linear",
    "explore_extraction",
    "explore_sequences",
    "extract_programs",
    "find_rank_programs",
    "lint_path",
    "lint_source",
    "match_sequences",
    "replay_witness",
    "verify_path",
]
