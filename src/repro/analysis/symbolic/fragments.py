"""Decidable-fragment classification and O(n) fragment verdicts.

The sequential-model results this labeling follows (arXiv:0709.3689,
arXiv:0709.3692) carve MPI programs into fragments by how much of the
matching is pinned statically:

* ``SEQ-DETERMINISTIC`` — wildcard-free and loop-free (every loop
  unrolled to a constant trip count): the per-rank sequences are
  concrete modulo ``rank``/``size`` and matching is unique.
* ``SEQ-WILDCARD-FREE-LOOPS`` — wildcard-free but containing
  symbolic ``repeat(k)`` terms (size-dependent trip counts): still
  unique matching once a concrete ``size`` fixes every ``k``.
* ``UNDECIDABLE`` — wildcards, runtime-steered completions
  (``test``/``waitany``-style), truncated extraction, or constructs
  outside the symbolic domain; only the match-set explorer (or the
  runtime itself) can answer.

For the first two fragments the matching-order theorem (0709.3692)
makes one interleaving authoritative, so
:func:`~repro.analysis.sequential.match_linear` decides
deadlock in linear time; :func:`decide_extraction` packages that as an
:class:`~repro.analysis.explore.ExploreResult` so ``repro verify`` can
take the fast path without touching the state graph.

Two classification entry points exist because two pipelines feed it:
the **AST path** (:func:`classify_source`) labels rank programs from
their symbolic term trees, with role-split/loop provenance for
``repro lint`` and ``repro classify``; the **extraction path**
(:func:`classify_extraction`) labels concrete extracted sequences and
gates the verify fast path.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.analysis.symbolic.prove import ProveResult

from repro.analysis.explore import ExploreResult, ExploreStats, Verdict
from repro.analysis.extract import Extraction
from repro.analysis.matchcore import runtime_steered
from repro.analysis.sequential import LinearMatchUnsupported, match_linear
from repro.analysis.symbolic.symexec import (
    Branch,
    ProgramSummary,
    Repeat,
    SymOp,
    Term,
    render_terms,
    summarize_module,
)
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, OpKind, is_recv_kind
from repro.mpi.ops import Operation


class Fragment(Enum):
    """Decidability label of one program / program set."""

    SEQ_DETERMINISTIC = "SEQ-DETERMINISTIC"
    SEQ_WILDCARD_FREE_LOOPS = "SEQ-WILDCARD-FREE-LOOPS"
    UNDECIDABLE = "UNDECIDABLE"

    @property
    def decidable(self) -> bool:
        return self is not Fragment.UNDECIDABLE


@dataclass
class ProgramClassification:
    """AST-path label of one rank program, with provenance."""

    name: str
    filename: str
    fragment: Fragment
    reason: str = ""
    reason_line: Optional[int] = None
    #: ``(rendered condition, line)`` of each rank-dependent branch.
    role_splits: List[Tuple[str, int]] = field(default_factory=list)
    #: ``(rendered trip count, line)`` of each symbolic loop term.
    loops: List[Tuple[str, int]] = field(default_factory=list)
    #: Human-readable term tree (empty when extraction failed).
    rendering: List[str] = field(default_factory=list)
    summary: Optional[ProgramSummary] = None
    #: Attached by the parameterized prover (``repro prove``): the
    #: all-p verdict, when one was computed for this program.
    proof: Optional["ProveResult"] = None

    @property
    def location(self) -> str:
        if self.reason_line is None:
            return self.filename
        return f"{self.filename}:{self.reason_line}"

    @property
    def proved_all_p(self) -> bool:
        """True when an attached proof certifies all ``p >= 2``."""
        return self.proof is not None and self.proof.is_proved


@dataclass
class SequenceClassification:
    """Extraction-path label of one concrete program set."""

    fragment: Fragment
    reason: str = ""

    @property
    def decidable(self) -> bool:
        return self.fragment.decidable


# ----------------------------------------------------------------------
# AST path
# ----------------------------------------------------------------------

def _scan_terms(
    terms: Sequence[Term],
    classification: ProgramClassification,
) -> Optional[Tuple[str, int]]:
    """Collect provenance; return (reason, line) on a wildcard."""
    wildcard: Optional[Tuple[str, int]] = None
    for term in terms:
        if isinstance(term, SymOp):
            if (
                term.peer is not None
                and term.peer.is_const
                and term.peer.c0 == ANY_SOURCE
                and (is_recv_kind(term.kind) or term.kind is OpKind.PROBE)
            ):
                found = (
                    f"{term.method} uses MPI_ANY_SOURCE",
                    term.lineno,
                )
                if wildcard is None:
                    wildcard = found
        elif isinstance(term, Repeat):
            classification.loops.append(
                (term.count.render(), term.lineno)
            )
            inner = _scan_terms(term.body, classification)
            if wildcard is None:
                wildcard = inner
        else:
            if term.cond.depends_on_rank():
                classification.role_splits.append(
                    (term.cond.render(), term.lineno)
                )
            for arm in (term.then, term.orelse):
                inner = _scan_terms(arm, classification)
                if wildcard is None:
                    wildcard = inner
    return wildcard


def classify_summary(summary: ProgramSummary) -> ProgramClassification:
    """Label one symbolic extraction result."""
    classification = ProgramClassification(
        name=summary.name,
        filename=summary.filename,
        fragment=Fragment.UNDECIDABLE,
        summary=summary,
    )
    if not summary.supported:
        classification.reason = summary.reason
        classification.reason_line = summary.reason_line
        return classification
    wildcard = _scan_terms(summary.terms, classification)
    classification.rendering = render_terms(summary.terms)
    if wildcard is not None:
        classification.reason, classification.reason_line = wildcard
        return classification
    if classification.loops:
        classification.fragment = Fragment.SEQ_WILDCARD_FREE_LOOPS
    else:
        classification.fragment = Fragment.SEQ_DETERMINISTIC
    return classification


def classify_module(
    tree: ast.Module, filename: str
) -> List[ProgramClassification]:
    """Classify every rank program found in a parsed module."""
    return [
        classify_summary(summary)
        for summary in summarize_module(tree, filename)
    ]


def classify_source(
    source: str, filename: str
) -> List[ProgramClassification]:
    """Classify every rank program in ``source``."""
    return classify_module(
        ast.parse(source, filename=filename), filename
    )


# ----------------------------------------------------------------------
# Extraction path (the verify fast-path gate)
# ----------------------------------------------------------------------

def classify_sequences(
    sequences: Sequence[Sequence[Operation]],
    *,
    exact: bool = True,
    wildcard_exact: bool = True,
    truncated: bool = False,
) -> SequenceClassification:
    """Label concrete per-rank sequences for the linear fast path.

    Extracted sequences have every loop already unrolled, so a
    decidable set is always ``SEQ-DETERMINISTIC`` here; the
    loop-bearing fragment only appears on the AST path.
    """
    if truncated:
        return SequenceClassification(
            Fragment.UNDECIDABLE,
            "extraction truncated: sequences are a prefix",
        )
    for seq in sequences:
        for op in seq:
            if op.is_wildcard_receive():
                return SequenceClassification(
                    Fragment.UNDECIDABLE,
                    f"wildcard receive at {op.describe()}"
                    f" (rank {op.rank}, t={op.ts})",
                )
            if runtime_steered(op.kind):
                # Their presence already forces ``Extraction.exact =
                # False``; checked here to name the offender.
                return SequenceClassification(
                    Fragment.UNDECIDABLE,
                    f"{op.kind.value} completion is runtime-steered",
                )
    # ANY_TAG on a *directed* receive only fabricates the status tag;
    # the non-overtaking rule still pins the matching uniquely, so
    # wildcard-exact sequences stay in the fragment. Inexact beyond
    # that (probe/test results steering control flow) does not.
    if not (exact or wildcard_exact):
        return SequenceClassification(
            Fragment.UNDECIDABLE,
            "extracted sequences are inexact beyond wildcard statuses",
        )
    return SequenceClassification(Fragment.SEQ_DETERMINISTIC)


def classify_extraction(extraction: Extraction) -> SequenceClassification:
    if not extraction.usable_for_matching:
        reason = (
            "extraction truncated: sequences are a prefix"
            if extraction.truncated
            else "extracted sequences are inexact beyond wildcard statuses"
        )
        return SequenceClassification(Fragment.UNDECIDABLE, reason)
    return classify_sequences(extraction.sequences)


def decide_sequences(
    sequences: Sequence[Sequence[Operation]],
    comms: CommRegistry,
    *,
    classification: Optional[SequenceClassification] = None,
    label: str = "",
) -> Optional[ExploreResult]:
    """Linear-time fragment verdict, or ``None`` outside the fragment.

    The returned result is shaped exactly like an explorer result —
    same verdict enum, wait-for conditions, detection report, and
    replayable witness — but ``stats.states_explored`` is 0: no state
    graph was built. ``fragment`` records the label that justified the
    fast path.
    """
    if classification is None:
        classification = classify_sequences(sequences)
    if not classification.decidable:
        return None
    try:
        lin = match_linear(sequences, comms, label=label)
    except LinearMatchUnsupported:
        return None
    verdict = (
        Verdict.DEADLOCK_POSSIBLE
        if lin.has_deadlock
        else Verdict.DEADLOCK_FREE
    )
    return ExploreResult(
        verdict=verdict,
        stats=ExploreStats(transitions=lin.ops_processed),
        witness=lin.witness,
        deadlocked=lin.deadlocked,
        witness_cycle=lin.witness_cycle,
        blocked_ops=lin.blocked_ops,
        conditions=lin.conditions,
        graph=lin.graph,
        detection=lin.detection,
        reason=(
            f"decided by linear wildcard-free matching "
            f"({classification.fragment.value})"
        ),
        fragment=classification.fragment.value,
    )


def decide_extraction(
    extraction: Extraction, *, label: str = ""
) -> Optional[ExploreResult]:
    """Fast-path verdict for an extraction, or ``None``."""
    return decide_sequences(
        extraction.sequences,
        extraction.comms,
        classification=classify_extraction(extraction),
        label=label,
    )
