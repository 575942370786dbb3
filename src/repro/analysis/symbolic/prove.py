"""The parameterized prover: deadlock-freedom for **all** ``p >= 2``.

``repro verify`` answers for one process count; this module answers
for every process count at once, or finds the minimal failing one:

1. **Gate on the classifier.** Only fragments the classifier admits
   (``SEQ-DETERMINISTIC`` / ``SEQ-WILDCARD-FREE-LOOPS``) are eligible
   for a ``PROVED-ALL-P`` verdict — for those the matching-order
   theorem makes one interleaving authoritative, so per-size deadlock
   is decidable in linear time and the question "for all p" is
   well-posed. ``UNDECIDABLE`` fragments are *never* proved.

2. **Admit to the uniform-affine certificate fragment** and derive
   the confirmation window (:func:`.paramatch.admit_terms`).

3. **Solve the channel equations** symbolically
   (:func:`.paramatch.analyze_channels`): every send/recv/collective
   site becomes always-matched / never-matched / p-dependent with an
   exact eventually-periodic :class:`~.solver.SizeSet` of unmatched
   sizes. The p-dependent residues yield the falsifier's candidate
   process counts.

4. **Falsify through the authoritative path.** Candidate sizes — and,
   for soundness of the certificate, *every* size in the window — are
   confirmed via :func:`~repro.analysis.sequential.match_linear` in
   ascending order, so the first deadlock found is the minimal
   counterexample ``p`` and carries a standard replayable witness
   schedule.

5. **Extrapolate with verification.** If every window size is
   deadlock-free and every channel's behavior passed the periodicity
   verification, the verdict is ``PROVED-ALL-P`` with a certificate
   recording the window, the constant/modulus frame, and the channel
   table. Admission or periodicity failures fall to ``UNKNOWN`` —
   after the falsifier has swept a default window anyway ("prove only
   on admitted fragments, falsify anywhere").
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.symbolic.fragments import (
    Fragment,
    ProgramClassification,
    classify_summary,
)
from repro.analysis.sequential import (
    LinearMatchUnsupported,
    match_linear,
)
from repro.analysis.symbolic.paramatch import (
    DEFAULT_WINDOW_HI,
    Admission,
    ChannelAnalysis,
    ChannelBudgetExceeded,
    admit_terms,
    analyze_channels,
)
from repro.analysis.symbolic.solver import MIN_SIZE, PeriodicityError
from repro.analysis.symbolic.symexec import (
    InstantiationError,
    ProgramSummary,
    instantiate,
    summarize_module,
)
from repro.analysis.witness import WitnessSchedule
from repro.mpi.communicator import CommRegistry
from repro.obs.metrics import MetricsRegistry
from repro.programfile import ProgramFile


class ProveVerdict(Enum):
    """Outcome of one parameterized proof attempt."""

    #: Deadlock-free for every process count ``p >= 2``.
    PROVED_ALL_P = "PROVED-ALL-P"
    #: A concrete deadlocking size exists; ``min_p`` is minimal.
    REFUTED = "REFUTED"
    #: In a decidable fragment but outside the certificate fragment
    #: (or the certificate construction failed); per-size ``verify``
    #: still answers.
    UNKNOWN = "UNKNOWN"
    #: The classifier rejected the program; nothing is provable.
    UNDECIDABLE = "UNDECIDABLE"


@dataclass
class ProofCertificate:
    """What a ``PROVED-ALL-P`` verdict actually rests on."""

    #: Confirmation window ``[2, window_hi)`` swept via match_linear.
    window_hi: int
    #: Largest constant offset in the admitted terms.
    max_const: int
    #: lcm of the residue-split moduli.
    modulus_lcm: int
    #: Stabilization threshold of the periodic extrapolation.
    threshold: int
    #: Channel table (always/never/p-dependent per site).
    channels: ChannelAnalysis = field(default_factory=ChannelAnalysis)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "window": [MIN_SIZE, self.window_hi],
            "max_const": self.max_const,
            "modulus_lcm": self.modulus_lcm,
            "threshold": self.threshold,
            "channels": [
                channel.to_json_dict()
                for channel in self.channels.channels
            ],
        }


@dataclass
class ProveResult:
    """The parameterized verdict for one rank program."""

    name: str
    filename: str
    verdict: ProveVerdict
    fragment: Fragment
    reason: str = ""
    #: Minimal failing process count (REFUTED only).
    min_p: Optional[int] = None
    #: Replayable schedule witnessing the deadlock at ``min_p``.
    witness: Optional[WitnessSchedule] = None
    deadlocked: Tuple[int, ...] = ()
    witness_cycle: Tuple[int, ...] = ()
    #: True when the falsifier's residue candidates predicted
    #: ``min_p`` before the sweep confirmed it.
    predicted: bool = False
    sizes_checked: Tuple[int, ...] = ()
    linear_ops: int = 0
    certificate: Optional[ProofCertificate] = None
    classification: Optional[ProgramClassification] = None

    @property
    def is_proved(self) -> bool:
        return self.verdict is ProveVerdict.PROVED_ALL_P

    def to_json_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "program": self.name,
            "verdict": self.verdict.value,
            "fragment": self.fragment.value,
            "reason": self.reason,
            "min_p": self.min_p,
            "predicted": self.predicted,
            "sizes_checked": list(self.sizes_checked),
            "linear_ops": self.linear_ops,
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json_dict()
        if self.witness is not None:
            doc["witness"] = self.witness.to_json_dict()
        return doc


@dataclass
class _SweepOutcome:
    min_p: Optional[int] = None
    witness: Optional[WitnessSchedule] = None
    deadlocked: Tuple[int, ...] = ()
    witness_cycle: Tuple[int, ...] = ()
    failure: str = ""
    sizes_checked: Tuple[int, ...] = ()
    linear_ops: int = 0


def _sweep(
    summary: ProgramSummary, sizes: Sequence[int]
) -> _SweepOutcome:
    """Confirm each candidate size through ``match_linear``.

    Ascending order makes the first deadlock the minimal failing
    ``p``. A size where instantiation or linear matching fails stops
    the sweep (the program cannot be certified past it).
    """
    outcome = _SweepOutcome()
    checked: List[int] = []
    for size in sizes:
        try:
            sequences = [
                instantiate(
                    summary.terms, rank, size,
                    filename=summary.filename,
                )
                for rank in range(size)
            ]
            lin = match_linear(
                sequences,
                CommRegistry(size),
                label=f"{summary.name}@p={size}",
            )
        except InstantiationError as exc:
            outcome.failure = f"instantiation fails at p={size}: {exc}"
            break
        except LinearMatchUnsupported as exc:
            outcome.failure = (
                f"linear matching unsupported at p={size}: {exc}"
            )
            break
        checked.append(size)
        outcome.linear_ops += lin.ops_processed
        if lin.has_deadlock:
            outcome.min_p = size
            outcome.witness = lin.witness
            outcome.deadlocked = lin.deadlocked
            outcome.witness_cycle = lin.witness_cycle
            break
    outcome.sizes_checked = tuple(checked)
    return outcome


def _count_channels(
    metrics: Optional[MetricsRegistry], channels: ChannelAnalysis
) -> None:
    if metrics is None:
        return
    metrics.inc("prove.channels.always", channels.count("always-matched"))
    metrics.inc("prove.channels.never", channels.count("never-matched"))
    metrics.inc(
        "prove.channels.p_dependent", channels.count("p-dependent")
    )


def prove_summary(
    summary: ProgramSummary,
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> ProveResult:
    """Decide deadlock-freedom for all ``p >= 2`` for one program."""
    if metrics is not None:
        metrics.inc("prove.runs")
    classification = classify_summary(summary)
    result = ProveResult(
        name=summary.name,
        filename=summary.filename,
        verdict=ProveVerdict.UNKNOWN,
        fragment=classification.fragment,
        classification=classification,
    )
    classification.proof = result

    if not classification.fragment.decidable:
        # Soundness gate: nothing outside the classifier-admitted
        # fragments is ever PROVED (or even falsified here — the
        # linear matcher has no authority over wildcard programs).
        result.verdict = ProveVerdict.UNDECIDABLE
        result.reason = classification.reason
        if metrics is not None:
            metrics.inc("prove.undecidable")
        return result

    admission = admit_terms(summary.terms)
    channels: Optional[ChannelAnalysis] = None
    channel_failure = ""
    if admission.admitted:
        try:
            channels = analyze_channels(summary.terms, admission)
        except PeriodicityError as exc:
            channel_failure = (
                f"channel behavior is not eventually periodic: "
                f"{exc.message}"
            )
        except ChannelBudgetExceeded as exc:
            channel_failure = str(exc)

    # Falsify anywhere: admitted or not, sweep candidate sizes through
    # the authoritative linear matcher. Residue candidates from the
    # channel table only *predict* the counterexample — the ascending
    # sweep is what confirms it and makes it minimal.
    candidates: Tuple[int, ...] = (
        channels.candidate_sizes if channels is not None else ()
    )
    sizes = (
        admission.sizes
        if admission.admitted
        else tuple(range(MIN_SIZE, DEFAULT_WINDOW_HI))
    )
    sweep = _sweep(summary, sizes)
    result.sizes_checked = sweep.sizes_checked
    result.linear_ops = sweep.linear_ops
    if metrics is not None:
        metrics.inc("prove.sizes_checked", len(sweep.sizes_checked))
        metrics.inc("prove.linear_ops", sweep.linear_ops)
    if channels is not None:
        _count_channels(metrics, channels)

    if sweep.min_p is not None:
        result.verdict = ProveVerdict.REFUTED
        result.min_p = sweep.min_p
        result.witness = sweep.witness
        result.deadlocked = sweep.deadlocked
        result.witness_cycle = sweep.witness_cycle
        result.predicted = sweep.min_p in candidates
        result.reason = (
            f"deadlock confirmed by linear matching at p={sweep.min_p} "
            f"(minimal failing process count)"
        )
        if metrics is not None:
            metrics.inc("prove.refuted")
        return result

    if sweep.failure:
        result.reason = sweep.failure
        if metrics is not None:
            metrics.inc("prove.unknown")
        return result

    if not admission.admitted:
        result.reason = (
            f"{admission.reason}; deadlock-free at the swept sizes "
            f"p in 2..{sizes[-1]} but no all-p certificate"
        )
        if metrics is not None:
            metrics.inc("prove.unknown")
        return result

    if channels is None:
        result.reason = (
            f"{channel_failure}; deadlock-free at the swept sizes "
            f"p in 2..{sizes[-1]} but no all-p certificate"
        )
        if metrics is not None:
            metrics.inc("prove.unknown")
        return result

    result.verdict = ProveVerdict.PROVED_ALL_P
    result.certificate = ProofCertificate(
        window_hi=admission.window_hi,
        max_const=admission.max_const,
        modulus_lcm=admission.modulus_lcm,
        threshold=admission.threshold,
        channels=channels,
    )
    result.reason = (
        f"deadlock-free for all p >= 2: every size in "
        f"[2, {admission.window_hi}) confirmed by linear matching and "
        f"channel behavior verified periodic "
        f"(threshold {admission.threshold}, "
        f"modulus lcm {admission.modulus_lcm})"
    )
    if metrics is not None:
        metrics.inc("prove.proved")
    return result


def prove_module(
    tree: ast.Module,
    filename: str,
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> List[ProveResult]:
    """Prove every rank program in a parsed module."""
    return [
        prove_summary(summary, metrics=metrics)
        for summary in summarize_module(tree, filename)
    ]


def prove_source(
    source: str,
    filename: str,
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> List[ProveResult]:
    """Parse ``source`` and prove each of its rank programs."""
    return prove_module(
        ast.parse(source, filename=filename), filename, metrics=metrics
    )


def prove_path(
    path: str,
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> List[ProveResult]:
    """Prove every rank program in a source file. The file is read by
    :class:`repro.programfile.ProgramFile`, whose ``ProgramFileError``
    says where it does not parse."""
    tree = ProgramFile(str(path)).tree
    return prove_module(tree, str(path), metrics=metrics)
