"""Interprocedural symbolic extraction and decidable-fragment verdicts.

Layers (each a module, bottom-up):

* :mod:`.sexpr` — the affine symbolic value domain and conditions;
* :mod:`.cfg` — the module call graph (helpers, recursion, constants);
* :mod:`.symexec` — abstract interpretation of rank programs into
  rank-parametric term trees, plus concrete instantiation;
* :mod:`.fragments` — the ``SEQ-DETERMINISTIC`` /
  ``SEQ-WILDCARD-FREE-LOOPS`` / ``UNDECIDABLE`` classifier and the
  verify fast-path entry points;
* :mod:`.solver` — affine congruence/interval solving over ``rank``
  and ``size`` via eventually-periodic size sets;
* :mod:`.paramatch` — uniform-affine admission and symbolic channel
  matching (always / never / p-dependent per site);
* :mod:`.prove` — the parameterized prover: ``PROVED-ALL-P``,
  ``REFUTED`` with the minimal failing ``p`` and a replayable
  witness, or an honest ``UNKNOWN``/``UNDECIDABLE``.
"""
from repro.analysis.symbolic.fragments import (
    Fragment,
    ProgramClassification,
    SequenceClassification,
    classify_extraction,
    classify_module,
    classify_sequences,
    classify_source,
    classify_summary,
    decide_extraction,
    decide_sequences,
)
from repro.analysis.sequential import (
    LinearMatchResult,
    LinearMatchUnsupported,
    match_linear,
)
from repro.analysis.symbolic.paramatch import (
    Admission,
    ChannelAnalysis,
    ChannelVerdict,
    admit_terms,
    analyze_channels,
)
from repro.analysis.symbolic.prove import (
    ProofCertificate,
    ProveResult,
    ProveVerdict,
    prove_module,
    prove_path,
    prove_source,
    prove_summary,
)
from repro.analysis.symbolic.solver import (
    MIN_SIZE,
    PeriodicityError,
    SizeSet,
    System,
    suggest_bounds,
)
from repro.analysis.symbolic.symexec import (
    InstantiationError,
    ProgramSummary,
    SymbolicUnsupported,
    instantiate,
    render_terms,
    summarize_module,
    summarize_program,
    summarize_source,
)

__all__ = [
    "Admission",
    "ChannelAnalysis",
    "ChannelVerdict",
    "Fragment",
    "InstantiationError",
    "LinearMatchResult",
    "LinearMatchUnsupported",
    "MIN_SIZE",
    "PeriodicityError",
    "ProgramClassification",
    "ProgramSummary",
    "ProofCertificate",
    "ProveResult",
    "ProveVerdict",
    "SequenceClassification",
    "SizeSet",
    "SymbolicUnsupported",
    "System",
    "admit_terms",
    "analyze_channels",
    "classify_extraction",
    "classify_module",
    "classify_sequences",
    "classify_source",
    "classify_summary",
    "decide_extraction",
    "decide_sequences",
    "instantiate",
    "match_linear",
    "prove_module",
    "prove_path",
    "prove_source",
    "prove_summary",
    "render_terms",
    "summarize_module",
    "summarize_program",
    "summarize_source",
    "suggest_bounds",
]
