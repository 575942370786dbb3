"""Fragment classifier + linear matcher must agree with the explorer.

The fast path in ``repro verify`` stands on two claims:

* **soundness of the label** — whenever the extraction-path classifier
  says a program set is in a decidable fragment, the O(n) linear
  matcher accepts it and its verdict (and blamed-rank set) equals the
  full match-set exploration's; and
* **honesty of the refusal** — whenever the classifier says
  UNDECIDABLE for a wildcard, the linear matcher also refuses, so the
  driver can never take the fast path on an input it would get wrong.

Random deterministic program sets (plus deadlock-introducing
mutations) exercise the first claim; random wildcard sets exercise the
second. Divergence count must be exactly zero. Both deciders are
drivers of one matching core, so every decided set is also run on the
virtual runtime under strict ``b`` — the independent oracle — and must
deadlock exactly the ranks they blame.
"""
import pytest

from repro.analysis import (
    ExplorationUnsupported,
    Verdict,
    explore_sequences,
    extract_programs,
)
from repro.analysis.symbolic import (
    Fragment,
    LinearMatchUnsupported,
    classify_extraction,
    decide_extraction,
    match_linear,
)
from repro.core.waitstate import analyze_trace
from repro.mpi.blocking import BlockingSemantics
from repro.workloads.randomgen import mutate_program_set, safe_program_set
from tests.conftest import run_strict

SAFE_SEEDS = range(40)
MUTATED_SEEDS = range(30)
WILDCARD_SEEDS = range(12)
MAX_STATES = 20_000

_agreements = {"free": 0, "deadlock": 0, "skipped": 0}


def _generate(seed, *, wildcards=False):
    p = 2 + seed % 3
    events = 8 + seed % 7
    return safe_program_set(p, events, seed, allow_wildcards=wildcards)


def _mutate(seed):
    return mutate_program_set(
        _generate(seed), seed + 20_000, mutations=1 + seed % 3
    )


def _runtime_deadlocked(generated):
    res = run_strict(generated.programs())
    if not res.deadlocked:
        return []
    analysis = analyze_trace(
        res.matched,
        semantics=BlockingSemantics.strict(),
        generate_outputs=False,
    )
    return sorted(analysis.deadlocked)


def _check_agreement(generated):
    """One random program set through both deciders."""
    ext = extract_programs(generated.programs())
    classification = classify_extraction(ext)
    if not classification.decidable:
        # Deterministic generators stay wildcard-free; the only honest
        # refusals here are truncation/inexactness artifacts.
        _agreements["skipped"] += 1
        return
    assert classification.fragment is Fragment.SEQ_DETERMINISTIC
    try:
        exp = explore_sequences(ext.sequences, ext.comms,
                                max_states=MAX_STATES)
    except ExplorationUnsupported:
        # Structurally broken (e.g. a mutation produced mismatched
        # collective waves): the linear matcher must refuse identically.
        with pytest.raises(LinearMatchUnsupported):
            match_linear(ext.sequences, ext.comms)
        _agreements["skipped"] += 1
        return
    if exp.verdict is Verdict.BOUND_EXCEEDED:
        _agreements["skipped"] += 1
        return
    lin = match_linear(ext.sequences, ext.comms)
    assert lin.has_deadlock == (
        exp.verdict is Verdict.DEADLOCK_POSSIBLE
    ), f"verdict divergence on seed {generated.seed}"
    assert sorted(lin.deadlocked) == sorted(exp.deadlocked), (
        f"blame divergence on seed {generated.seed}"
    )
    # The two deciders drive one step function, so their agreement
    # checks worklist order against DFS order, not the semantics. The
    # engine shares no code with either: the decided set must deadlock
    # the strict runtime on exactly the blamed ranks.
    assert sorted(lin.deadlocked) == _runtime_deadlocked(generated), (
        f"engine divergence on seed {generated.seed}"
    )
    # The packaged fast-path result carries the same verdict and never
    # touches the state graph.
    fast = decide_extraction(ext)
    assert fast is not None
    assert fast.verdict is exp.verdict
    assert fast.stats.states_explored == 0
    assert fast.fragment == "SEQ-DETERMINISTIC"
    if lin.has_deadlock:
        _agreements["deadlock"] += 1
    else:
        _agreements["free"] += 1


@pytest.mark.parametrize("seed", SAFE_SEEDS)
def test_safe_program_sets_agree(seed):
    _check_agreement(_generate(seed))


@pytest.mark.parametrize("seed", MUTATED_SEEDS)
def test_mutated_program_sets_agree(seed):
    _check_agreement(_mutate(seed))


@pytest.mark.parametrize("seed", WILDCARD_SEEDS)
def test_wildcard_sets_are_refused_by_both_gate_and_matcher(seed):
    generated = _generate(seed, wildcards=True)
    if not generated.uses_wildcards:
        pytest.skip("seed rolled no wildcard receives")
    ext = extract_programs(generated.programs())
    classification = classify_extraction(ext)
    assert not classification.decidable
    assert decide_extraction(ext) is None
    if ext.exact or ext.wildcard_exact:
        with pytest.raises(LinearMatchUnsupported):
            match_linear(ext.sequences, ext.comms)


def test_zzz_coverage_floor():
    """Runs last (alphabetical): the suite must have actually decided
    ≥60 program sets with both verdicts represented — otherwise the
    agreement claims above are vacuous."""
    decided = _agreements["free"] + _agreements["deadlock"]
    assert decided >= 60, _agreements
    assert _agreements["free"] >= 10, _agreements
    assert _agreements["deadlock"] >= 5, _agreements
