"""Linting a recorded trace must agree with the run that recorded it.

``repro lint run.json`` replays the recorded sequences with wildcard
receives pinned to the matches the run observed and completions
following the recorded outcome
(``match_sequences(..., resolve_observed=True)``). The strict runtime
analysis of the same trace is the ground truth: both look at one
matching under the strict blocking semantics ``b``, so the deadlocked
rank sets must be equal — on wildcard-bearing random program sets,
safe and mutated, whatever the run's own verdict was.
"""
from repro.analysis import match_sequences
from repro.core.waitstate import analyze_trace
from repro.mpi.blocking import BlockingSemantics
from repro.util.errors import ReproError
from repro.workloads.randomgen import mutate_program_set, safe_program_set
from tests.conftest import run_strict

SEEDS = range(300)


def _recorded(seed):
    """(lint result, runtime deadlocked set) of one strict run; None
    when the engine rejects the programs."""
    generated = safe_program_set(
        2 + seed % 4, 10 + seed % 9, seed, allow_wildcards=True
    )
    if seed % 2:
        generated = mutate_program_set(
            generated, seed + 10_000, mutations=1 + seed % 3
        )
    try:
        matched = run_strict(generated.programs()).matched
    except ReproError:
        return None
    sequences = [
        list(matched.trace.sequence(r))
        for r in range(matched.trace.num_processes)
    ]
    static = match_sequences(sequences, matched.comms, resolve_observed=True)
    runtime = analyze_trace(
        matched, semantics=BlockingSemantics.strict(), generate_outputs=False
    )
    return static, frozenset(runtime.deadlocked)


def test_linted_traces_agree_with_the_runtime_analysis():
    applicable = deadlocks = 0
    for seed in SEEDS:
        outcome = _recorded(seed)
        if outcome is None:
            continue
        static, runtime = outcome
        if not static.applicable:
            # A wildcard that never matched (its rank hung in it) has
            # no observation to pin it to.
            continue
        applicable += 1
        deadlocks += bool(runtime)
        assert frozenset(static.deadlocked) == runtime, (
            f"lint says {static.deadlocked}, the strict runtime "
            f"{sorted(runtime)} for seed {seed}"
        )
    assert applicable >= 250, applicable
    assert deadlocks >= 80, deadlocks
