"""The reduced search must decide what the naive search decides.

`explore_sequences(por=True)` prunes by two static rules derived from
one may-send table (DESIGN §10): a wildcard with at most one possible
sender is treated as a directed receive, and rank clusters that never
communicate are explored one after another. This suite is the
differential check of both against ``por=False`` on random wildcard
program sets:

* single sets from :func:`safe_program_set` / :func:`mutate_program_set`
  (usually one cluster, so mostly rule one and the safe-singleton
  chain);
* two such sets glued side by side — the second shifted past the
  first's ranks, world collectives turned into no-ops so the halves
  never meet — which is what makes clusters form and puts a deadlock in
  one cluster next to live transitions in another.

Verdicts must be equal, and every ``deadlock-possible`` witness found
by the *reduced* search must replay on the real engine.
"""
from dataclasses import replace

from repro.analysis import (
    ExplorationUnsupported,
    Verdict,
    explore_extraction,
    extract_programs,
    replay_witness,
)
from repro.analysis.explore import _Model
from repro.workloads.randomgen import (
    GeneratedPrograms,
    mutate_program_set,
    safe_program_set,
)

SINGLE_SEEDS = range(70)
GLUED_SEEDS = range(150)
MAX_STATES = 1_500
_COLLECTIVES = ("barrier", "allreduce", "reduce", "bcast")


def _one(seed):
    generated = safe_program_set(
        2 + seed % 3, 3 + seed % 4, seed, allow_wildcards=True
    )
    if seed % 2:
        generated = mutate_program_set(
            generated, seed + 10_000, mutations=1 + seed % 3
        )
    return generated


def _isolated(action, shift):
    """``action`` for a rank ``shift`` places up, world collectives
    dropped."""
    if action.kind in _COLLECTIVES:
        return replace(action, kind="noop")
    if action.peer is not None:
        return replace(action, peer=action.peer + shift)
    return action


def _glue(left, right):
    """``left`` and ``right`` as one program set with no message, and no
    collective, between the halves."""

    def half(generated, shift):
        return [
            [_isolated(action, shift) for action in script]
            for script in generated.scripts
        ]

    return GeneratedPrograms(
        scripts=half(left, 0) + half(right, left.num_ranks),
        safe_by_construction=False,
        uses_wildcards=left.uses_wildcards or right.uses_wildcards,
        seed=left.seed,
    )


def _sets():
    for seed in SINGLE_SEEDS:
        yield f"single-{seed}", _one(seed)
    for seed in GLUED_SEEDS:
        yield f"glued-{seed}", _glue(_one(seed), _one(seed + 500))


def _clusters(ext):
    model = _Model(ext.sequences, ext.comms)
    model.build_por_tables()
    return len(set(model.cluster))


def test_reduced_and_naive_searches_agree_and_witnesses_replay():
    verdicts = {Verdict.DEADLOCK_FREE: 0, Verdict.DEADLOCK_POSSIBLE: 0}
    multi_cluster = 0
    for name, generated in _sets():
        ext = extract_programs(generated.programs())
        if ext.truncated or not (ext.exact or ext.wildcard_exact):
            continue
        try:
            naive = explore_extraction(
                ext, por=False, max_states=MAX_STATES
            )
            reduced = explore_extraction(
                ext, por=True, max_states=MAX_STATES
            )
        except ExplorationUnsupported:
            continue
        if naive.verdict is Verdict.BOUND_EXCEEDED:
            # Nothing to compare against; the reduced search may well
            # have decided it.
            continue
        assert reduced.verdict is naive.verdict, name
        if reduced.verdict is Verdict.DEADLOCK_POSSIBLE:
            outcome = replay_witness(
                generated.programs(), reduced.witness
            )
            assert outcome.confirmed, f"{name}: {outcome.reason}"
        else:
            # A full search of a subgraph (a deadlock search stops at
            # the first hit, wherever its order puts it).
            assert (
                reduced.stats.states_explored
                <= naive.stats.states_explored
            ), name
        verdicts[reduced.verdict] += 1
        multi_cluster += _clusters(ext) > 1
    assert sum(verdicts.values()) >= 150, verdicts
    assert verdicts[Verdict.DEADLOCK_FREE] >= 30, verdicts
    assert verdicts[Verdict.DEADLOCK_POSSIBLE] >= 30, verdicts
    assert multi_cluster >= 30, multi_cluster
