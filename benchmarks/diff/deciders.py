"""Matrix: the three static deciders (``PYTHONPATH=src``).

A change to `repro.analysis.matchcore` or one of its drivers must leave
every verdict, counter and witness where it was. Per
`safe_program_set`/`mutate_program_set` seed, wildcards off and on:
`match_linear` (verdict, deadlocked, cycle, conditions, ops processed,
witness), `explore_sequences` with and without the reduction (verdict,
deadlocked, blocked ops, conditions, all five `ExploreStats` counters,
witness schedule and pinnings), `match_sequences` (applicable,
deadlocked, cycle, blocked ops, finished); then `lint_path` and
`verify_path` findings on every shipped example. Wait-for conditions
compare by arc set, so a `GroupClause` equals its expansion.
"""
import glob

import harness

SEEDS = range(500)
MAX_STATES = 20_000


def _arcs(cond):
    clauses = []
    for clause in cond.clauses:
        if hasattr(clause, "ranks"):
            clauses.append(sorted((k, clause.reason) for k in clause.ranks()))
        else:
            clauses.append(sorted({(t.rank, t.reason) for t in clause}))
    return [cond.rank, list(cond.op_ref), cond.op_description, sorted(clauses)]


def _conditions(conditions):
    return [_arcs(conditions[rank]) for rank in sorted(conditions)]


def _refs(blocked_ops):
    return sorted([rank, list(ref)] for rank, ref in blocked_ops.items())


def _witness(witness):
    if witness is None:
        return None
    return {
        "schedule": list(witness.schedule),
        "pinnings": sorted([list(k), v] for k, v in witness.pinnings.items()),
        "deadlocked": list(witness.deadlocked),
        "blocked_ops": _refs(witness.blocked_ops),
        "cycle": list(witness.witness_cycle),
    }


def entries():
    from repro.analysis import (
        ExplorationUnsupported,
        LinearMatchUnsupported,
        explore_sequences,
        extract_programs,
        match_linear,
        match_sequences,
    )

    def guarded(fn):
        # The public name an error is caught under, whatever class that
        # name is bound to in this checkout.
        try:
            return fn()
        except LinearMatchUnsupported as exc:
            return {"error": "LinearMatchUnsupported", "message": str(exc)}
        except ExplorationUnsupported as exc:
            return {"error": "ExplorationUnsupported", "message": str(exc)}

    def linear(ext):
        r = match_linear(ext.sequences, ext.comms)
        return {
            "has_deadlock": r.has_deadlock,
            "deadlocked": list(r.deadlocked),
            "cycle": list(r.witness_cycle),
            "conditions": _conditions(r.conditions),
            "blocked_ops": _refs(r.blocked_ops),
            "ops_processed": r.ops_processed,
            "witness": _witness(r.witness),
        }

    def explored(ext, por):
        r = explore_sequences(
            ext.sequences, ext.comms, por=por, max_states=MAX_STATES
        )
        s = r.stats
        return {
            "verdict": r.verdict.value,
            "deadlocked": list(r.deadlocked),
            "cycle": list(r.witness_cycle),
            "blocked_ops": _refs(r.blocked_ops),
            "conditions": _conditions(r.conditions),
            "stats": [
                s.states_explored, s.states_pruned, s.memo_hits,
                s.transitions, s.max_depth_reached,
            ],
            "witness": _witness(r.witness),
            "reason": r.reason,
        }

    def sequential(ext):
        r = match_sequences(ext.sequences, ext.comms)
        return {
            "applicable": r.applicable,
            "deadlocked": list(r.deadlocked),
            "cycle": list(r.witness_cycle),
            "blocked_ops": sorted(
                [rank, list(op.ref)] for rank, op in r.blocked_ops.items()
            ),
            "finished": sorted(r.finished),
            "skipped_check": r.skipped_check,
            "fragment": r.fragment,
        }

    for label, generated in harness.random_program_sets(SEEDS):
        ext = extract_programs(generated.programs())
        yield label, {
            "linear": guarded(lambda: linear(ext)),
            "por": guarded(lambda: explored(ext, True)),
            "naive": guarded(lambda: explored(ext, False)),
            "sequential": guarded(lambda: sequential(ext)),
        }
    for example in sorted(glob.glob("examples/*.py")):
        yield example, harness.example_findings(
            example, lambda p: [_witness(p.witness)]
        )
