#!/usr/bin/env python3
"""Differential dump of the three static deciders, for two checkouts.

A change to `repro.analysis.matchcore` or one of its drivers must leave
every verdict, counter and witness where it was. This script is the
check: run ``dump`` once in each checkout (from its root, so
``examples/`` resolves), then ``compare`` the two files.

    PYTHONPATH=src python benchmarks/diff_deciders.py dump /tmp/a.json
    python benchmarks/diff_deciders.py compare /tmp/parent.json /tmp/a.json

Per `safe_program_set`/`mutate_program_set` seed, wildcards off and on:
`match_linear` (verdict, deadlocked, cycle, conditions, ops processed,
witness), `explore_sequences` with and without the reduction (verdict,
deadlocked, blocked ops, conditions, all five `ExploreStats` counters,
witness schedule and pinnings), `match_sequences` (applicable,
deadlocked, cycle, blocked ops, finished); then `lint_path` and
`verify_path` findings on every shipped example. Wait-for conditions
compare by arc set, so a `GroupClause` equals its expansion.
"""
import glob
import json
import sys

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


def _findings(report):
    return [
        [f.check, f.severity.name, f.rank, f.message,
         list(f.op) if f.op else None, f.location]
        for f in report.findings
    ]


def dump(path):
    from repro.analysis import (
        ExplorationUnsupported,
        LinearMatchUnsupported,
        explore_sequences,
        extract_programs,
        lint_path,
        match_linear,
        match_sequences,
        verify_path,
    )
    from repro.util.errors import ReproError
    from repro.workloads.randomgen import (
        mutate_program_set,
        safe_program_set,
    )

    def guarded(fn):
        try:
            return fn()
        except ReproError as exc:
            # The public name it is caught under, whatever class that
            # name is bound to in this checkout.
            if isinstance(exc, LinearMatchUnsupported):
                return {"error": "LinearMatchUnsupported", "message": str(exc)}
            if isinstance(exc, ExplorationUnsupported):
                return {"error": "ExplorationUnsupported", "message": str(exc)}
            raise

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

    out = {}
    for wildcards in (False, True):
        for seed in SEEDS:
            generated = safe_program_set(
                2 + seed % 4, 8 + seed % 9, seed, allow_wildcards=wildcards
            )
            if seed % 2:
                generated = mutate_program_set(
                    generated, seed + 10_000, mutations=1 + seed % 3
                )
            ext = extract_programs(generated.programs())
            out[f"{'wild' if wildcards else 'det'}-{seed}"] = {
                "linear": guarded(lambda: linear(ext)),
                "por": guarded(lambda: explored(ext, True)),
                "naive": guarded(lambda: explored(ext, False)),
                "sequential": guarded(lambda: sequential(ext)),
            }
    for example in sorted(glob.glob("examples/*.py")):
        lint = lint_path(example)
        verify = verify_path(example)
        out[example] = {
            "lint": _findings(lint),
            "lint_notes": list(lint.notes),
            "verify": _findings(verify) + [
                [p.label, p.verdict_name, p.skipped_reason, _findings(p),
                 _witness(p.witness)]
                for p in verify.programs
            ],
        }
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, default=str)
    print(f"{len(out)} entries -> {path}")
    return 0


def compare(left_path, right_path):
    with open(left_path) as fh:
        left = json.load(fh)
    with open(right_path) as fh:
        right = json.load(fh)
    diffs = []

    def walk(a, b, where):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                walk(a.get(key), b.get(key), where + [key])
        elif a != b:
            diffs.append((where, a, b))

    walk(left, right, [])
    print(f"{len(left)} entries compared; {len(diffs)} differences")
    for where, a, b in diffs:
        print("/".join(map(str, where)))
        print("   left: ", json.dumps(a)[:240])
        print("   right:", json.dumps(b)[:240])
    return 1 if diffs else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        return dump(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
