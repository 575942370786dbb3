#!/usr/bin/env python3
"""Differential dump of everything that records calls, for two checkouts.

A change to `repro.runtime.recording` or to one of its three callers
(the engine, `extract_programs`, `instantiate`) must leave every
recorded sequence where it was. This script is the check: run ``dump``
once in each checkout (from its root, so ``examples/`` and ``tests/``
resolve and call-site locations read the same; a parent that predates
this script needs it and ``tests/property/test_recorder_agreement.py``
copied in), then ``compare``.

    PYTHONPATH=src:. python benchmarks/diff_recorders.py dump /tmp/a.json
    python benchmarks/diff_recorders.py compare /tmp/parent.json /tmp/a.json

(a) SHA-256 of the `save_trace` bytes of `run_programs` at three engine
    seeds, or the error it raised, for `stress_programs(64)`,
    `lammps_skeleton_programs(16)`, `wildcard_deadlock_programs(16)`,
    `fig2a`/`fig2b`, the agreement suite's program using communicators,
    persistent requests, `sendrecv` and PROC_NULL, the five persistent-request
    misuse programs, two persistent-request idioms through a stubbed
    `Test`/`Waitany`, and `safe_program_set`/`mutate_program_set` seeds
    0-199 (odd seeds mutated) with wildcards off and on;
(b) `extract_programs` on the same sets: every field of every
    operation, `exact`, `wildcard_exact`, `truncated`, notes;
(c) `instantiate()` at p = 2..9 on the four sources of
    `tests/unit/test_symbolic.py` and on every `examples/*.py` program
    the symbolic interpreter admits;
(d) `lint_path`/`verify_path` findings and the `classify_source`
    labels of every `examples/*.py`.
"""
import dataclasses
import glob
import hashlib
import json
import os
import sys
import tempfile

SEEDS = range(200)
ENGINE_SEEDS = (0, 1, 2)


def start_on_active(rank):
    req = yield rank.send_init(1 - rank.rank, tag=0)
    yield rank.start(req)
    yield rank.start(req)
    yield rank.wait(req)
    yield rank.request_free(req)
    yield rank.finalize()


def free_on_active(rank):
    req = yield rank.send_init(1 - rank.rank, tag=0)
    yield rank.start(req)
    yield rank.request_free(req)
    yield rank.finalize()


def free_of_a_plain_request(rank):
    req = yield rank.isend(1 - rank.rank, tag=0)
    yield rank.recv(1 - rank.rank, tag=0)
    yield rank.request_free(req)
    yield rank.finalize()


def wait_on_inactive(rank):
    req = yield rank.recv_init(1 - rank.rank, tag=0)
    yield rank.wait(req)
    yield rank.request_free(req)
    yield rank.finalize()


def start_of_unknown(rank):
    yield rank.start(7)
    yield rank.finalize()


def start_failed_test_wait(rank):
    init = rank.send_init if rank.rank == 0 else rank.recv_init
    handle = yield init(1 - rank.rank, tag=5)
    yield rank.start(handle)
    flag, _ = yield rank.test(handle)
    if not flag:
        yield rank.wait(handle)
    yield rank.request_free(handle)
    yield rank.finalize()


def waitany_then_wait(rank):
    init = rank.send_init if rank.rank == 0 else rank.recv_init
    h1 = yield init(1 - rank.rank, tag=1)
    h2 = yield init(1 - rank.rank, tag=2)
    yield rank.start(h1)
    yield rank.start(h2)
    idx, _ = yield rank.waitany([h1, h2])
    yield rank.wait(h2 if idx == 0 else h1)
    yield rank.request_free(h1)
    yield rank.request_free(h2)
    yield rank.finalize()


def _program_sets():
    from repro.workloads import fig2a_programs, fig2b_programs
    from repro.workloads.randomgen import (
        mutate_program_set,
        safe_program_set,
    )
    from repro.workloads.specmpi import lammps_skeleton_programs
    from repro.workloads.stress import stress_programs
    from repro.workloads.wildcard import wildcard_deadlock_programs
    from tests.property.test_recorder_agreement import (
        comm_persistent_program,
    )

    yield "stress-64", stress_programs(64)
    yield "lammps-16", lammps_skeleton_programs(16)
    yield "wildcard-16", wildcard_deadlock_programs(16)
    yield "fig2a", fig2a_programs()
    yield "fig2b", fig2b_programs()
    yield "comm-persistent-4", [comm_persistent_program] * 4
    for misuse in (
        start_on_active, free_on_active, free_of_a_plain_request,
        wait_on_inactive, start_of_unknown,
    ):
        yield f"misuse-{misuse.__name__}", [misuse] * 2
    # The two idioms whose extraction PR 18 corrects: expected to differ
    # from a parent older than that, in the requests of the last Wait.
    yield "idiom-start-failed-test-wait", [start_failed_test_wait] * 2
    yield "idiom-waitany-then-wait", [waitany_then_wait] * 2
    for wildcards in (False, True):
        for seed in SEEDS:
            generated = safe_program_set(
                2 + seed % 4, 8 + seed % 9, seed, allow_wildcards=wildcards
            )
            if seed % 2:
                generated = mutate_program_set(
                    generated, seed + 10_000, mutations=1 + seed % 3
                )
            yield (
                f"{'wild' if wildcards else 'det'}-{seed}",
                generated.programs(),
            )


def _findings(findings):
    return [
        [f.check, f.severity.name, f.rank, f.message,
         list(f.op) if f.op else None, f.location]
        for f in findings
    ]


def _ops(seq):
    return [dataclasses.asdict(op) for op in seq]


def dump(path):
    from repro.analysis import extract_programs, lint_path, verify_path
    from repro.analysis.symbolic import (
        InstantiationError,
        classify_source,
        instantiate,
        summarize_source,
    )
    from repro.mpi.serialize import save_trace
    from repro.runtime import run_programs
    from repro.util.errors import ReproError
    from tests.unit import test_symbolic

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        for name, programs in _program_sets():
            runs = []
            for seed in ENGINE_SEEDS:
                try:
                    result = run_programs(programs, seed=seed)
                except ReproError as exc:
                    # The public class it is caught under.
                    public = next(
                        c.__name__ for c in type(exc).__mro__
                        if c.__module__ == "repro.util.errors"
                    )
                    runs.append(f"{public}: {exc}")
                    continue
                save_trace(result.matched, trace_path)
                with open(trace_path, "rb") as fh:
                    runs.append(hashlib.sha256(fh.read()).hexdigest())
            ext = extract_programs(programs)
            out[f"set/{name}"] = {
                "runs": runs,
                "sequences": [_ops(seq) for seq in ext.sequences],
                "exact": ext.exact,
                "wildcard_exact": ext.wildcard_exact,
                "truncated": sorted(ext.truncated),
                "notes": _findings(ext.notes),
            }
    sources = {
        f"test_symbolic.{name}": (getattr(test_symbolic, name), "<test>")
        for name in ("RING", "MASTER", "HALO", "HELPER")
    }
    for example in sorted(glob.glob("examples/*.py")):
        with open(example) as fh:
            sources[example] = (fh.read(), example)
    for label, (source, filename) in sources.items():
        for summary in summarize_source(source, filename):
            if not summary.supported:
                continue
            for p in range(2, 10):
                try:
                    seqs = [
                        _ops(instantiate(
                            summary.terms, rank, p, filename=filename
                        ))
                        for rank in range(p)
                    ]
                except InstantiationError as exc:
                    seqs = f"InstantiationError: {exc}"
                out[f"instantiate/{label}/{summary.name}/p={p}"] = seqs
    for example in sorted(glob.glob("examples/*.py")):
        lint = lint_path(example)
        verify = verify_path(example)
        with open(example) as fh:
            labels = classify_source(fh.read(), example)
        out[f"example/{example}"] = {
            "lint": _findings(lint.findings),
            "lint_notes": list(lint.notes),
            "verify": _findings(verify.findings) + [
                [p.label, p.verdict_name, p.skipped_reason,
                 _findings(p.findings)]
                for p in verify.programs
            ],
            "classify": [
                [c.name, c.fragment.value, c.reason, c.reason_line,
                 c.role_splits, c.loops, c.rendering]
                for c in labels
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
        elif (
            isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
        ):
            for index, (x, y) in enumerate(zip(a, b)):
                walk(x, y, where + [index])
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
