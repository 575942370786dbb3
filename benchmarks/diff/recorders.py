"""Matrix: everything that records calls (``PYTHONPATH=src:.``).

A change to `repro.runtime.recording` or to one of its three callers
(the engine, `extract_programs`, `instantiate`) must leave every
recorded sequence where it was (``.`` on the path: programs and sources
are borrowed from ``tests/``).

(a) SHA-256 of the `save_trace` text of `run_programs` at three engine
    seeds, or the error it raised, for every set of `_program_sets()`;
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
import os
import tempfile

import harness

SEEDS = range(200)
ENGINE_SEEDS = (0, 1, 2)

#: The seven programs below are recorded with this file as their call
#: site; however the file was reached, it is spelled ``recorders.py``.
HERE = (os.path.abspath(__file__), os.path.relpath(__file__))


def _here(text):
    for spelling in HERE:
        text = text.replace(spelling, "recorders.py")
    return text


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
    for label, generated in harness.random_program_sets(SEEDS):
        yield label, generated.programs()


def _ops(seq):
    return [
        {**dataclasses.asdict(op), "location": _here(op.location)}
        for op in seq
    ]


def entries():
    from repro.analysis import extract_programs
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

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        for name, programs in _program_sets():
            runs = []
            for seed in ENGINE_SEEDS:
                try:
                    result = run_programs(programs, seed=seed)
                except ReproError as exc:
                    runs.append(f"{harness.public_error(exc)}: {exc}")
                    continue
                save_trace(result.matched, trace_path)
                with open(trace_path) as fh:
                    runs.append(harness.sha(_here(fh.read())))
            ext = extract_programs(programs)
            yield f"set/{name}", {
                "runs": runs,
                "sequences": [_ops(seq) for seq in ext.sequences],
                "exact": ext.exact,
                "wildcard_exact": ext.wildcard_exact,
                "truncated": sorted(ext.truncated),
                "notes": harness.findings(ext.notes),
            }
    sources = {
        f"test_symbolic.{name}": (getattr(test_symbolic, name), "<test>")
        for name in ("RING", "MASTER", "HALO", "HELPER")
    }
    examples = sorted(glob.glob("examples/*.py"))
    for example in examples:
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
                yield f"instantiate/{label}/{summary.name}/p={p}", seqs
    for example in examples:
        yield f"example/{example}", {
            **harness.example_findings(example),
            "classify": [
                [c.name, c.fragment.value, c.reason, c.reason_line,
                 c.role_splits, c.loops, c.rendering]
                for c in classify_source(sources[example][0], example)
            ],
        }
