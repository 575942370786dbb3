"""Pins recorded before wildcard waits became one shared group clause.

Every value below was produced by the commit that still expanded each
blocked ``Recv(ANY_SOURCE)`` into p-1 targets at the first layer, at
the root, in the graph and in the fixpoint (f345a01). The compact
clause must change none of them: not a byte of the three reports of
the Fig. 10 storm, and not an arc, a releasable rank, a tool message or
a modeled byte of a multi-epoch run over a live OR-graph.
"""
import hashlib
import json

from repro.api import Session
from repro.core.waitfor import GroupClause
from repro.mpi.constants import ANY_SOURCE
from repro.runtime import run_programs
from repro.workloads import wildcard_deadlock_programs


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_storm_reports_are_byte_identical():
    record = Session(seed=0).run(wildcard_deadlock_programs(64)).detection
    assert all(
        isinstance(cond.clauses[0], GroupClause)
        for cond in record.conditions.values()
    )
    assert record.graph.arc_count() == 64 * 63
    canonical = json.dumps(
        record.json_report, sort_keys=True, separators=(",", ":")
    )
    assert (len(record.dot_text), len(record.html_report), len(canonical)) == (
        181310, 299472, 281554
    )
    assert _sha(record.dot_text) == (
        "192d0d0dea6914722605134aa7a4dc261f31d01f53c64a35b75e10ea6747a91a"
    )
    assert _sha(record.html_report) == (
        "cc2559939408d2e324da505eee518f9b73f1c45dc33ccddf67b33499e61aaea4"
    )
    assert _sha(canonical) == (
        "27596107c3d29ecbecc6df2d6226780ebc77b02ec0d0cb429cfbe8f73becebe5"
    )


def _straggler_programs(p, rounds=4):
    """Rank 0 serves everyone, one at a time; the others sit in a
    wildcard receive, so a mid-run detection sees a large live
    OR-graph and must find it deadlock-free."""

    def root(rank):
        for r in range(rounds):
            for dst in range(1, rank.size):
                yield rank.send(dst, tag=r)
        yield rank.finalize()

    def leaf(rank):
        for r in range(rounds):
            yield rank.recv(source=ANY_SOURCE, tag=r)
        yield rank.finalize()

    return [root] + [leaf] * (p - 1)


def test_straggler_epochs_repeat_the_expanded_run():
    p, epochs, seed = 64, 8, 0
    matched = run_programs(_straggler_programs(p), seed=seed).matched
    span = Session(seed=seed).analyze(matched).simulated_seconds
    detect_at = tuple(span * (i + 0.5) / epochs for i in range(epochs))
    outcome = Session(seed=seed, detect_at=detect_at).analyze(matched)

    assert len(outcome.detections) == epochs + 1
    assert not outcome.has_deadlock
    assert [d.graph.arc_count() for d in outcome.detections] == [
        1356, 1858, 1173, 1111, 31, 0, 0, 0, 0
    ]
    assert [len(d.result.releasable) for d in outcome.detections] == [
        54, 60, 57, 57, 31, 0, 0, 0, 0
    ]
    assert [
        _sha(repr(d.result.releasable))[:16] for d in outcome.detections
    ] == [
        "0407670e6faf8cf4", "dfe6706540ce29e9", "d40768f9d45e0c2b",
        "6e9730267a12986f", "0ba94b1b482144e0", "2e38e77b22c314a4",
        "2e38e77b22c314a4", "2e38e77b22c314a4", "2e38e77b22c314a4",
    ]
    assert outcome.messages_sent == 2308
    assert outcome.bytes_sent == 175056
    assert _sha(repr(outcome.stable_state))[:16] == "45335184ed3582f5"
