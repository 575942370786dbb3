"""The non-deadlock correctness checks."""
import pytest

from repro.checks import LocalChecker, Severity, run_all_checks
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, OpKind
from repro.mpi.ops import Operation
from repro.workloads import fig2b_programs, stress_programs
from tests.conftest import run_relaxed


def _checker(p=4):
    return LocalChecker(CommRegistry(p))


def _by_check(findings):
    out = {}
    for f in findings:
        out.setdefault(f.check, []).append(f)
    return out


class TestLocalChecks:
    def test_clean_stream(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.SEND, rank=0, ts=0, peer=1, tag=3))
        c.check_op(Operation(kind=OpKind.BARRIER, rank=0, ts=1))
        c.check_op(Operation(kind=OpKind.FINALIZE, rank=0, ts=2))
        assert not c.findings

    def test_peer_out_of_range(self):
        c = _checker(2)
        c.check_op(Operation(kind=OpKind.SEND, rank=0, ts=0, peer=9))
        assert _by_check(c.findings)["invalid-peer"][0].severity is (
            Severity.ERROR
        )

    def test_proc_null_peer_is_fine(self):
        c = _checker(2)
        c.check_op(Operation(kind=OpKind.SEND, rank=0, ts=0, peer=PROC_NULL))
        assert not c.findings

    def test_self_message_warning(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.SEND, rank=1, ts=0, peer=1))
        assert _by_check(c.findings)["self-message"][0].severity is (
            Severity.WARNING
        )

    def test_negative_tag(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.SEND, rank=0, ts=0, peer=1, tag=-4))
        assert "invalid-tag" in _by_check(c.findings)

    def test_any_tag_on_send_rejected_any_tag_on_recv_ok(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.RECV, rank=0, ts=0,
                             peer=ANY_SOURCE, tag=ANY_TAG))
        assert not c.findings
        c.check_op(Operation(kind=OpKind.SEND, rank=0, ts=1, peer=1,
                             tag=ANY_TAG))
        assert "invalid-tag" in _by_check(c.findings)

    def test_tag_above_portable_ub(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.SEND, rank=0, ts=0, peer=1,
                             tag=1 << 20))
        assert "tag-above-ub" in _by_check(c.findings)

    def test_invalid_root(self):
        c = _checker(3)
        c.check_op(Operation(kind=OpKind.BCAST, rank=0, ts=0, root=7))
        assert "invalid-root" in _by_check(c.findings)

    def test_unknown_communicator(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.BARRIER, rank=0, ts=0, comm_id=42))
        assert "invalid-communicator" in _by_check(c.findings)

    def test_call_after_finalize(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.FINALIZE, rank=0, ts=0))
        c.check_op(Operation(kind=OpKind.BARRIER, rank=0, ts=1))
        assert "call-after-finalize" in _by_check(c.findings)

    def test_unknown_request(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.WAIT, rank=0, ts=0, requests=(5,)))
        assert "unknown-request" in _by_check(c.findings)

    def test_request_completed_twice(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.ISEND, rank=0, ts=0, peer=1,
                             request=0))
        c.check_op(Operation(kind=OpKind.WAIT, rank=0, ts=1, requests=(0,)))
        c.check_op(Operation(kind=OpKind.WAIT, rank=0, ts=2, requests=(0,)))
        assert "unknown-request" in _by_check(c.findings)

    def test_request_leak_at_finalize(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.IRECV, rank=0, ts=0, peer=1,
                             request=3))
        c.check_op(Operation(kind=OpKind.FINALIZE, rank=0, ts=1))
        assert "request-leak" in _by_check(c.findings)

    def test_finding_render(self):
        c = _checker()
        c.check_op(Operation(kind=OpKind.SEND, rank=0, ts=0, peer=9))
        text = c.findings[0].render()
        assert "ERROR" in text and "rank 0" in text


class TestTraceChecks:
    def test_clean_run_yields_no_errors(self):
        res = run_relaxed(stress_programs(4, iterations=5), seed=1)
        findings = run_all_checks(res.matched)
        assert not [f for f in findings if f.severity is Severity.ERROR]

    def test_lost_message_reported(self):
        def sender(r):
            yield r.bsend(dest=1, tag=9)
            yield r.finalize()

        def silent(r):
            yield r.finalize()

        res = run_relaxed([sender, silent], seed=0)
        findings = run_all_checks(res.matched)
        checks = {f.check for f in findings}
        assert "lost-message" in checks

    def test_missing_finalize_on_hung_run(self):
        def victim(r):
            yield r.recv(source=1)

        def silent(r):
            yield r.finalize()

        res = run_relaxed([victim, silent], seed=0)
        findings = run_all_checks(res.matched)
        missing = [f for f in findings if f.check == "missing-finalize"]
        assert [f.rank for f in missing] == [0]

    def test_fig2b_run_is_check_clean(self):
        res = run_relaxed(fig2b_programs(), seed=3)
        findings = run_all_checks(res.matched)
        assert not [f for f in findings if f.severity is Severity.ERROR]

    def test_waitany_then_wait_on_the_other_request_is_clean(self):
        # The local checker once consumed every request a completion
        # named, so the second wait was an ERROR unknown-request.
        def receiver(r):
            a = yield r.irecv(1, tag=1)
            b = yield r.irecv(1, tag=2)
            idx, _ = yield r.waitany([a, b])
            yield r.wait(b if idx == 0 else a)
            yield r.finalize()

        def sender(r):
            yield r.send(0, tag=1)
            yield r.send(0, tag=2)
            yield r.finalize()

        for seed in range(4):
            res = run_relaxed([receiver, sender], seed=seed)
            assert not res.deadlocked
            assert run_all_checks(res.matched) == []

    def test_failed_test_then_wait_is_clean(self):
        # Rank 1 sends tag 1 only after rank 0's send of tag 9, which
        # follows the test: the test fails at every seed.
        def tester(r):
            a = yield r.irecv(1, tag=1)
            flag, _ = yield r.test(a)
            assert not flag
            yield r.send(1, tag=9)
            yield r.wait(a)
            yield r.finalize()

        def peer(r):
            yield r.recv(0, tag=9)
            yield r.send(0, tag=1)
            yield r.finalize()

        for seed in range(4):
            res = run_relaxed([tester, peer], seed=seed)
            assert not res.deadlocked
            assert run_all_checks(res.matched) == []
