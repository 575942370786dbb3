"""Static extraction, typestate checks, and sequential matching."""
import pytest

from repro.analysis import (
    check_collective_consistency,
    check_request_typestate,
    extract_programs,
    match_sequences,
)
from repro.checks.findings import Severity
from repro.mpi.constants import ANY_SOURCE, OpKind, WORLD_COMM_ID
from tests.conftest import run_relaxed


def _checks(findings):
    return {f.check for f in findings}


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------

def _ring(rank):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    sreq = yield rank.isend(right, tag=1, nbytes=64)
    yield rank.recv(source=left, tag=1)
    yield rank.wait(sreq)
    yield rank.barrier()
    yield rank.finalize()


class TestExtraction:
    def test_straight_line_ring_is_exact(self):
        ext = extract_programs([_ring] * 3)
        assert ext.exact
        assert not ext.truncated
        assert ext.num_processes == 3
        kinds = [op.kind for op in ext.sequences[0]]
        assert kinds == [
            OpKind.ISEND, OpKind.RECV, OpKind.WAIT, OpKind.BARRIER,
            OpKind.FINALIZE,
        ]
        # Refs are filed exactly like the engine would record them.
        for rank, seq in enumerate(ext.sequences):
            assert [op.ref for op in seq] == [
                (rank, ts) for ts in range(len(seq))
            ]

    def test_locations_point_into_this_file(self):
        ext = extract_programs([_ring] * 2)
        assert "test_analysis.py" in ext.sequences[0][0].location

    def test_wildcard_receive_is_inexact(self):
        def prog(rank):
            if rank.rank == 0:
                yield rank.send(1, tag=0)
            else:
                yield rank.recv(source=ANY_SOURCE, tag=0)
            yield rank.finalize()

        ext = extract_programs([prog] * 2)
        assert not ext.exact

    def test_started_wildcard_persistent_receive_is_inexact(self):
        # A Start is recorded like the receive it activates, wildcard
        # included (it once skipped the check a plain Irecv gets).
        def prog(rank):
            if rank.rank == 0:
                yield rank.send(1, tag=0)
            else:
                req = yield rank.recv_init(ANY_SOURCE, tag=0)
                yield rank.start(req)
                yield rank.wait(req)
                yield rank.request_free(req)
            yield rank.finalize()

        ext = extract_programs([prog] * 2)
        assert not ext.exact and ext.wildcard_exact

    def test_iprobe_result_is_inexact(self):
        def prog(rank):
            yield rank.iprobe(source=1 - rank.rank, tag=0)
            yield rank.finalize()

        ext = extract_programs([prog] * 2)
        assert not ext.exact

    def test_runaway_program_is_truncated(self):
        def prog(rank):
            while True:
                yield rank.allreduce()

        ext = extract_programs([prog] * 2, max_ops_per_rank=16)
        assert ext.truncated == {0, 1}
        assert not ext.exact
        assert len(ext.sequences[0]) == 16

    def test_invalid_call_truncates_that_rank(self):
        def bad(rank):
            yield rank.waitall([])
            yield rank.finalize()

        def good(rank):
            yield rank.finalize()

        ext = extract_programs([bad, good])
        assert 0 in ext.truncated
        assert 1 not in ext.truncated

    def test_comm_split_produces_subcommunicators(self):
        def prog(rank):
            sub = yield rank.comm_split(color=rank.rank % 2)
            yield rank.barrier(comm=sub)
            yield rank.finalize()

        ext = extract_programs([prog] * 4)
        assert ext.exact
        sub_ids = {
            seq[1].comm_id for seq in ext.sequences
        }
        assert len(sub_ids) == 2
        assert WORLD_COMM_ID not in sub_ids
        for comm_id in sub_ids:
            assert len(ext.comms.get(comm_id).group) == 2

    def test_persistent_requests_extract_like_the_engine(self):
        def prog(rank):
            peer = 1 - rank.rank
            sreq = yield rank.send_init(peer, tag=2)
            rreq = yield rank.recv_init(peer, tag=2)
            yield from rank.startall([sreq, rreq])
            yield rank.waitall([sreq, rreq])
            yield rank.request_free(sreq)
            yield rank.request_free(rreq)
            yield rank.finalize()

        ext = extract_programs([prog] * 2)
        assert ext.exact
        assert not check_request_typestate(ext.sequences)

    @staticmethod
    def _assert_matches_runs_that_went_the_stubbed_way(prog, went_that_way):
        """The stub answers one way; every rank of every run the
        runtime answered the same way must have recorded the extracted
        sequence, request ids included."""
        ext = extract_programs([prog] * 2)
        assert not ext.truncated
        assert not check_request_typestate(ext.sequences)
        compared = 0
        for seed in range(8):
            res = run_relaxed([prog] * 2, seed=seed)
            assert not res.deadlocked
            for rank, want in enumerate(ext.sequences):
                got = res.trace.sequence(rank)
                if not any(went_that_way(op) for op in got):
                    continue
                compared += 1
                assert [(o.kind, o.request, o.requests) for o in got] == [
                    (o.kind, o.request, o.requests) for o in want
                ]
        assert compared

    def test_failed_test_leaves_the_persistent_handle_active(self):
        # The stubbed Test answers "not done": the Wait after it is on
        # the Start instance, not on a handle the Test released.
        def prog(rank):
            peer = 1 - rank.rank
            if rank.rank == 0:
                h = yield rank.send_init(peer, tag=5)
            else:
                h = yield rank.recv_init(peer, tag=5)
            yield rank.start(h)
            flag, _ = yield rank.test(h)
            if not flag:
                yield rank.wait(h)
            yield rank.request_free(h)
            yield rank.finalize()

        self._assert_matches_runs_that_went_the_stubbed_way(
            prog, lambda op: op.kind is OpKind.TEST and not op.test_flag
        )
        wait = extract_programs([prog] * 2).sequences[0][3]
        assert wait.kind is OpKind.WAIT and wait.requests == (1,)

    def test_waitany_releases_only_the_index_it_reports(self):
        def prog(rank):
            peer = 1 - rank.rank
            init = rank.send_init if rank.rank == 0 else rank.recv_init
            h1 = yield init(peer, tag=1)
            h2 = yield init(peer, tag=2)
            yield rank.start(h1)
            yield rank.start(h2)
            idx, _ = yield rank.waitany([h1, h2])
            yield rank.wait(h2 if idx == 0 else h1)
            yield rank.request_free(h1)
            yield rank.request_free(h2)
            yield rank.finalize()

        self._assert_matches_runs_that_went_the_stubbed_way(
            prog,
            lambda op: (
                op.kind is OpKind.WAITANY and op.completed_indices == (0,)
            ),
        )
        wait = extract_programs([prog] * 2).sequences[0][5]
        assert wait.kind is OpKind.WAIT and wait.requests == (3,)


# ----------------------------------------------------------------------
# Request typestate
# ----------------------------------------------------------------------

class TestRequestTypestate:
    def _sequences(self, *programs):
        return extract_programs(list(programs)).sequences

    def test_double_wait(self):
        def waiter(rank):
            req = yield rank.isend(1, tag=0)
            yield rank.wait(req)
            yield rank.wait(req)
            yield rank.finalize()

        def receiver(rank):
            yield rank.recv(source=0, tag=0)
            yield rank.finalize()

        findings = check_request_typestate(
            self._sequences(waiter, receiver)
        )
        assert "static-double-wait" in _checks(findings)
        (bad,) = [f for f in findings if f.check == "static-double-wait"]
        assert bad.severity is Severity.ERROR
        assert bad.rank == 0

    def test_unknown_request(self):
        def prog(rank):
            yield rank.wait(42)
            yield rank.finalize()

        findings = check_request_typestate(self._sequences(prog, prog))
        assert "static-unknown-request" in _checks(findings)

    def test_request_leak_at_finalize(self):
        def leaker(rank):
            yield rank.irecv(source=1, tag=0)
            yield rank.finalize()

        def sender(rank):
            yield rank.send(0, tag=0)
            yield rank.finalize()

        findings = check_request_typestate(
            self._sequences(leaker, sender)
        )
        leaks = [f for f in findings if f.check == "static-request-leak"]
        assert leaks and leaks[0].severity is Severity.WARNING
        assert leaks[0].rank == 0

    def test_free_with_activation_in_flight(self):
        def prog(rank):
            req = yield rank.send_init(1 - rank.rank, tag=0)
            yield rank.start(req)
            yield rank.request_free(req)
            yield rank.finalize()

        findings = check_request_typestate(self._sequences(prog, prog))
        assert "static-free-active" in _checks(findings)

    def test_start_on_still_active_handle(self):
        def prog(rank):
            req = yield rank.send_init(1 - rank.rank, tag=0)
            yield rank.start(req)
            yield rank.start(req)
            yield rank.wait(req)
            yield rank.request_free(req)
            yield rank.finalize()

        findings = check_request_typestate(self._sequences(prog, prog))
        assert "static-start-active" in _checks(findings)

    def test_waitany_leaves_requests_uncertain(self):
        # Waitany completes exactly one of the two: the other is MAYBE
        # complete, so neither double-wait nor leak may be reported.
        def prog(rank):
            peer = 1 - rank.rank
            a = yield rank.isend(peer, tag=0)
            b = yield rank.irecv(source=peer, tag=0)
            yield rank.waitany([a, b])
            yield rank.waitany([a, b])
            yield rank.finalize()

        findings = check_request_typestate(self._sequences(prog, prog))
        assert not findings


# ----------------------------------------------------------------------
# Collective consistency
# ----------------------------------------------------------------------

class TestCollectiveConsistency:
    def _run(self, *programs, hung_ranks=None):
        ext = extract_programs(list(programs))
        return check_collective_consistency(
            ext.sequences, ext.comms, hung_ranks=hung_ranks
        )

    def test_kind_mismatch(self):
        def a(rank):
            yield rank.barrier()
            yield rank.finalize()

        def b(rank):
            yield rank.allreduce()
            yield rank.finalize()

        findings = self._run(a, b)
        (bad,) = [
            f for f in findings if f.check == "static-collective-mismatch"
        ]
        # Rank 0's barrier is the tie-broken majority; rank 1 deviates.
        assert bad.rank == 1
        assert "MPI_Allreduce" in bad.message
        assert "MPI_Barrier" in bad.message

    def test_root_mismatch(self):
        def prog(rank):
            yield rank.bcast(root=0 if rank.rank == 0 else 1)
            yield rank.finalize()

        findings = self._run(prog, prog)
        (bad,) = [
            f for f in findings if f.check == "static-root-mismatch"
        ]
        assert bad.rank == 1

    def test_missing_collective_on_finished_rank(self):
        def caller(rank):
            yield rank.barrier()
            yield rank.finalize()

        def skipper(rank):
            yield rank.finalize()

        findings = self._run(caller, skipper)
        (bad,) = [
            f for f in findings if f.check == "static-collective-missing"
        ]
        assert bad.rank == 1 and bad.severity is Severity.ERROR

    def test_hung_rank_is_not_reported_missing(self):
        def caller(rank):
            yield rank.barrier()
            yield rank.finalize()

        def skipper(rank):
            yield rank.finalize()

        findings = self._run(caller, skipper, hung_ranks={1})
        assert "static-collective-missing" not in _checks(findings)

    def test_consistent_collectives_are_clean(self):
        def prog(rank):
            yield rank.bcast(root=2)
            yield rank.allreduce()
            yield rank.barrier()
            yield rank.finalize()

        assert not self._run(prog, prog, prog)


# ----------------------------------------------------------------------
# Sequential matching
# ----------------------------------------------------------------------

class TestSequentialMatching:
    def _match(self, *programs):
        ext = extract_programs(list(programs))
        assert ext.exact
        return match_sequences(ext.sequences, ext.comms)

    def test_head_to_head_sends_deadlock(self):
        def prog(rank):
            peer = 1 - rank.rank
            yield rank.send(peer, tag=0)
            yield rank.recv(source=peer, tag=0)
            yield rank.finalize()

        result = self._match(prog, prog)
        assert result.applicable and result.has_deadlock
        assert set(result.deadlocked) == {0, 1}
        assert set(result.witness_cycle) == {0, 1}
        assert result.blocked_ops[0].kind is OpKind.SEND

    def test_ordered_exchange_is_clean(self):
        def first(rank):
            yield rank.send(1, tag=0)
            yield rank.recv(source=1, tag=0)
            yield rank.finalize()

        def second(rank):
            yield rank.recv(source=0, tag=0)
            yield rank.send(0, tag=0)
            yield rank.finalize()

        result = self._match(first, second)
        assert result.applicable and not result.has_deadlock
        assert result.finished == {0, 1}

    def test_buffered_sends_break_the_cycle(self):
        def prog(rank):
            peer = 1 - rank.rank
            yield rank.bsend(peer, tag=0)
            yield rank.recv(source=peer, tag=0)
            yield rank.finalize()

        result = self._match(prog, prog)
        assert not result.has_deadlock

    def test_recv_from_finished_rank_deadlocks(self):
        def waiter(rank):
            yield rank.recv(source=1, tag=5)
            yield rank.finalize()

        def quitter(rank):
            yield rank.finalize()

        result = self._match(waiter, quitter)
        assert result.deadlocked == (0,)
        assert result.finished == {1}

    def test_fifo_channels_respect_tags(self):
        # Messages on one channel are matched earliest-compatible: with
        # both sends posted, the tag-2 receive skips over the tag-1
        # message and nothing hangs.
        def sender(rank):
            a = yield rank.isend(1, tag=1)
            b = yield rank.isend(1, tag=2)
            yield rank.waitall([a, b])
            yield rank.finalize()

        def receiver(rank):
            yield rank.recv(source=0, tag=2)
            yield rank.recv(source=0, tag=1)
            yield rank.finalize()

        result = self._match(sender, receiver)
        assert not result.has_deadlock

    def test_blocking_tag_reorder_deadlocks_under_rendezvous(self):
        # The same exchange with blocking standard sends deadlocks: the
        # rendezvous tag-1 send cannot complete before the tag-2
        # receive is satisfied, and vice versa.
        def sender(rank):
            yield rank.send(1, tag=1)
            yield rank.send(1, tag=2)
            yield rank.finalize()

        def receiver(rank):
            yield rank.recv(source=0, tag=2)
            yield rank.recv(source=0, tag=1)
            yield rank.finalize()

        result = self._match(sender, receiver)
        assert set(result.deadlocked) == {0, 1}

    def test_waitall_cycle_detected(self):
        def prog(rank):
            peer = 1 - rank.rank
            req = yield rank.irecv(source=peer, tag=0)
            yield rank.wait(req)
            yield rank.send(peer, tag=0)
            yield rank.finalize()

        result = self._match(prog, prog)
        assert set(result.deadlocked) == {0, 1}
        assert result.blocked_ops[0].kind is OpKind.WAIT

    def test_collective_vs_p2p_cross_wait(self):
        def top(rank):
            yield rank.barrier()
            yield rank.send(1, tag=0)
            yield rank.finalize()

        def bottom(rank):
            yield rank.recv(source=0, tag=0)
            yield rank.barrier()
            yield rank.finalize()

        result = self._match(top, bottom)
        assert set(result.deadlocked) == {0, 1}

    def test_probe_is_woken_by_a_posted_blocking_send(self):
        def prober(rank):
            yield rank.probe(source=1, tag=3)
            yield rank.recv(source=1, tag=3)
            yield rank.finalize()

        def sender(rank):
            yield rank.send(0, tag=3)
            yield rank.finalize()

        result = self._match(prober, sender)
        assert result.applicable and not result.has_deadlock
        assert result.finished == {0, 1}

    def test_unresolved_wildcard_is_not_applicable(self):
        ext = extract_programs(
            [
                lambda rank: (yield rank.recv(source=ANY_SOURCE, tag=0))
                and None,
            ]
            * 1
        )
        result = match_sequences(ext.sequences, ext.comms)
        assert not result.applicable
        assert "ANY_SOURCE" in result.reason_skipped

    def test_stuck_but_releasable_is_not_deadlocked(self):
        # Rank 0 blocks on rank 1, which never posts the send because
        # extraction truncated it mid-loop — but with rank 1 still
        # *blocked* (not finished), a single arc is no cycle.
        def waiter(rank):
            yield rank.recv(source=1, tag=0)
            yield rank.send(1, tag=1)
            yield rank.finalize()

        def other(rank):
            yield rank.recv(source=0, tag=1)
            yield rank.send(0, tag=0)
            yield rank.finalize()

        result = self._match(waiter, other)
        assert set(result.deadlocked) == {0, 1}
        assert result.detection is not None
        assert result.graph is not None
