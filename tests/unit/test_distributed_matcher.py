"""The receiver-located distributed p2p matcher in isolation."""
import pytest

from repro.core.messages import PassSend
from repro.matching.distributed_p2p import NodeP2PMatcher
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, OpKind
from repro.mpi.ops import Operation


def _recv(rank=1, ts=0, peer=0, tag=0, observed=None, kind=OpKind.RECV):
    return Operation(
        kind=kind, rank=rank, ts=ts, peer=peer, tag=tag,
        observed_peer=observed,
        request=0 if kind is OpKind.IRECV else None,
    )


def _send_info(rank=0, ts=0, dest=1, tag=0):
    return PassSend(send_rank=rank, send_ts=ts, comm_id=0, dest=dest,
                    tag=tag, nbytes=8)


class TestSendFirst:
    def test_send_then_recv(self):
        m = NodeP2PMatcher()
        assert m.store_send(_send_info()) == []
        event = m.post_receive(_recv())
        assert event is not None
        assert event.send.send_ref == (0, 0)
        assert not event.is_probe

    def test_sends_consumed_in_order(self):
        m = NodeP2PMatcher()
        m.store_send(_send_info(ts=0))
        m.store_send(_send_info(ts=1))
        first = m.post_receive(_recv(ts=0))
        second = m.post_receive(_recv(ts=1))
        assert first.send.send_ts == 0
        assert second.send.send_ts == 1

    def test_tag_selective_consumption(self):
        m = NodeP2PMatcher()
        m.store_send(_send_info(ts=0, tag=1))
        m.store_send(_send_info(ts=1, tag=2))
        event = m.post_receive(_recv(tag=2))
        assert event.send.send_ts == 1
        event = m.post_receive(_recv(tag=ANY_TAG))
        assert event.send.send_ts == 0


class TestRecvFirst:
    def test_recv_waits_for_send(self):
        m = NodeP2PMatcher()
        assert m.post_receive(_recv()) is None
        assert m.pending_receive_count() == 1
        events = m.store_send(_send_info())
        assert len(events) == 1
        assert events[0].recv_ref == (1, 0)
        assert m.pending_receive_count() == 0

    def test_earliest_posted_recv_wins(self):
        m = NodeP2PMatcher()
        m.post_receive(_recv(ts=0))
        m.post_receive(_recv(ts=1))
        events = m.store_send(_send_info())
        assert [e.recv_ref for e in events] == [(1, 0)]


class TestWildcards:
    def test_resolved_wildcard_matches_observed_source(self):
        m = NodeP2PMatcher()
        m.store_send(_send_info(rank=0, ts=0))
        m.store_send(_send_info(rank=2, ts=0))
        event = m.post_receive(
            _recv(peer=ANY_SOURCE, tag=ANY_TAG, observed=2)
        )
        assert event.send.send_rank == 2

    def test_unresolved_wildcard_never_matches(self):
        m = NodeP2PMatcher()
        assert m.post_receive(_recv(peer=ANY_SOURCE)) is None
        events = m.store_send(_send_info())
        assert events == []  # the recv's source is unresolved forever


class TestProbes:
    def test_probe_matches_without_consuming(self):
        m = NodeP2PMatcher()
        m.store_send(_send_info())
        probe = Operation(kind=OpKind.PROBE, rank=1, ts=0, peer=0,
                          observed_peer=0)
        event = m.post_receive(probe)
        assert event is not None and event.is_probe
        # The message is still available for the real receive.
        event = m.post_receive(_recv(ts=1))
        assert event is not None and not event.is_probe

    def test_pending_probe_matched_by_late_send(self):
        m = NodeP2PMatcher()
        probe = Operation(kind=OpKind.PROBE, rank=1, ts=0, peer=0,
                          observed_peer=0)
        assert m.post_receive(probe) is None
        events = m.store_send(_send_info())
        assert len(events) == 1 and events[0].is_probe
        assert m.stored_send_count() == 1  # probe did not consume

    def test_probe_and_recv_share_one_send(self):
        m = NodeP2PMatcher()
        probe = Operation(kind=OpKind.PROBE, rank=1, ts=0, peer=0,
                          observed_peer=0)
        m.post_receive(probe)
        m.post_receive(_recv(ts=1))
        events = m.store_send(_send_info())
        kinds = sorted(e.is_probe for e in events)
        assert kinds == [False, True]
        assert m.stored_send_count() == 0


class TestRetention:
    """Only what can still match is kept (Section 4.2's bounded window)."""

    @pytest.mark.parametrize("send_first", [True, False])
    def test_matched_pairs_leave_nothing_behind(self, send_first):
        m = NodeP2PMatcher()
        for ts in range(100):
            if send_first:
                m.store_send(_send_info(ts=ts))
                assert m.post_receive(_recv(ts=ts)) is not None
            else:
                assert m.post_receive(_recv(ts=ts)) is None
                assert len(m.store_send(_send_info(ts=ts))) == 1
        assert m._sends == {} and m._recvs == {}
        assert m.stats() == {"pending_receives": 0, "stored_sends": 0}

    def test_a_consumed_send_goes_an_unconsumed_neighbour_stays(self):
        m = NodeP2PMatcher()
        m.store_send(_send_info(ts=0, tag=1))
        m.store_send(_send_info(ts=1, tag=2))
        m.post_receive(_recv(tag=2))
        ((kept,),) = m._sends.values()
        assert kept.send_ts == 0 and m.stored_send_count() == 1

    def test_a_detector_run_retains_only_the_residue(self):
        from repro.core.detector import DistributedDeadlockDetector
        from repro.workloads import build_stress_trace

        detector = DistributedDeadlockDetector(
            build_stress_trace(8, iterations=500), generate_outputs=False
        )
        assert not detector.run().has_deadlock
        for node in detector.first_layer.values():
            kept = sum(map(len, node.matcher._sends.values()))
            posted = sum(map(len, node.matcher._recvs.values()))
            assert {
                "pending_receives": posted, "stored_sends": kept
            } == node.matcher.stats() == {
                "pending_receives": 0, "stored_sends": 0
            }
