"""Per-operation state and the sliding trace window (Section 4.2)."""
import pytest

from repro.core.opstate import OpState, RankWindow
from repro.mpi.blocking import BlockingSemantics, is_blocking
from repro.mpi.constants import PROC_NULL, OpKind
from repro.mpi.ops import Operation
from repro.util.errors import ProtocolError, ResourceLimitError


def _send(ts, rank=0, peer=1):
    return Operation(kind=OpKind.SEND, rank=rank, ts=ts, peer=peer)


def _recv(ts, rank=0, peer=1):
    return Operation(kind=OpKind.RECV, rank=rank, ts=ts, peer=peer)


def _barrier(ts, rank=0):
    return Operation(kind=OpKind.BARRIER, rank=rank, ts=ts)


class TestWindowBasics:
    def test_in_order_delivery_enforced(self):
        w = RankWindow(0)
        w.add(_send(0))
        with pytest.raises(ProtocolError):
            w.add(_send(2))  # skipped ts=1

    def test_wrong_rank_rejected(self):
        w = RankWindow(0)
        with pytest.raises(ProtocolError):
            w.add(_send(0, rank=3))

    def test_window_limit_reproduces_gapgeofem(self):
        w = RankWindow(0, max_ops=3)
        for ts in range(3):
            w.add(_barrier(ts))
        with pytest.raises(ResourceLimitError):
            w.add(_barrier(3))

    def test_current_and_finished(self):
        w = RankWindow(0)
        w.add(Operation(kind=OpKind.FINALIZE, rank=0, ts=0))
        assert w.current_op().op.is_finalize()
        assert w.finished()

    def test_awaiting_events(self):
        w = RankWindow(0)
        assert w.awaiting_events()  # nothing received yet
        w.done = True
        assert not w.awaiting_events()
        assert w.finished()  # done with empty trace


class TestEvictionRules:
    def test_barrier_evicted_after_advance(self):
        w = RankWindow(0)
        st = w.add(_barrier(0))
        w.add(_barrier(1))
        st.collective_acked = True
        w.advance()
        assert w.get(0) is None  # evicted
        assert w.current == 1

    def test_send_retained_until_handshake(self):
        w = RankWindow(0)
        st = w.add(_send(0))
        w.add(_barrier(1))
        st.got_recv_active = True  # handshake done before advancing
        w.advance()
        assert w.get(0) is None

    def test_send_without_handshake_retained(self):
        w = RankWindow(0)
        st = w.add(
            Operation(kind=OpKind.ISEND, rank=0, ts=0, peer=1, request=0)
        )
        w.add(_barrier(1))
        w.advance()  # isend is non-blocking: advances without handshake
        assert w.get(0) is not None  # retained: recvActive may arrive
        st.got_recv_active = True
        w.evict_completed_send(0)
        assert w.get(0) is not None  # still referenced by request 0

    def test_recv_retained_until_ack(self):
        w = RankWindow(0)
        st = w.add(
            Operation(kind=OpKind.IRECV, rank=0, ts=0, peer=1, request=0)
        )
        w.add(_barrier(1))
        w.advance()
        assert w.get(0) is not None
        st.got_ack = True

    def test_request_creator_released_by_completion(self):
        w = RankWindow(0)
        isend = w.add(
            Operation(kind=OpKind.ISEND, rank=0, ts=0, peer=1, request=0)
        )
        isend.got_recv_active = True
        wait = w.add(Operation(kind=OpKind.WAIT, rank=0, ts=1, requests=(0,)))
        isend.completion_satisfied = True
        w.advance()  # past the isend (non-blocking)
        assert w.get(0) is not None  # request 0 still live
        assert w.completion_ready(wait)
        w.advance()  # past the wait: consumes request 0
        assert w.get(0) is None

    def test_iprobe_never_retained(self):
        w = RankWindow(0)
        w.add(Operation(kind=OpKind.IPROBE, rank=0, ts=0, peer=1))
        w.add(_barrier(1))
        w.advance()
        assert w.get(0) is None

    def test_peak_size_tracks_occupancy(self):
        w = RankWindow(0)
        for ts in range(5):
            st = w.add(_barrier(ts))
            st.collective_acked = True
        assert w.peak_size == 5
        for _ in range(5):
            w.advance()
        assert len(w) == 0
        assert w.peak_size == 5


class TestCompletionEvaluation:
    def _window_with_requests(self, kind, n=2):
        w = RankWindow(0)
        for ts in range(n):
            w.add(Operation(kind=OpKind.IRECV, rank=0, ts=ts, peer=1,
                            request=ts))
        comp = w.add(Operation(kind=kind, rank=0, ts=n,
                               requests=tuple(range(n))))
        return w, comp

    def test_waitall_needs_all(self):
        w, comp = self._window_with_requests(OpKind.WAITALL)
        assert not w.completion_ready(comp)
        w.request_state(0).completion_satisfied = True
        assert not w.completion_ready(comp)
        w.request_state(1).completion_satisfied = True
        assert w.completion_ready(comp)

    def test_waitany_needs_one(self):
        w, comp = self._window_with_requests(OpKind.WAITANY)
        assert not w.completion_ready(comp)
        w.request_state(1).completion_satisfied = True
        assert w.completion_ready(comp)

    def test_locally_completing_requests(self):
        w = RankWindow(0)
        w.add(Operation(kind=OpKind.IBSEND, rank=0, ts=0, peer=1, request=0))
        comp = w.add(Operation(kind=OpKind.WAIT, rank=0, ts=1, requests=(0,)))
        assert w.completion_ready(comp)

    def test_unknown_request(self):
        w = RankWindow(0)
        comp = w.add(Operation(kind=OpKind.WAIT, rank=0, ts=0, requests=(9,)))
        with pytest.raises(ProtocolError):
            w.completion_ready(comp)


class TestAdvanceErrors:
    def test_advance_past_unreceived(self):
        w = RankWindow(0)
        with pytest.raises(ProtocolError):
            w.advance()

    def test_require_missing_op(self):
        w = RankWindow(0)
        with pytest.raises(ProtocolError):
            w.require(3)


class TestStrictBlockingTable:
    """``OpState.is_blocking`` reads Section 3.1's ``b`` from a per-kind
    table; it must equal the predicate it was derived from, for every
    kind, with a real and with a ``PROC_NULL`` peer."""

    @staticmethod
    def _op(kind, peer):
        return Operation(
            kind=kind, rank=0, ts=0, peer=peer, request=0, requests=(0,),
            nbytes=1 << 20,
        )

    @pytest.mark.parametrize(
        "kind,peer",
        [
            (kind, peer)
            for kind in OpKind
            for peer in (1, PROC_NULL, None)
            if kind is not OpKind.SENDRECV_MARKER
            and not (peer is None and kind.p2p)  # p2p needs a peer
        ],
    )
    def test_equals_the_strict_predicate(self, kind, peer):
        op = self._op(kind, peer)
        expected = is_blocking(op, BlockingSemantics.strict())
        assert OpState(op=op).is_blocking() is expected
        if peer != PROC_NULL:
            assert kind.strict_blocking is expected

    @pytest.mark.parametrize("peer", [1, PROC_NULL])
    def test_undefined_kinds_keep_raising(self, peer):
        """No silent table default where ``b`` is undefined."""
        op = self._op(OpKind.SENDRECV_MARKER, peer)
        assert OpKind.SENDRECV_MARKER.strict_blocking is None
        with pytest.raises(ValueError):
            is_blocking(op, BlockingSemantics.strict())
        with pytest.raises(ValueError):
            OpState(op=op).is_blocking()

    def test_proc_null_only_unblocks_p2p(self):
        barrier = self._op(OpKind.BARRIER, PROC_NULL)
        assert OpState(op=barrier).is_blocking()
        assert not OpState(op=self._op(OpKind.RECV, PROC_NULL)).is_blocking()

    def test_completes_locally_is_ibsend_and_irsend(self):
        local = {
            k for k in OpKind if OpState(op=self._op(k, 1)).completes_locally()
        }
        assert local == {OpKind.IBSEND, OpKind.IRSEND}
