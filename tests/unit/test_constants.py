"""Operation-kind classification (the vocabulary of the analyses)."""
import pytest

from repro.mpi import constants
from repro.mpi.constants import (
    PROC_NULL,
    OpKind,
    completion_needs_all,
    is_collective_kind,
    is_completion_kind,
    is_nonblocking_p2p_kind,
    is_p2p_kind,
    is_probe_kind,
    is_recv_kind,
    is_rooted_collective_kind,
    is_send_kind,
    is_test_kind,
    is_wait_kind,
)
from repro.mpi.ops import Operation


def test_send_kinds_cover_all_flavours():
    for kind in (
        OpKind.SEND,
        OpKind.SSEND,
        OpKind.BSEND,
        OpKind.RSEND,
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
    ):
        assert is_send_kind(kind)
        assert is_p2p_kind(kind)
        assert not is_recv_kind(kind)
        assert not is_collective_kind(kind)


def test_recv_and_probe_kinds():
    assert is_recv_kind(OpKind.RECV)
    assert is_recv_kind(OpKind.IRECV)
    assert not is_recv_kind(OpKind.PROBE)
    assert is_probe_kind(OpKind.PROBE)
    assert is_probe_kind(OpKind.IPROBE)
    assert is_p2p_kind(OpKind.PROBE)


def test_nonblocking_p2p_kinds_create_requests():
    for kind in (
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
        OpKind.IRECV,
    ):
        assert is_nonblocking_p2p_kind(kind)
    assert not is_nonblocking_p2p_kind(OpKind.IPROBE)
    assert not is_nonblocking_p2p_kind(OpKind.SEND)


def test_collective_kinds_include_comm_management():
    """Section 3.1: Comm_dup etc. are matched as collectives."""
    for kind in (
        OpKind.BARRIER,
        OpKind.ALLREDUCE,
        OpKind.COMM_DUP,
        OpKind.COMM_SPLIT,
        OpKind.COMM_FREE,
        OpKind.SCAN,
        OpKind.REDUCE_SCATTER,
    ):
        assert is_collective_kind(kind)
    assert not is_collective_kind(OpKind.FINALIZE)


def test_rooted_collectives():
    assert is_rooted_collective_kind(OpKind.BCAST)
    assert is_rooted_collective_kind(OpKind.REDUCE)
    assert not is_rooted_collective_kind(OpKind.ALLREDUCE)
    assert not is_rooted_collective_kind(OpKind.BARRIER)


def test_completion_kind_partition():
    for kind in (OpKind.WAIT, OpKind.WAITANY, OpKind.WAITSOME, OpKind.WAITALL):
        assert is_wait_kind(kind)
        assert is_completion_kind(kind)
        assert not is_test_kind(kind)
    for kind in (OpKind.TEST, OpKind.TESTANY, OpKind.TESTSOME, OpKind.TESTALL):
        assert is_test_kind(kind)
        assert is_completion_kind(kind)
        assert not is_wait_kind(kind)


def test_completion_needs_all_matches_rule4():
    """Rule 4(II) covers Wait/Waitall; rule 4(I) Waitany/Waitsome."""
    assert completion_needs_all(OpKind.WAIT)
    assert completion_needs_all(OpKind.WAITALL)
    assert not completion_needs_all(OpKind.WAITANY)
    assert not completion_needs_all(OpKind.WAITSOME)
    assert completion_needs_all(OpKind.TEST)
    assert not completion_needs_all(OpKind.TESTANY)


def test_completion_needs_all_rejects_non_completions():
    with pytest.raises(ValueError):
        completion_needs_all(OpKind.SEND)


class TestPerKindFlagTable:
    """The per-member flags are derived once from the frozensets; every
    flag and every ``is_*_kind`` function must equal the set predicate
    it replaced, for every kind."""

    FLAGS = {
        "send": lambda k: k in constants._SEND_KINDS,
        "recv": lambda k: k in constants._RECV_KINDS,
        "probe": lambda k: k in constants._PROBE_KINDS,
        "p2p": lambda k: (
            k in constants._SEND_KINDS
            or k in constants._RECV_KINDS
            or k in constants._PROBE_KINDS
        ),
        "nonblocking_p2p": lambda k: k in constants._NONBLOCKING_P2P_KINDS,
        "collective": lambda k: k in constants._COLLECTIVE_KINDS,
        "rooted_collective": lambda k: (
            k in constants._ROOTED_COLLECTIVE_KINDS
        ),
        "wait": lambda k: k in constants._WAIT_KINDS,
        "test": lambda k: k in constants._TEST_KINDS,
        "completion": lambda k: (
            k in constants._WAIT_KINDS or k in constants._TEST_KINDS
        ),
        "any_completion": lambda k: k in constants._ANY_COMPLETION_KINDS,
    }
    FUNCTIONS = {
        "send": is_send_kind,
        "recv": is_recv_kind,
        "probe": is_probe_kind,
        "p2p": is_p2p_kind,
        "nonblocking_p2p": is_nonblocking_p2p_kind,
        "collective": is_collective_kind,
        "rooted_collective": is_rooted_collective_kind,
        "wait": is_wait_kind,
        "test": is_test_kind,
        "completion": is_completion_kind,
    }

    @pytest.mark.parametrize("kind", list(OpKind))
    def test_every_flag_equals_its_set_predicate(self, kind):
        for flag, predicate in self.FLAGS.items():
            value = getattr(kind, flag)
            assert value is predicate(kind), (kind, flag)
            if flag in self.FUNCTIONS:
                assert self.FUNCTIONS[flag](kind) is value, (kind, flag)

    @pytest.mark.parametrize("kind", list(OpKind))
    def test_completion_needs_all_follows_the_table(self, kind):
        if kind.completion:
            assert completion_needs_all(kind) is (
                kind not in constants._ANY_COMPLETION_KINDS
            )
        else:
            with pytest.raises(ValueError):
                completion_needs_all(kind)

    def test_flags_are_not_enum_members(self):
        assert len(OpKind) == 41
        assert not hasattr(OpKind, "send")
        assert OpKind("MPI_Send") is OpKind.SEND


@pytest.mark.parametrize("kind", list(OpKind))
@pytest.mark.parametrize("peer", [0, PROC_NULL])
def test_operation_predicates_read_the_table(kind, peer):
    op = Operation(
        kind=kind, rank=1, ts=0, peer=peer, request=0, requests=(0,)
    )
    assert op.is_send() is kind.send
    assert op.is_recv() is kind.recv
    assert op.is_probe() is kind.probe
    assert op.is_p2p() is kind.p2p
    assert op.is_collective() is kind.collective
    assert op.is_completion() is kind.completion
    assert op.is_finalize() is (kind is OpKind.FINALIZE)
