"""The cross-process wire codec round-trips every protocol message.

The sharded backend ships all first-layer traffic through
``encode_message``/``decode_message``; a field lost here would
silently change matching or wait-state decisions in a worker, so
every dataclass in ``repro.core.messages`` must survive the trip
bit-for-bit (dataclass equality).
"""
import pytest

from repro.core.messages import (
    AckConsistentState,
    CollectiveAck,
    CollectiveReady,
    CollectiveWait,
    NewOpMsg,
    P2PWait,
    PassSend,
    Ping,
    Pong,
    RankDoneMsg,
    RankWaitInfo,
    RecvActive,
    RecvActiveAck,
    RequestConsistentState,
    RequestWaits,
    WaitInfoMsg,
)
from repro.mpi.blocking import BlockingSemantics
from repro.mpi.ops import OpKind
from repro.mpi.serialize import (
    decode_message,
    encode_message,
    message_context,
)
from repro.runtime import run_programs
from repro.util.errors import TraceError


def _roundtrip(msg):
    tag, payload = encode_message(msg)
    assert isinstance(tag, str)
    return decode_message((tag, payload))


SIMPLE_MESSAGES = [
    RankDoneMsg(rank=3),
    PassSend(send_rank=1, send_ts=4, comm_id=0, dest=2, tag=7, nbytes=64),
    RecvActive(send_rank=1, send_ts=4, recv_rank=2, recv_ts=9, probe=False),
    RecvActive(send_rank=1, send_ts=4, recv_rank=2, recv_ts=9, probe=True),
    RecvActiveAck(recv_rank=2, recv_ts=9, probe=False),
    CollectiveReady(
        comm_id=0, wave_index=2, kind=OpKind.REDUCE, root=1, count=4
    ),
    CollectiveReady(
        comm_id=1, wave_index=0, kind=OpKind.BARRIER, root=None, count=8
    ),
    CollectiveAck(comm_id=0, wave_index=2),
    RequestConsistentState(detection_id=5),
    Ping(detection_id=5, remaining=3),
    Pong(detection_id=5, remaining=0),
    AckConsistentState(detection_id=5, count=2),
    RequestWaits(detection_id=5),
]


@pytest.mark.parametrize(
    "msg", SIMPLE_MESSAGES, ids=lambda m: type(m).__name__
)
def test_simple_messages_roundtrip(msg):
    assert _roundtrip(msg) == msg


def test_wait_info_roundtrips_with_nested_entries():
    msg = WaitInfoMsg(
        detection_id=7,
        node_id=12,
        infos=(
            RankWaitInfo(
                rank=0,
                op_description="MPI_Recv(src=1)",
                entries=(P2PWait(or_targets=(1, 3), reason="recv"),),
                or_semantics=True,
            ),
            RankWaitInfo(
                rank=1,
                op_description="MPI_Barrier",
                entries=(CollectiveWait(comm_id=0, wave_index=4),),
            ),
        ),
        unblocked=(2,),
        finished=(3, 4),
    )
    assert _roundtrip(msg) == msg


def test_group_clause_entry_roundtrips_without_expanding():
    """A wildcard wait crosses the wire as one ``g`` entry holding the
    group tuple itself; it decodes (and survives the pickle the shard
    queues add) to an equal clause that is still compact, and the
    message's modeled size is that of the expanded form."""
    import pickle

    from repro.core.waitfor import GroupClause

    group = tuple(range(0, 64, 2))
    infos = tuple(
        RankWaitInfo(
            rank=rank,
            op_description="MPI_Recv(ANY)",
            entries=(P2PWait(GroupClause(group, rank, "wildcard"), "wildcard"),),
        )
        for rank in group[:4]
    )
    msg = WaitInfoMsg(detection_id=3, node_id=9, infos=infos)
    tag, payload = encode_message(msg)
    entries = [info[2][0] for info in payload[2]]
    assert [e[0] for e in entries] == ["g"] * 4
    assert all(e[1] is group for e in entries)

    back = decode_message(pickle.loads(pickle.dumps((tag, payload))))
    assert back == msg
    clauses = [info.entries[0].or_targets for info in back.infos]
    assert all(type(c) is GroupClause for c in clauses)
    assert all(c.group is clauses[0].group for c in clauses)
    expanded = WaitInfoMsg(
        detection_id=3,
        node_id=9,
        infos=tuple(
            RankWaitInfo(
                rank=info.rank,
                op_description=info.op_description,
                entries=(P2PWait(tuple(info.entries[0].or_targets), "wildcard"),),
            )
            for info in infos
        ),
    )
    assert back.wire_size == msg.wire_size == expanded.wire_size
    # Every other entry keeps its context-free format.
    assert encode_message(expanded)[1][2][0][2][0] == (
        "p", tuple(group[1:]), "wildcard"
    )


def test_new_op_roundtrips_every_traced_operation():
    """Every operation a real run produces — sends (all modes),
    wildcard receives, nonblocking ops, collectives, finalize —
    survives the wire unchanged."""
    from repro.workloads.randomgen import safe_program_set

    gen = safe_program_set(
        p=3, events=12, seed=11, allow_wildcards=True,
        allow_collectives=True,
    )
    res = run_programs(
        gen.programs(), semantics=BlockingSemantics.relaxed(), seed=11
    )
    total = 0
    for rank in range(3):
        for op in res.matched.trace.sequence(rank):
            assert _roundtrip(NewOpMsg(op)) == NewOpMsg(op)
            total += 1
    assert total > 10


@pytest.mark.parametrize(
    "msg", SIMPLE_MESSAGES, ids=lambda m: type(m).__name__
)
def test_context_rides_the_wire_unchanged(msg):
    """A trace context is carried exactly and does not perturb the
    decoded message."""
    ctx = (7, 3, 42, 0)
    data = encode_message(msg, ctx)
    assert len(data) == 3
    assert message_context(data) == ctx
    assert decode_message(data) == msg


@pytest.mark.parametrize(
    "msg", SIMPLE_MESSAGES, ids=lambda m: type(m).__name__
)
def test_context_free_wire_format_is_unchanged(msg):
    """Without a context the wire tuple is the exact two-element PR 5
    format — enabling tracing later cannot move equivalence baselines."""
    data = encode_message(msg)
    assert len(data) == 2
    assert data == encode_message(msg, None)
    assert message_context(data) is None


def test_unknown_message_type_is_rejected():
    with pytest.raises(TraceError, match="no wire codec"):
        encode_message(object())


def test_unknown_tag_is_rejected():
    with pytest.raises(TraceError, match="no wire codec"):
        decode_message(("Bogus", ()))
