"""The per-operation records are slotted: no instance carries a
``__dict__``, so a field added without slots, or a new message class
declared without them, is caught here — and slotted messages still
cross the shard pipe (the wire codec) and the serve worker pipe
(pickle) unchanged."""
import dataclasses
import pickle

import pytest

from repro.core import messages
from repro.core.opstate import OpState
from repro.core.waitfor import GroupClause
from repro.matching.distributed_p2p import MatchEvent, _PostedRecv
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, OpKind
from repro.mpi.ops import Operation
from repro.mpi.serialize import decode_message, encode_message
from repro.runtime.matchstate import CollectiveWave, PendingRecv, PendingSend
from repro.runtime.program import Rank, Status

_SEND = Operation(kind=OpKind.SEND, rank=0, ts=3, peer=1, tag=7, nbytes=8)
_RECV = Operation(
    kind=OpKind.RECV, rank=1, ts=2, peer=ANY_SOURCE, observed_peer=0,
    location="app.py:12",
)
_PASS = messages.PassSend(
    send_rank=0, send_ts=3, comm_id=0, dest=1, tag=7, nbytes=8
)
_WAIT = messages.RankWaitInfo(
    rank=1,
    op_description=_RECV.describe(),
    entries=(
        messages.P2PWait(or_targets=(0,), reason="recv"),
        messages.P2PWait(
            or_targets=GroupClause((0, 1, 2), 1, "wildcard"),
            reason="wildcard",
        ),
        messages.CollectiveWait(comm_id=0, wave_index=4),
    ),
    or_semantics=True,
)

#: One instance of every message class, keyed by class name.
MESSAGES = {
    type(msg).__name__: msg
    for msg in (
        messages.NewOpMsg(_RECV),
        messages.RankDoneMsg(rank=2),
        _PASS,
        messages.RecvActive(
            send_rank=0, send_ts=3, recv_rank=1, recv_ts=2, probe=True
        ),
        messages.RecvActiveAck(recv_rank=1, recv_ts=2),
        messages.CollectiveReady(
            comm_id=0, wave_index=4, kind=OpKind.BCAST, root=0, count=3
        ),
        messages.CollectiveAck(comm_id=0, wave_index=4),
        messages.RequestConsistentState(detection_id=1),
        messages.Ping(detection_id=1, remaining=2),
        messages.Pong(detection_id=1, remaining=1),
        messages.AckConsistentState(detection_id=1, count=3),
        messages.RequestWaits(detection_id=1),
        _WAIT.entries[0],
        _WAIT.entries[2],
        _WAIT,
        messages.WaitInfoMsg(
            detection_id=1, node_id=5, infos=(_WAIT,), unblocked=(0,),
            finished=(2,),
        ),
    )
}

#: The classes carried only inside a WaitInfoMsg, never on their own.
NESTED = {"P2PWait", "CollectiveWait", "RankWaitInfo"}

#: One instance of every other slotted record, keyed by class name.
RECORDS = {
    type(record).__name__: record
    for record in (
        _SEND,
        Rank(0, CommRegistry(2).world).send(1, tag=7),
        Status(source=0, tag=7, nbytes=8),
        OpState(op=_SEND, activated=True, pending_probe_acks=[(1, 2)]),
        PendingSend(
            ref=(0, 3), comm_id=0, src=0, dst=1, tag=7, nbytes=8, seq=0,
            buffered=False,
        ),
        PendingRecv(ref=(1, 2), comm_id=0, dst=1, src=ANY_SOURCE, tag=7,
                    seq=0),
        CollectiveWave(comm_id=0, index=4, arrived={0: (0, 5)}),
        _PostedRecv(ref=(1, 2), comm_id=0, source=0, tag=7, is_probe=False),
        MatchEvent(recv_ref=(1, 2), send=_PASS, is_probe=False),
    )
}


def test_every_message_class_has_an_instance_here():
    declared = {
        name for name, obj in vars(messages).items()
        if dataclasses.is_dataclass(obj)
        and obj.__module__ == messages.__name__
    }
    assert declared == set(MESSAGES)
    assert len(declared) == 16


@pytest.mark.parametrize(
    "record", [*MESSAGES.values(), *RECORDS.values()],
    ids=[*MESSAGES, *RECORDS],
)
def test_the_record_is_slotted(record):
    assert "__slots__" in vars(type(record))
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(set(MESSAGES) - NESTED))
def test_a_message_round_trips_through_the_wire_codec(name):
    msg = MESSAGES[name]
    assert decode_message(encode_message(msg)) == msg


@pytest.mark.parametrize("name", sorted(NESTED))
def test_a_wait_entry_round_trips_inside_its_message(name):
    msg = MESSAGES["WaitInfoMsg"]
    decoded = decode_message(encode_message(msg))
    assert decoded == msg
    nested = {
        "RankWaitInfo": lambda m: m.infos[0],
        "P2PWait": lambda m: m.infos[0].entries[0],
        "CollectiveWait": lambda m: m.infos[0].entries[2],
    }[name]
    assert nested(decoded) == MESSAGES[name]


@pytest.mark.parametrize(
    "record", [*MESSAGES.values(), *RECORDS.values()],
    ids=[*MESSAGES, *RECORDS],
)
def test_the_record_round_trips_through_pickle(record):
    assert pickle.loads(pickle.dumps(record)) == record
