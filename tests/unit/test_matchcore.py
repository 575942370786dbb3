"""The matching core: linear cost, recorded outcomes, lint's tolerance."""
import time

from repro.analysis import (
    extract_programs,
    match_linear,
    match_sequences,
)
from repro.analysis.matchcore import MatchState, Tables
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_TAG, OpKind
from repro.mpi.ops import Operation


def _sequences(*per_rank):
    """Operation lists from ``(kind, fields)`` pairs, ``ts`` filled in."""
    return [
        [
            Operation(kind=kind, rank=rank, ts=ts, **fields)
            for ts, (kind, fields) in enumerate(ops)
        ]
        for rank, ops in enumerate(per_rank)
    ]


def _per_op_seconds(run, ops):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best / ops


# ----------------------------------------------------------------------
# Cost per operation does not grow with the input
# ----------------------------------------------------------------------

def _deep_channel(n, recv_tag):
    """``isend`` x n and one ``waitall`` against ``recv`` x n: every
    message is queued before the first receive is posted."""
    sender = [
        (OpKind.ISEND, dict(peer=1, tag=i % 4, request=i)) for i in range(n)
    ]
    sender.append((OpKind.WAITALL, dict(requests=tuple(range(n)))))
    sender.append((OpKind.FINALIZE, {}))
    receiver = [
        (OpKind.RECV, dict(peer=0, tag=i % 4 if recv_tag is None else recv_tag))
        for i in range(n)
    ]
    receiver.append((OpKind.FINALIZE, {}))
    return _sequences(sender, receiver)


def _deep_channel_cost(n, recv_tag):
    sequences = _deep_channel(n, recv_tag)
    comms = CommRegistry(2)
    result = match_linear(sequences, comms)
    assert not result.has_deadlock
    assert result.ops_processed == 2 * n + 3
    return _per_op_seconds(lambda: match_linear(sequences, comms), 2 * n)


def test_deep_channel_costs_the_same_per_message_tagged():
    small = _deep_channel_cost(2_000, None)
    assert _deep_channel_cost(16_000, None) <= 3 * small


def test_deep_channel_costs_the_same_per_message_any_tag():
    small = _deep_channel_cost(2_000, ANY_TAG)
    assert _deep_channel_cost(16_000, ANY_TAG) <= 3 * small


def _reverse_chain_cost(p):
    """Rank r receives from r+1 and then sends to r-1, so the only
    runnable rank is the last one and readiness travels downwards —
    against the order a rank-by-rank sweep visits them in."""
    def link(rank):
        if rank.rank < rank.size - 1:
            yield rank.recv(source=rank.rank + 1)
        if rank.rank > 0:
            yield rank.send(rank.rank - 1)
        yield rank.finalize()

    ext = extract_programs([link] * p)
    result = match_sequences(ext.sequences, ext.comms)
    assert result.applicable and not result.has_deadlock
    assert result.finished == set(range(p))
    return _per_op_seconds(
        lambda: match_sequences(ext.sequences, ext.comms), 3 * p
    )


def test_reverse_receive_chain_costs_the_same_per_rank():
    small = _reverse_chain_cost(256)
    assert _reverse_chain_cost(2_048) <= 3 * small


# ----------------------------------------------------------------------
# Recorded outcomes decide completions (`observed=True`)
# ----------------------------------------------------------------------

def _waitany_trace(completed):
    """Rank 0 posts two receives and a ``waitany`` the run saw complete
    on ``completed``; only the second message is ever sent."""
    return _sequences(
        [
            (OpKind.IRECV, dict(peer=1, tag=1, request=0)),
            (OpKind.IRECV, dict(peer=1, tag=2, request=1)),
            (OpKind.WAITANY, dict(requests=(0, 1), completed_indices=completed)),
            (OpKind.FINALIZE, {}),
        ],
        [
            (OpKind.SEND, dict(peer=0, tag=2)),
            (OpKind.FINALIZE, {}),
        ],
    )


def test_a_recorded_waitany_waits_for_the_request_the_run_saw():
    comms = CommRegistry(2)
    seen = match_sequences(_waitany_trace((1,)), comms, resolve_observed=True)
    assert seen.applicable and not seen.has_deadlock
    # The record names the request that never completes: the model's own
    # rule (lowest-index done request) would have let the rank through.
    other = match_sequences(_waitany_trace((0,)), comms, resolve_observed=True)
    assert other.deadlocked == (0,)
    assert other.blocked_ops[0].kind is OpKind.WAITANY
    unrecorded = match_sequences(_waitany_trace(()), comms)
    assert not unrecorded.has_deadlock


def test_a_recorded_test_consumes_what_the_run_saw_complete():
    def trace(flag):
        return _sequences(
            [
                (OpKind.IRECV, dict(peer=1, request=0)),
                (OpKind.BARRIER, {}),
                (OpKind.TEST, dict(requests=(0,), test_flag=flag)),
                (OpKind.WAIT, dict(requests=(0,))),
                (OpKind.FINALIZE, {}),
            ],
            [
                (OpKind.BSEND, dict(peer=0)),
                (OpKind.BARRIER, {}),
                (OpKind.FINALIZE, {}),
            ],
        )

    comms = CommRegistry(2)
    # A failed test leaves the request for the wait ...
    failed = match_sequences(trace(False), comms, resolve_observed=True)
    assert not failed.has_deadlock and failed.finished == {0, 1}
    # ... a successful one consumed it, so the wait reuses a completed
    # request: the typestate check reports that, the replay parks the
    # rank instead of refusing the trace.
    passed = match_sequences(trace(True), comms, resolve_observed=True)
    assert set(passed.blocked_ops) == {0}
    assert passed.blocked_ops[0].kind is OpKind.WAIT
    assert not passed.has_deadlock


# ----------------------------------------------------------------------
# Stepping tolerates what the verify entry points refuse
# ----------------------------------------------------------------------

def test_mismatched_waves_still_step():
    sequences = _sequences(
        [(OpKind.BARRIER, {}), (OpKind.FINALIZE, {})],
        [(OpKind.ALLREDUCE, {}), (OpKind.FINALIZE, {})],
    )
    result = match_sequences(sequences, CommRegistry(2))
    assert result.applicable and result.finished == {0, 1}


# ----------------------------------------------------------------------
# One string per envelope, consumed in order
# ----------------------------------------------------------------------

def test_any_tag_receive_skips_what_tagged_receives_took():
    sequences = _sequences(
        [
            (OpKind.BSEND, dict(peer=1, tag=1)),
            (OpKind.BSEND, dict(peer=1, tag=2)),
            (OpKind.BSEND, dict(peer=1, tag=1)),
            (OpKind.FINALIZE, {}),
        ],
        [
            (OpKind.BARRIER, {}),
        ],
    )
    tables = Tables(sequences, CommRegistry(2))
    state = MatchState(tables)
    for _ in range(3):
        state.step(0)
    channel = tables.channels[(0, 0, 1)]
    assert state._head(channel, ANY_TAG) == 0
    assert state._head(channel, 2) == 1
    state.taken[channel.by_tag[1]] += 1  # a tag-1 receive took message 0
    assert state._head(channel, ANY_TAG) == 1
    state.taken[channel.by_tag[2]] += 1
    assert state._head(channel, ANY_TAG) == 2
    assert state._head(channel, 2) == -1
