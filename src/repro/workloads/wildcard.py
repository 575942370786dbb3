"""The wildcard-receive deadlock case of Figure 10.

Every process issues a wildcard receive without any send being issued:
the run hangs immediately and the wait-for graph has maximal size —
``p * (p - 1)`` arcs (the paper rounds to ``p^2``), every process
OR-waiting on every other. This is the graph-detection stress case for
the centralized WfgCheck at the root.
"""
from __future__ import annotations

from typing import Iterator, List

from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, OpKind
from repro.mpi.ops import Operation
from repro.mpi.trace import MatchedTrace, Trace
from repro.runtime.engine import RankProgram
from repro.runtime.program import Call, Rank


def wildcard_deadlock_programs(p: int) -> List[RankProgram]:
    """Rank programs: one unmatched wildcard receive per process."""

    def worker(rank: Rank) -> Iterator[Call]:
        yield rank.recv(source=ANY_SOURCE)
        yield rank.finalize()

    return [worker] * p


def wildcard_master_worker_programs() -> List[RankProgram]:
    """Three ranks whose deadlock hinges on one wildcard choice.

    Rank 0 posts a wildcard receive and then a receive directed at
    rank 1; ranks 1 and 2 each send one message to rank 0. When the
    wildcard matches rank 2 the directed receive pairs with rank 1 and
    everything completes; when it matches rank 1 first, rank 1 has
    nothing left to send — rank 0 blocks forever in the directed
    receive and rank 2's rendezvous send never pairs. Only match-set
    exploration (``repro verify``) sees the deadlocking branch; a
    single random run usually completes.
    """

    def master(rank: Rank) -> Iterator[Call]:
        yield rank.recv(source=ANY_SOURCE, tag=0)
        yield rank.recv(source=1, tag=0)
        yield rank.finalize()

    def worker(rank: Rank) -> Iterator[Call]:
        yield rank.send(0, tag=0)
        yield rank.finalize()

    return [master, worker, worker]


def wildcard_stress_programs(p: int, rounds: int = 3) -> List[RankProgram]:
    """Wildcard-spelled pair ping-pong, deadlock-free and race-free.

    Ranks pair up (0,1), (2,3), …; each pair ping-pongs ``rounds``
    times with the odd rank receiving via ``MPI_ANY_SOURCE``. Only its
    partner ever sends to an odd rank, so each wildcard has exactly
    one possible sender and no matching is ever in doubt: the naive
    search is the product of the pairs' interleavings (22 states per
    pair at ``rounds=3``), the reduced search one chain (14 states per
    pair). For real races see :func:`wildcard_groups_programs`.
    """
    if p < 2 or p % 2:
        raise ValueError("need a positive even rank count")

    def even(rank: Rank) -> Iterator[Call]:
        peer = rank.rank + 1
        for _ in range(rounds):
            yield rank.send(peer, tag=0)
            yield rank.recv(source=peer, tag=0)
        yield rank.finalize()

    def odd(rank: Rank) -> Iterator[Call]:
        peer = rank.rank - 1
        for _ in range(rounds):
            yield rank.recv(source=ANY_SOURCE, tag=0)
            yield rank.send(peer, tag=0)
        yield rank.finalize()

    return [even if i % 2 == 0 else odd for i in range(p)]


def wildcard_groups_programs(k: int) -> List[RankProgram]:
    """``k`` independent master/two-worker groups, deadlock-free.

    Ranks ``3g, 3g+1, 3g+2`` form group ``g``: the master posts two
    ``MPI_ANY_SOURCE`` receives and each worker sends it one message,
    so every group holds a real race (either worker may match first)
    and no message crosses groups. The naive search is the product of
    the groups (25 states each); exploring one group after another is
    their sum.
    """
    if k < 1:
        raise ValueError("need at least one group")

    def master(rank: Rank) -> Iterator[Call]:
        yield rank.recv(source=ANY_SOURCE, tag=0)
        yield rank.recv(source=ANY_SOURCE, tag=0)
        yield rank.finalize()

    def worker(rank: Rank) -> Iterator[Call]:
        yield rank.send(rank.rank - rank.rank % 3, tag=0)
        yield rank.finalize()

    return [master if i % 3 == 0 else worker for i in range(3 * k)]


def ping_pong_pairs_programs(p: int, rounds: int = 3) -> List[RankProgram]:
    """Directed (wildcard-free) pair ping-pong, deadlock-free.

    Same shape as :func:`wildcard_stress_programs` but fully directed:
    every transition is independent across pairs, so naive enumeration
    is exponential in the pair count while the partial-order reduction
    collapses the graph to a single chain.
    """
    if p < 2 or p % 2:
        raise ValueError("need a positive even rank count")

    def even(rank: Rank) -> Iterator[Call]:
        peer = rank.rank + 1
        for _ in range(rounds):
            yield rank.send(peer, tag=0)
            yield rank.recv(source=peer, tag=0)
        yield rank.finalize()

    def odd(rank: Rank) -> Iterator[Call]:
        peer = rank.rank - 1
        for _ in range(rounds):
            yield rank.recv(source=peer, tag=0)
            yield rank.send(peer, tag=0)
        yield rank.finalize()

    return [even if i % 2 == 0 else odd for i in range(p)]


def build_wildcard_trace(p: int) -> MatchedTrace:
    """Directly construct the hung trace: one pending Recv(ANY) each.

    The receives never completed, so their wildcard source is
    unresolved and no match exists — exactly what the tool sees when
    the application hangs before any message flows.
    """
    if p < 2:
        raise ValueError("need at least two ranks")
    sequences = [
        [
            Operation(
                kind=OpKind.RECV, rank=rank, ts=0, peer=ANY_SOURCE, nbytes=4
            )
        ]
        for rank in range(p)
    ]
    trace = Trace(sequences)
    return MatchedTrace(trace, CommRegistry(p))
