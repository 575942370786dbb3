"""Straggler fan-out: rank 0 serves everyone, one at a time.

Rank 0 sends ``ROUNDS`` rounds of one message to each of ranks 1..p-1
in turn; every other rank sits in ``MPI_Recv(MPI_ANY_SOURCE)`` until
its message comes. At any instant almost all ranks are blocked in a
wildcard receive, so a detection that fires mid-run builds a large
live OR-graph (about p*p/2 arcs) and must find it deadlock-free.
"""
from repro.mpi.constants import ANY_SOURCE

ROUNDS = 4


def straggler_programs(p, rounds=ROUNDS):
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
