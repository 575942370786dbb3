"""One rank program and the helper generator it is written with.

``exchange`` takes a second argument, so it is no rank program: it is
inlined where ``shift`` drives it (DESIGN.md section 13). Every rank
receives first, so every rank deadlocks.
"""


def exchange(rank, tag):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    yield rank.recv(source=left, tag=tag)
    yield rank.send(dest=right, tag=tag)


def shift(rank):
    yield from exchange(rank, 3)
    yield rank.finalize()
