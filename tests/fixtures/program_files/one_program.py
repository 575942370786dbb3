"""One rank program: a ring shift, odd ranks receiving first."""


def shift(rank):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    if rank.rank % 2 == 0:
        yield rank.send(dest=right, tag=1)
        yield rank.recv(source=left, tag=1)
    else:
        yield rank.recv(source=left, tag=1)
        yield rank.send(dest=right, tag=1)
    yield rank.finalize()
