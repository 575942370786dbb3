"""Two rank programs and no ``LINT_PROGRAMS``: the static commands
report on each as its own SPMD job; a runner has no one job to run."""


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


def ring(rank):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    yield rank.recv(source=left, tag=2)
    yield rank.send(dest=right, tag=2)
    yield rank.finalize()
