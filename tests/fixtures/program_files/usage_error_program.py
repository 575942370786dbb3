"""A rank program that uses MPI incorrectly: the engine raises
``MpiUsageError`` for the wait on a request that does not exist."""


def waits_twice(rank):
    request = yield rank.irecv(source=rank.rank, tag=6)
    yield rank.send(dest=rank.rank, tag=6)
    yield rank.wait(request)
    yield rank.wait(request)
    yield rank.finalize()
