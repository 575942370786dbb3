"""A rank program with a bug of its own: it raises after a barrier."""


def buggy(rank):
    yield rank.barrier()
    raise ValueError("user bug")
