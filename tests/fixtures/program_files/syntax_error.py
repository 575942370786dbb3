"""Does not parse."""


def meet(rank):
    yield rank.barrier(
    yield rank.finalize()
