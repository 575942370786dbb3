"""Importing this module raises."""


def meet(rank):
    yield rank.barrier()
    yield rank.finalize()


raise RuntimeError("broken at import")
