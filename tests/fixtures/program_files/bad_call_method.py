"""A method ``Rank`` does not have: ``sendd`` is no MPI call."""


def meet(rank):
    yield rank.barrier()
    yield rank.sendd(1)
    yield rank.finalize()
