"""A call ``Rank`` rejects: ``barrier`` takes no positional argument.

The program raises ``TypeError`` at its first call, so there is nothing
to certify: ``repro prove`` answers UNDECIDABLE naming the call, ``repro
lint`` reports one ``bad-call`` error, the runners say the program
raised.
"""


def meet(rank):
    yield rank.barrier(3)
    yield rank.finalize()
