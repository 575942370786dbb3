"""Two calls ``Rank`` rejects for a keyword it does not take: ``probe``
moves no data and has no ``nbytes``; ``tga`` is a typo of ``tag`` (read
as a default, the typo used to be a tag mismatch and a false REFUTED).
"""


def peek(rank):
    if rank.rank == 0:
        yield rank.probe(1, nbytes=4)
        yield rank.recv(1)
    elif rank.rank == 1:
        yield rank.send(0)
    yield rank.finalize()


def typo(rank):
    if rank.rank == 0:
        yield rank.send(dest=1, tga=5)
    elif rank.rank == 1:
        yield rank.recv(0, 5)
    yield rank.finalize()
