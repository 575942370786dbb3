"""An MPMD job named the one way there is: ``LINT_PROGRAMS``. The two
discovered programs are its ranks, not jobs of their own."""


def root(rank):
    for source in range(1, rank.size):
        yield rank.recv(source=source, tag=4)
    yield rank.finalize()


def leaf(rank):
    yield rank.send(dest=0, tag=4)
    yield rank.finalize()


LINT_PROGRAMS = [root, leaf, leaf]
