"""A script without a ``__main__`` guard: importing it exits."""
import sys


def meet(rank):
    yield rank.barrier()
    yield rank.finalize()


sys.exit(3)
