"""One rank program in a module that defines a dataclass under
postponed annotations: ``@dataclass`` looks its module up in
``sys.modules`` while the class body is being processed."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Halo:
    width: int = 1
    tag: int = 5


def ring(rank):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    yield from rank.sendrecv(dest=right, source=left, sendtag=5, recvtag=5)
    yield rank.barrier()
    yield rank.finalize()
