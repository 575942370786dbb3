"""The named-workload table: what ``repro record|demo|watch <name>``
and a ``repro serve`` workload job run.

Importing this module loads the workload builders and with them the
virtual runtime, so the CLI imports it only in the commands that run a
workload.
"""
from __future__ import annotations

import math
from typing import Any, Callable, Dict, Generator, List

from repro.workloads.micro import (
    fig2a_programs,
    fig2b_programs,
    fig4_programs,
)
from repro.workloads.softhang import (
    soft_hang_imbalance_programs,
    straggler_collective_programs,
)
from repro.workloads.specmpi import (
    gapgeofem_skeleton_programs,
    halo2d_programs,
    lammps_skeleton_programs,
)
from repro.workloads.stress import stress_programs
from repro.workloads.wildcard import wildcard_deadlock_programs


def _persistent_ring_programs(p: int) -> List[Any]:
    def ring(r: Any) -> Generator[Any, Any, None]:
        right = (r.rank + 1) % r.size
        left = (r.rank - 1) % r.size
        sreq = yield r.send_init(right, tag=1)
        rreq = yield r.recv_init(left, tag=1)
        for _ in range(5):
            yield from r.startall([sreq, rreq])
            yield r.waitall([sreq, rreq])
        yield r.request_free(sreq)
        yield r.request_free(rreq)
        yield r.finalize()

    return [ring] * p


#: name -> builder of the rank programs for a world of ``p`` ranks
NAMED_WORKLOADS: Dict[str, Callable[[int], List[Any]]] = {
    "fig2a": lambda p: fig2a_programs(),
    "fig2b": lambda p: fig2b_programs(),
    "fig4": lambda p: fig4_programs(),
    "stress": lambda p: stress_programs(p, iterations=20),
    "wildcard": wildcard_deadlock_programs,
    "lammps": lammps_skeleton_programs,
    "gapgeofem": lambda p: gapgeofem_skeleton_programs(p, iterations=50),
    "halo2d": lambda p: halo2d_programs(
        max(2, int(math.sqrt(p))), max(2, int(math.sqrt(p)))
    ),
    "persistent-ring": _persistent_ring_programs,
    "soft-hang": soft_hang_imbalance_programs,
    "straggler": straggler_collective_programs,
}
