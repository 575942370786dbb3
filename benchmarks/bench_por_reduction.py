"""Partial-order-reduction strength of the match-set explorer.

The wildcard verifier's POR prunes interleavings whose reordering is
provably irrelevant to deadlock reachability. On workloads made of
independent communication chains the naive search multiplies their
interleavings while the reduced search walks (close to) a single
chain — the reduction that makes `repro verify` usable beyond toy
scales.

Three cells, all measured on state counts (fully deterministic — no
timers involved, so no noise methodology is needed):

* **ping-pong pairs** (6 ranks, 3 rounds): independent directed pairs,
  the reduction's best case and the trajectory's scored claim;
* **wildcard stress** (4 ranks, 2 rounds): the same pairs with the odd
  rank receiving via ``MPI_ANY_SOURCE``. Each wildcard has exactly one
  possible sender, so there is no race and no branching: the reduced
  search treats it as directed and walks one chain here too;
* **wildcard groups** (3 groups of a master and two workers): real
  races — either worker may match either wildcard receive — in groups
  that never talk to each other. The naive search is the product of
  the groups (25 states each), the reduced search their sum.

Scored claim: naive/POR states ratio >= 5x on the ping-pong cell
(measured well above that; the floor leaves room for explorer-ordering
tweaks without masking a real regression).
"""
from repro.analysis import explore_extraction, extract_programs
from repro.workloads import (
    ping_pong_pairs_programs,
    wildcard_groups_programs,
    wildcard_stress_programs,
)

from _util import fmt_table, write_result

#: Scored reduction floor on the ping-pong cell.
REDUCTION_FLOOR = 5.0
#: State bound for the naive searches (all converge far below it).
MAX_STATES = 300_000


def _cell(name, programs):
    ext = extract_programs(list(programs))
    naive = explore_extraction(ext, por=False, max_states=MAX_STATES)
    reduced = explore_extraction(ext, por=True, max_states=MAX_STATES)
    assert naive.verdict == reduced.verdict, (
        f"{name}: POR changed the verdict "
        f"({naive.verdict} -> {reduced.verdict})"
    )
    ratio = naive.stats.states_explored / max(
        1, reduced.stats.states_explored
    )
    return {
        "verdict": str(naive.verdict),
        "naive_states": naive.stats.states_explored,
        "por_states": reduced.stats.states_explored,
        "ratio": ratio,
    }


def main() -> int:
    cells = {
        "ping_pong_pairs": _cell(
            "ping_pong_pairs", ping_pong_pairs_programs(6, rounds=3)
        ),
        "wildcard_stress": _cell(
            "wildcard_stress", wildcard_stress_programs(4, rounds=2)
        ),
        "wildcard_groups": _cell(
            "wildcard_groups", wildcard_groups_programs(3)
        ),
    }
    rows = [
        [name, c["verdict"], f"{c['naive_states']:,}",
         f"{c['por_states']:,}", f"{c['ratio']:.1f}x"]
        for name, c in cells.items()
    ]
    lines = fmt_table(
        ["workload", "verdict", "naive states", "POR states", "ratio"],
        rows,
    )
    claim = cells["ping_pong_pairs"]["ratio"]
    lines.append("")
    lines.append(
        f"POR state reduction (ping-pong pairs): {claim:.1f}x "
        f"(floor: {REDUCTION_FLOOR}x)"
    )
    write_result(
        "por_reduction",
        lines,
        data={
            "max_states": MAX_STATES,
            "reduction_floor": REDUCTION_FLOOR,
            "claim": {
                "workload": "ping_pong_pairs",
                "ratio": claim,
            },
            "cells": cells,
        },
    )
    if claim < REDUCTION_FLOOR:
        print(
            f"FAIL: POR reduction {claim:.1f}x below the "
            f"{REDUCTION_FLOOR}x floor"
        )
        return 1
    print(f"PASS: POR reduction {claim:.1f}x >= {REDUCTION_FLOOR}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
