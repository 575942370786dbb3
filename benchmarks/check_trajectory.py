#!/usr/bin/env python3
"""The perf-regression gate over ``results/BENCH_trajectory.json``.

``aggregate_trajectory.py`` folds every ``BENCH_*.json`` payload into
one trajectory artifact; this script pins the floors the repo's perf
story rests on and fails CI when a payload regresses past one — or
silently disappears. The floors deliberately sit below the measured
values (2.85x, ~12-17x, ~1.03x, ~475x at the time of writing) so
machine noise doesn't flap the gate while real regressions still trip
it.

Gated claims:

* **parallel_shards** — modeled detection-latency speedup at 4 shards,
  p=256 must stay >= 1.8x (the sharded backend's reason to exist);
* **classify_fastpath** — the decidable-fragment fast path is O(n):
  its cost per operation at the last (largest) cell of every workload
  family stays <= 1.5x the first (smallest) cell's;
* **flight_overhead** — the always-on flight recorder stays within the
  5% parity bound on every measured path;
* **obs_sharded_overhead** — cross-shard tracing + the BSP round
  profiler stay within the same 5% bound at p=256, s=8;
* **live_overhead** — the live health-telemetry layer (engine/backend
  snapshot ticks + health grading) stays within the same 5% bound at
  p=256, s=8;
* **por_reduction** — partial-order reduction keeps >= 5x state-count
  reduction on the ping-pong-pairs cell;
* **prove** — one ``PROVED-ALL-P`` certificate must stay >= 5x
  cheaper than the equivalent 8-size ``repro verify`` sweep.

Run:  python benchmarks/check_trajectory.py [trajectory.json]
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
DEFAULT_TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"

#: Scored floors/bounds. Keep in sync with the constants in the
#: individual benches (each bench also self-gates; this gate catches
#: regressions across runs and *missing* payloads).
SHARDS_SPEEDUP_FLOOR = 1.8
FASTPATH_PER_OP_GROWTH_BOUND = 1.5
OVERHEAD_PARITY_BOUND = 0.05
POR_REDUCTION_FLOOR = 5.0
PROVE_SPEEDUP_FLOOR = 5.0


def _check_parallel_shards(payload: dict) -> list:
    claim = payload.get("claim", {})
    speedup = float(claim.get("modeled_speedup", 0.0))
    if speedup < SHARDS_SPEEDUP_FLOOR:
        return [
            f"parallel_shards: modeled speedup {speedup:.2f}x at "
            f"{claim.get('shards')} shards, p={claim.get('p')} is below "
            f"the {SHARDS_SPEEDUP_FLOOR}x floor"
        ]
    return []


def _check_classify_fastpath(payload: dict) -> list:
    problems = []
    series = payload.get("series", {})
    if not series:
        return ["classify_fastpath: payload has no series"]
    for family in sorted(series):
        cells = series[family]
        if not cells:
            problems.append(f"classify_fastpath: family {family} is empty")
            continue
        first, last = cells[0], cells[-1]
        base = float(first.get("fast_us_per_op", 0.0))
        top = float(last.get("fast_us_per_op", 0.0))
        if not base or not top:
            problems.append(
                f"classify_fastpath: family {family} has no per-op cost"
            )
        elif top > FASTPATH_PER_OP_GROWTH_BOUND * base:
            problems.append(
                f"classify_fastpath: {family} costs {top:.2f} us/op at "
                f"p={last.get('p')}, {top / base:.2f}x its "
                f"{base:.2f} us/op at p={first.get('p')} (bound "
                f"{FASTPATH_PER_OP_GROWTH_BOUND}x)"
            )
    return problems


def _check_flight_overhead(payload: dict) -> list:
    problems = []
    bound = 1.0 + OVERHEAD_PARITY_BOUND
    series = payload.get("series", {})
    if not series:
        return ["flight_overhead: payload has no series"]
    for p in sorted(series):
        for path in sorted(series[p]):
            ratio = float(series[p][path].get("ratio", 0.0))
            if ratio >= bound:
                problems.append(
                    f"flight_overhead: {path} at p={p} ratio "
                    f"{ratio:.3f}x exceeds the {bound:.2f}x bound"
                )
    return problems


def _check_obs_sharded_overhead(payload: dict) -> list:
    claim = payload.get("claim", {})
    ratio = float(claim.get("ratio", 0.0))
    bound = 1.0 + OVERHEAD_PARITY_BOUND
    if not ratio:
        return ["obs_sharded_overhead: payload has no claim ratio"]
    if ratio >= bound:
        return [
            f"obs_sharded_overhead: tracing overhead {ratio:.3f}x at "
            f"p={claim.get('p')}, s={claim.get('shards')} exceeds the "
            f"{bound:.2f}x bound"
        ]
    return []


def _check_live_overhead(payload: dict) -> list:
    claim = payload.get("claim", {})
    ratio = float(claim.get("ratio", 0.0))
    bound = 1.0 + OVERHEAD_PARITY_BOUND
    if not ratio:
        return ["live_overhead: payload has no claim ratio"]
    if ratio >= bound:
        return [
            f"live_overhead: telemetry overhead {ratio:.3f}x at "
            f"p={claim.get('p')}, s={claim.get('shards')} exceeds the "
            f"{bound:.2f}x bound"
        ]
    return []


def _check_por_reduction(payload: dict) -> list:
    claim = payload.get("claim", {})
    ratio = float(claim.get("ratio", 0.0))
    if ratio < POR_REDUCTION_FLOOR:
        return [
            f"por_reduction: state reduction {ratio:.1f}x on "
            f"{claim.get('workload')} is below the "
            f"{POR_REDUCTION_FLOOR}x floor"
        ]
    return []


def _check_prove(payload: dict) -> list:
    claim = payload.get("claim", {})
    speedup = float(claim.get("speedup", 0.0))
    if speedup < PROVE_SPEEDUP_FLOOR:
        return [
            f"prove: certificate speedup {speedup:.1f}x over the "
            f"{len(claim.get('sweep_sizes', []))}-size verify sweep is "
            f"below the {PROVE_SPEEDUP_FLOOR}x floor"
        ]
    return []


#: bench name -> checker. Every entry is REQUIRED: a missing payload
#: is itself a gate failure (a deleted bench must delete its gate).
CHECKS = {
    "parallel_shards": _check_parallel_shards,
    "classify_fastpath": _check_classify_fastpath,
    "flight_overhead": _check_flight_overhead,
    "obs_sharded_overhead": _check_obs_sharded_overhead,
    "live_overhead": _check_live_overhead,
    "por_reduction": _check_por_reduction,
    "prove": _check_prove,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else DEFAULT_TRAJECTORY
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load trajectory {path}: {exc}", file=sys.stderr)
        return 2
    benches = doc.get("benches", {})
    problems = []
    for name, check in CHECKS.items():
        payload = benches.get(name)
        if payload is None:
            problems.append(
                f"{name}: no payload in the trajectory (run "
                f"benchmarks/bench_{name}.py, then aggregate)"
            )
            continue
        problems.extend(check(payload))
    checked = sum(1 for name in CHECKS if name in benches)
    if problems:
        print(
            f"trajectory gate: {len(problems)} regression(s) over "
            f"{checked}/{len(CHECKS)} payload(s):"
        )
        for problem in problems:
            print(f"  FAIL {problem}")
        return 1
    print(
        f"trajectory gate: all {len(CHECKS)} gated claims hold "
        f"({path.name})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
