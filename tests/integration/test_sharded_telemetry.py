"""Sharded telemetry against what the coordinator knows.

Shard workers stamp on the coordinator tracer's epoch, so each
``shard.round`` span of the merged trace must sit inside the
coordinator's ``coord.round`` span of the same round: the coordinator
stamps before it ships the round and after the shard's reply. The
profile's traffic counts must add up to the backend's own routing
counters, since every cross-process message passes through the
coordinator.
"""
import json

import pytest

from repro.api import Session
from repro.cli import main
from repro.workloads.named import NAMED_WORKLOADS


def test_shard_round_spans_nest_in_their_coordinator_round(tmp_path):
    trace = tmp_path / "run.trace.json"
    code = main([
        "demo", "lammps", "-n", "64",
        "--backend", "sharded", "--shards", "2",
        "--obs-trace", str(trace),
    ])
    assert code == 1
    with open(trace) as handle:
        events = json.load(handle)["traceEvents"]
    coord = {
        e["args"]["round"]: e for e in events if e.get("cat") == "coord.round"
    }
    rounds = [e for e in events if e.get("cat") == "shard.round"]
    assert coord and len(rounds) == 2 * len(coord)
    outside = [
        e for e in rounds
        if not (
            coord[e["args"]["round"]]["ts"] <= e["ts"]
            and e["ts"] + e["dur"]
            <= coord[e["args"]["round"]]["ts"]
            + coord[e["args"]["round"]]["dur"]
        )
    ]
    assert outside == []


@pytest.mark.parametrize("workload", ["lammps", "halo2d"])
def test_profile_traffic_totals_match_the_backend_counters(workload):
    with Session(backend="sharded", shards=3, observe=True) as session:
        session.run(NAMED_WORKLOADS[workload](64))
        counters = session.observer.metrics.dump_state()["counters"]
        profile = session.backend.last_profile
    cross = counters["backend.cross_shard_msgs"]
    relayed = counters["backend.relayed_msgs"]
    shards = profile["shards"].values()
    sources = {}
    for entry in profile["rounds"]:
        for shard in entry["shards"].values():
            for source, count in shard["sources"].items():
                sources[source] = sources.get(source, 0) + count
    from_shards = sum(n for source, n in sources.items() if source != "c")
    assert cross > 0
    assert sum(s["msgs_out"] for s in shards) == cross + relayed
    assert from_shards == cross
    assert sum(s["msgs_in"] for s in shards) == cross + sources["c"]
