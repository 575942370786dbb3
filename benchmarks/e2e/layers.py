"""Per-layer probes: direct timed calls into each module's public API.

Every function returns samples keyed by the metric names of
``metrics.PER_LAYER``. A probe is run by the workloads whose path goes
through its layer; elsewhere the layer's metrics read 0.
"""
from __future__ import annotations

import json
import os
import statistics
from typing import Any, List, Optional, Sequence

from repro.analysis.explore import explore_extraction
from repro.analysis.extract import extract_programs
from repro.analysis.symbolic.fragments import decide_extraction
from repro.analysis.witness import replay_witness
from repro.backend.base import InlineBackend
from repro.backend.sharded import ShardedBackend
from repro.core.detector import DistributedDeadlockDetector
from repro.core.messages import NewOpMsg
from repro.mpi.serialize import (
    decode_message,
    encode_message,
    load_trace,
    save_trace,
)
from repro.mpi.trace import MatchedTrace
from repro.runtime import run_programs
from repro.tbon.network import Network
from repro.tbon.topology import TbonTopology
from repro.wfg.detect import detect_deadlock
from repro.wfg.dot import render_dot
from repro.wfg.graph import WaitForGraph
from repro.wfg.report import render_html_report, render_json_report
from repro.wfg.simplify import simplify

from harness import Context, Samples

#: Messages the codec and TBON probes push through.
PROBE_MSGS = 20_000


def cli_startup(ctx: Context) -> Samples:
    walls = []
    for _ in range(ctx.quick_reps):
        code, _out, took = ctx.run_repro(["--help"])
        if code != 0:
            raise RuntimeError("`python -m repro --help` failed")
        walls.append(took.wall)
    return {"cli.startup_s": walls}


def runtime(ctx: Context, programs: Sequence[Any]) -> Samples:
    result, walls = ctx.repeat(lambda: run_programs(programs, seed=ctx.seed))
    ops = result.trace.total_ops()
    return {
        "runtime.record_s": walls,
        "runtime.ops": [ops],
        "runtime.ops_per_s": [ops / wall for wall in walls],
    }


def mpi(ctx: Context, matched: MatchedTrace) -> Samples:
    path = str(ctx.tmp / "probe-trace.json")
    _, saves = ctx.repeat(lambda: save_trace(matched, path))
    _, loads = ctx.repeat(lambda: load_trace(path))
    msgs = []
    for rank in range(matched.trace.num_processes):
        msgs.extend(NewOpMsg(op) for op in matched.trace.sequence(rank))
        if len(msgs) >= PROBE_MSGS:
            break

    def codec() -> None:
        for msg in msgs:
            decode_message(encode_message(msg))

    _, codecs = ctx.repeat(codec)
    return {
        "mpi.save_s": saves,
        "mpi.load_s": loads,
        "mpi.trace_bytes": [os.path.getsize(path)],
        "mpi.codec_msgs_per_s": [len(msgs) / wall for wall in codecs],
    }


def core(
    ctx: Context,
    matched: MatchedTrace,
    detect_at: Sequence[float],
    outcome: Any,
    verdict_wall: float,
    full_walls: Optional[List[float]] = None,
) -> Samples:
    """Tracking alone (no detection), the same run with the workload's
    detections, and the counts of the timed verdict's own outcome.
    ``full_walls`` hands in inline tracking+detection runs the caller
    already paid for."""

    def run(**how: Any) -> Any:
        return DistributedDeadlockDetector(
            matched, seed=ctx.seed, generate_outputs=False
        ).run(**how)

    _, tracks = ctx.repeat(lambda: run(detect_at_end=False))
    if full_walls is None:
        _, full_walls = ctx.repeat(lambda: run(detect_at=detect_at))
    track = statistics.median(tracks)
    epochs = len(outcome.detections)
    return {
        "core.track_s": tracks,
        "core.detect_s": [max(0.0, statistics.median(full_walls) - track)],
        "core.epochs": [epochs],
        "core.epoch_s": [max(0.0, verdict_wall - track) / epochs],
        "core.tool_msgs": [outcome.messages_sent],
        "core.tool_bytes": [outcome.bytes_sent],
        "core.peak_window": [outcome.peak_window],
        "tbon.sim_seconds": [outcome.simulated_seconds],
    }


class _Relay:
    """A TBON node that only counts and forwards to its parent."""

    def __init__(self, node_id: int, parent: Optional[int]) -> None:
        self.node_id = node_id
        self.parent = parent
        self.seen = 0

    def handle(self, msg: object, net: Any, src: int) -> None:
        self.seen += 1
        if self.parent is not None:
            net.send(self.node_id, self.parent, msg)


def tbon(ctx: Context, ranks: int, fan_in: int = 4) -> Samples:
    """A bare network: leaf-to-root sends with nothing but delivery."""
    topology = TbonTopology.build(ranks, fan_in)
    sent = 0

    def deliver() -> None:
        nonlocal sent
        net = Network()
        root = None
        for node_id in topology.tool_nodes:
            parent = (
                None if node_id == topology.root else topology.parent(node_id)
            )
            node = _Relay(node_id, parent)
            net.attach(node)
            if parent is None:
                root = node
        for i in range(PROBE_MSGS):
            rank = i % ranks
            net.send(rank, topology.host_of_rank(rank), i)
        net.run()
        if root is None or root.seen != PROBE_MSGS:
            raise RuntimeError("TBON probe lost messages")
        sent = net.messages_sent

    _, walls = ctx.repeat(deliver)
    return {"tbon.msgs_per_s": [sent / wall for wall in walls]}


def wfg(ctx: Context, record: Any) -> Samples:
    """Replay graph build, check, simplification and the three report
    writers on one detection record of the timed run."""
    old = record.graph
    conditions = record.conditions
    graph, builds = ctx.repeat(
        lambda: WaitForGraph.from_conditions(
            old.num_processes, conditions.values(), finished=old.finished
        )
    )
    result, checks = ctx.repeat(lambda: detect_deadlock(graph))
    agg, simplifies = ctx.repeat(lambda: simplify(graph))
    dot, dots = ctx.repeat(lambda: render_dot(graph, result))
    html, htmls = ctx.repeat(
        lambda: render_html_report(graph, result, conditions, dot_text=dot)
    )
    doc, jsons = ctx.repeat(lambda: render_json_report(graph, result, conditions))
    return {
        "wfg.build_s": builds,
        "wfg.check_s": checks,
        "wfg.simplify_s": simplifies,
        "wfg.render_dot_s": dots,
        "wfg.render_html_s": htmls,
        "wfg.render_json_s": jsons,
        "wfg.arcs": [graph.arc_count()],
        "wfg.nodes": [len(graph.nodes)],
        "wfg.agg_arcs": [agg.arc_count()],
        "wfg.report_bytes": [len(dot) + len(html) + len(json.dumps(doc))],
    }


def backend(ctx: Context, matched: MatchedTrace, shards: int) -> Samples:
    """The same trace through both backends."""
    sharded = ShardedBackend(shards=shards)
    inline = ctx.timed(lambda: InlineBackend().run(matched, seed=ctx.seed))
    runs = [
        ctx.timed(lambda: sharded.run(matched, seed=ctx.seed))
        for _ in range(ctx.quick_reps)
    ]
    for run in runs:
        if run.result.stable_state != inline.result.stable_state:
            raise RuntimeError("sharded and inline stable states differ")
    timing = sharded.last_timing or {}
    sharded_wall = statistics.median(run.wall for run in runs)
    return {
        "backend.inline_run_s": [inline.wall],
        "backend.sharded_run_s": [run.wall for run in runs],
        "backend.sharded_over_inline": [sharded_wall / inline.wall],
        "backend.rounds": [timing["rounds"]],
        "backend.xshard_msgs": [timing["cross_shard_messages"]],
        # The backend's own clock: scaled as the run around it.
        "backend.modeled_s": [
            timing["modeled_latency_seconds"] * runs[-1].wall / runs[-1].raw
        ],
        "backend.cpu_over_wall": [run.cpu / run.wall for run in runs],
    }


def analysis(
    ctx: Context, program_sets: Sequence[Sequence[Any]]
) -> Samples:
    """The static deciders piece by piece, summed over the program sets
    of the workload: extraction, then the linear fast path where it
    decides, else the explorer, then the witness replay."""
    seconds = dict.fromkeys(
        ("extract_s", "explore_s", "fastpath_s", "witness_replay_s"), 0.0
    )
    states = 0

    def add(name: str, call: Any) -> Any:
        result, walls = ctx.repeat(call)
        seconds[name] += statistics.median(walls)
        return result

    for programs in program_sets:
        extraction = add("extract_s", lambda: extract_programs(programs))
        result = add("fastpath_s", lambda: decide_extraction(extraction))
        if result is None:
            result = add(
                "explore_s", lambda: explore_extraction(extraction, por=True)
            )
            states += result.stats.states_explored
        if result.witness is not None:
            add(
                "witness_replay_s",
                lambda: replay_witness(list(programs), result.witness),
            )
    out: Samples = {f"analysis.{k}": [v] for k, v in seconds.items()}
    out["analysis.states"] = [states]
    out["analysis.states_per_s"] = [states / seconds["explore_s"]]
    return out
