"""``record``, ``analyze``, ``demo``: build one
:class:`repro.api.Session` from the flags, let it run the workload
and/or the detection, print what it found and write what the flags
name.

The session is the only thing here that runs the tool. ``--centralized``
and ``--adapt`` ask for the centralized reference analysis instead,
which is called directly: it is what the distributed tool is checked
against, not a mode of it.
"""
from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.api import Session
from repro.cli.common import (
    _add_common_flags,
    _add_obs_flags,
    _write_json,
    exit_code,
    usage_error,
)
from repro.cli.obs import _print_obs
from repro.core.adaptation import analyze_with_adaptation
from repro.core.waitstate import analyze_trace
from repro.mpi.serialize import load_trace, save_trace
from repro.mpi.trace import MatchedTrace
from repro.util.errors import TraceError
from repro.wfg.report import render_json_report
from repro.wfg.simplify import render_aggregated_dot, simplify


def _session(args: argparse.Namespace, **analysis: Any) -> Session:
    return Session(
        backend=args.backend,
        shards=args.shards,
        seed=args.seed,
        observe=args.obs,
        trace_out=args.obs_trace,
        jsonl_out=args.obs_jsonl,
        **analysis,
    )


def _record(session: Session, args: argparse.Namespace) -> MatchedTrace:
    from repro.workloads.named import NAMED_WORKLOADS

    name = args.workload
    factory = NAMED_WORKLOADS.get(name)
    if factory is None:
        print(
            f"unknown workload {name!r}; available: "
            f"{', '.join(sorted(NAMED_WORKLOADS))}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    programs = factory(args.ranks)
    result = session.record(programs)
    state = "hung" if result.deadlocked else "completed"
    print(
        f"executed {name!r} on {len(programs)} virtual ranks: {state}, "
        f"{result.trace.total_ops()} operations traced"
    )
    return result.matched


def _analyze(
    session: Session, matched: MatchedTrace, args: argparse.Namespace
) -> int:
    if getattr(args, "checks", False):
        from repro.checks import run_all_checks

        findings = run_all_checks(matched)
        if findings:
            print(f"correctness checks: {len(findings)} finding(s)")
            for finding in findings:
                print("  " + finding.render())
        else:
            print("correctness checks: clean")
    verdict = {}
    centralized = args.adapt or args.centralized
    if centralized:
        if args.adapt:
            adaptive = analyze_with_adaptation(matched, generate_outputs=True)
            print(adaptive.summary())
            found = adaptive.final
        else:
            found = analyze_trace(matched)
            print(
                "centralized verdict: deadlocked ranks "
                f"{found.deadlocked or '()'}"
            )
        deadlocked, detection = found.deadlocked, found.detection
        # The session detected nothing: its artifact carries the
        # reference's verdict.
        verdict = {
            "deadlocked": bool(deadlocked),
            "ranks": matched.trace.num_processes,
        }
    else:
        outcome = session.analyze(matched)
        found = outcome.detection
        deadlocked, detection = outcome.deadlocked, found.result
        print(
            f"distributed verdict (fan-in {args.fan_in}, backend "
            f"{session.backend.describe()}): deadlocked "
            f"ranks {deadlocked or '()'}"
        )
        print(
            f"tool messages: {outcome.messages_sent:,}; peak trace "
            f"window: {outcome.peak_window}"
        )
    graph = found.graph
    # Each flag produces its own artifact and nothing else, streamed to
    # its file (at p=1024 the wildcard storm's DOT, HTML and JSON are
    # 185 MB), and only a deadlock has reports. They are produced
    # before the phase table is printed so that it counts them.
    wrote = []
    if deadlocked and args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            found.write_html(handle)
        wrote.append(args.report)
    if deadlocked and args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            if args.simplify:
                handle.write(render_aggregated_dot(simplify(graph)))
            else:
                found.write_dot(handle)
        wrote.append(args.dot)
    json_out = getattr(args, "json_out", None)
    if json_out:
        json_doc = None if centralized else found.json_report
        if json_doc is None:
            # A centralized analysis, or a clean run: neither has
            # flight tails or a blame chain.
            json_doc = render_json_report(graph, detection, found.conditions)
    if not centralized:
        for phase, seconds in found.timers.breakdown().items():
            print(f"  {phase:20s} {seconds * 1e3:9.3f} ms")
    if deadlocked:
        print(f"wait-for graph: {len(graph.nodes)} nodes, "
              f"{graph.arc_count()} arcs")
    for path in wrote:
        print(f"wrote {path}")
    if json_out:
        _write_json(json_out, json_doc)
    session.export(workload=getattr(args, "workload", None), **verdict)
    _print_obs(args, session.observer, session.backend.last_profile)
    return exit_code(bool(deadlocked))


def _cmd_record(args: argparse.Namespace) -> int:
    session = _session(args)
    save_trace(_record(session, args), args.output)
    print(f"wrote {args.output}")
    session.export(workload=args.workload)
    _print_obs(args, session.observer)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        matched = load_trace(args.trace)
    except (OSError, TraceError) as exc:
        return usage_error(f"cannot load trace {args.trace}: {exc}")
    print(
        f"loaded trace: {matched.trace.num_processes} processes, "
        f"{matched.trace.total_ops()} operations"
    )
    return _analyze(_session(args, fan_in=args.fan_in), matched, args)


def _cmd_demo(args: argparse.Namespace) -> int:
    session = _session(args, fan_in=args.fan_in)
    return _analyze(session, _record(session, args), args)


def _add_analysis_flags(
    parser: argparse.ArgumentParser, command: str
) -> None:
    parser.add_argument("--fan-in", type=int, default=4,
                        help="TBON fan-in (default 4)")
    parser.add_argument("--centralized", action="store_true",
                        help="use the centralized baseline")
    parser.add_argument("--adapt", action="store_true",
                        help="run the unexpected-match adaptation loop")
    parser.add_argument("--report", metavar="FILE",
                        help="write the HTML report here")
    parser.add_argument("--dot", metavar="FILE",
                        help="write the wait-for graph in DOT here")
    parser.add_argument("--simplify", action="store_true",
                        help="write the aggregated (simplified) DOT")
    parser.add_argument("--checks", action="store_true",
                        help="also run the non-deadlock correctness checks")
    parser.add_argument("--seed", type=int, default=0)
    _add_common_flags(parser, command)
    _add_obs_flags(parser)


def _register_record(rec: argparse.ArgumentParser) -> None:
    rec.add_argument("workload")
    rec.add_argument(
        "-o", "--output",
        help="trace output path (or --out FILE --format json)",
    )
    rec.add_argument("-n", "--ranks", type=int, default=8)
    rec.add_argument("--seed", type=int, default=0)
    _add_common_flags(rec, "record")
    _add_obs_flags(rec)


def _register_analyze(ana: argparse.ArgumentParser) -> None:
    ana.add_argument("trace")
    _add_analysis_flags(ana, "analyze")


def _register_demo(demo: argparse.ArgumentParser) -> None:
    demo.add_argument("workload")
    demo.add_argument("-n", "--ranks", type=int, default=8)
    _add_analysis_flags(demo, "demo")


#: command -> (add its arguments to a parser, run it)
HANDLERS = {
    "record": (_register_record, _cmd_record),
    "analyze": (_register_analyze, _cmd_analyze),
    "demo": (_register_demo, _cmd_demo),
}
