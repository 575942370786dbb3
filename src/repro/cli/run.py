"""``record``, ``analyze``, ``demo``: run a workload on the virtual
runtime and/or run deadlock detection on a matched trace."""
from __future__ import annotations

import argparse
import sys

from repro.backend.base import make_backend
from repro.cli.common import (
    _add_common_flags,
    _add_obs_flags,
    _workloads,
    _write_json,
    exit_code,
    usage_error,
)
from repro.cli.obs import _finish_obs, _make_observer
from repro.core.adaptation import analyze_with_adaptation
from repro.core.waitstate import analyze_trace
from repro.mpi.serialize import load_trace, save_trace
from repro.mpi.trace import MatchedTrace
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.util.errors import TraceError
from repro.wfg.report import render_json_report
from repro.wfg.simplify import render_aggregated_dot, simplify


def _run_workload(
    name: str, ranks: int, seed: int, observer: Observer = NULL_OBSERVER
) -> MatchedTrace:
    factory = _workloads().get(name)
    if factory is None:
        print(
            f"unknown workload {name!r}; available: "
            f"{', '.join(sorted(_workloads()))}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    from repro.mpi.blocking import BlockingSemantics
    from repro.runtime import run_programs

    programs = factory(ranks)
    result = run_programs(
        programs,
        semantics=BlockingSemantics.relaxed(),
        seed=seed,
        observer=observer,
    )
    state = "hung" if result.deadlocked else "completed"
    print(
        f"executed {name!r} on {len(programs)} virtual ranks: {state}, "
        f"{result.trace.total_ops()} operations traced"
    )
    return result.matched


def _analyze(
    matched: MatchedTrace,
    args: argparse.Namespace,
    observer: Observer = NULL_OBSERVER,
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
    profile = None
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
    else:
        backend = make_backend(args.backend, shards=args.shards)
        outcome = backend.run(
            matched, fan_in=args.fan_in, seed=args.seed, observer=observer
        )
        profile = backend.last_profile
        found = outcome.detection
        deadlocked, detection = outcome.deadlocked, found.result
        print(
            f"distributed verdict (fan-in {args.fan_in}, backend "
            f"{backend.describe()}): deadlocked "
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
    _finish_obs(
        observer,
        args,
        workload=getattr(args, "workload", None),
        deadlocked=bool(deadlocked),
        ranks=matched.trace.num_processes,
        profile=profile,
    )
    return exit_code(bool(deadlocked))


def _cmd_record(args: argparse.Namespace) -> int:
    observer = _make_observer(args)
    matched = _run_workload(args.workload, args.ranks, args.seed, observer)
    save_trace(matched, args.output)
    print(f"wrote {args.output}")
    _finish_obs(
        observer,
        args,
        workload=args.workload,
        deadlocked=False,
        ranks=matched.trace.num_processes,
    )
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
    return _analyze(matched, args, _make_observer(args))


def _cmd_demo(args: argparse.Namespace) -> int:
    observer = _make_observer(args)
    matched = _run_workload(args.workload, args.ranks, args.seed, observer)
    return _analyze(matched, args, observer)


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
