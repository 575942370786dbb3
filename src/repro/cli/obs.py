"""``stats``, ``profile``, ``blame``, ``watch``: the commands that read
or produce observability artifacts, and the ``--obs`` plumbing the
running commands share."""
from __future__ import annotations

import argparse
from typing import Optional

from repro.cli.common import (
    _add_common_flags,
    _out_path,
    _write_json,
    exit_code,
    usage_error,
)
from repro.docs import REGISTRY, doc_header, sniff_path, supported_line
from repro.obs.observer import Observer
from repro.util.errors import ReproError, TraceError


def _print_obs(
    args: argparse.Namespace,
    observer: Observer,
    profile: Optional[dict] = None,
) -> None:
    """Name the ``--obs*`` artifacts an observed run exported and print
    its stats summary."""
    if not observer.enabled:
        return
    from repro.obs.stats import render_summary

    if args.obs_trace:
        print(f"wrote {args.obs_trace} (open in chrome://tracing or Perfetto)")
        if profile is not None:
            print(
                f"profile embedded: `repro profile {args.obs_trace}` "
                "renders it"
            )
    if args.obs_jsonl:
        print(f"wrote {args.obs_jsonl}")
    print("\nobservability summary")
    for line in render_summary(observer.metrics.snapshot()):
        print(line)


def _print_timeline(events: list) -> None:
    from repro.obs.stats import render_timeline_table
    from repro.obs.timeline import UnifiedTimeline

    lines = render_timeline_table(UnifiedTimeline(events))
    if lines:
        print("\n-- unified timeline --")
        for line in lines:
            print(line)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.blame import load_events
    from repro.obs.live import is_live_artifact
    from repro.obs.stats import render_summary

    sniffed = sniff_path(args.run)
    if sniffed is not None:
        # The input announces a repro-*/N format: route or diagnose it
        # here, before a shape-blind loader misparses the feed.
        name, version, lineno = sniffed
        family = REGISTRY.get(name)
        if family is None:
            return usage_error(
                f"{args.run}:{lineno}: unknown document family "
                f"repro-{name}/{version} (known: "
                f"{', '.join(sorted(REGISTRY))})"
            )
        if version not in family.versions:
            return usage_error(
                f"{args.run}:{lineno}: unsupported repro-{name}/"
                f"{version} version ({supported_line(name)})"
            )
    if is_live_artifact(args.run):
        # A repro-live/1 feed is a first-class stats input: render the
        # health timeline instead of bouncing off the event loader.
        return _stats_live_feed(args)
    try:
        events, meta = load_events(args.run)
    except (OSError, TraceError) as exc:
        return usage_error(f"cannot load run {args.run}: {exc}")
    out = _out_path(args, "json")
    if meta is None:
        # Raw JSONL event stream: no metrics snapshot to summarize.
        print(f"run: {len(events)} trace events (raw JSONL stream)")
        _print_timeline(events)
        if out:
            _write_json(
                out,
                {**doc_header("stats"), "events": len(events)},
            )
        return 0
    workload = meta.get("workload")
    deadlocked = bool(meta.get("deadlocked"))
    print(
        f"run: workload={workload or '?'}, "
        f"{len(events)} trace events, "
        f"verdict: {'deadlock' if deadlocked else 'clean'}"
    )
    if meta.get("dropped_events"):
        print(f"note: {meta['dropped_events']} events dropped (limit)")
    for line in render_summary(meta["metrics"]):
        print(line)
    _print_timeline(events)
    if out:
        _write_json(
            out,
            {
                **doc_header("stats"),
                "workload": workload,
                "deadlocked": deadlocked,
                "events": len(events),
                "metrics": meta["metrics"],
            },
        )
    return exit_code(deadlocked)


def _stats_live_feed(args: argparse.Namespace) -> int:
    """``repro stats`` on a ``repro-live/1`` feed: the health timeline."""
    from repro.obs.live import load_live_feed, render_health_timeline

    try:
        header, snapshots, final = load_live_feed(args.run)
    except (OSError, TraceError) as exc:
        return usage_error(f"cannot load run {args.run}: {exc}")
    ranks = header.get("ranks")
    print(
        f"run: repro-live/1 feed, {len(snapshots)} snapshot window(s)"
        + (f", {ranks} ranks" if ranks else "")
    )
    for line in render_health_timeline(snapshots, final):
        print(line)
    verdict = (final or {}).get("verdict") or {}
    out = _out_path(args, "json")
    if out:
        _write_json(
            out,
            {
                **doc_header("stats"),
                "live": True,
                "windows": len(snapshots),
                "verdict": verdict or None,
            },
        )
    return exit_code(verdict.get("state") == "DEADLOCK-CONFIRMED")


def _write_watch_summary(
    args: argparse.Namespace, windows: int, verdict: Optional[dict]
) -> None:
    out = _out_path(args, "json")
    if out:
        _write_json(
            out,
            {
                **doc_header("live"),
                "kind": "summary",
                "target": args.target,
                "windows": windows,
                "verdict": verdict,
            },
        )


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.live import (
        EXIT_CODE_OF,
        feed_exit_code,
        load_live_feed,
        render_health_table,
        render_health_timeline,
    )
    from repro.workloads.named import NAMED_WORKLOADS

    target = args.target
    if not target.endswith(".py") and target not in NAMED_WORKLOADS:
        # Replay mode: a recorded repro-live/1 feed.
        try:
            header, snapshots, final = load_live_feed(target)
        except (OSError, TraceError) as exc:
            return usage_error(f"cannot load live feed {target}: {exc}")
        for line in render_health_timeline(snapshots, final):
            print(line)
        _write_watch_summary(
            args, len(snapshots), (final or {}).get("verdict")
        )
        return feed_exit_code(final)

    if target.endswith(".py"):
        from repro.obs.blame import load_programs

        try:
            programs = load_programs(target, args.ranks)
        except TraceError as exc:
            return usage_error(str(exc))
    else:
        programs = NAMED_WORKLOADS[target](args.ranks)

    def on_snapshot(doc: dict) -> None:
        for line in render_health_table(doc):
            print(line)

    from repro.api import Session

    session = Session(
        backend=args.backend,
        shards=args.shards,
        seed=args.seed,
        live=True,
        live_every_steps=args.every,
        live_every_rounds=args.every_rounds,
        live_out=_out_path(args, "jsonl"),
        on_snapshot=on_snapshot,
    )
    try:
        session.run(programs)
    except Exception as exc:
        from repro.programfile import program_error

        said = program_error(target, exc)
        if said is None:
            raise
        return usage_error(f"{target}: {said}")
    verdict = session.finalize_live()
    assert verdict is not None and session.live is not None
    if args.openmetrics:
        from repro.obs.exporters import write_openmetrics

        write_openmetrics(
            args.openmetrics,
            session.metrics_snapshot(),
            extra_gauges={
                "health_state": float(verdict.code),
                "health_windows": float(session.live.health.windows),
            },
        )
        print(f"wrote {args.openmetrics}")
    _write_watch_summary(
        args, len(session.live.snapshots), verdict.to_json()
    )
    return EXIT_CODE_OF.get(verdict.state, 0)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.exporters import load_run
    from repro.obs.prof import render_profile

    try:
        doc = load_run(args.run)
    except (OSError, TraceError) as exc:
        return usage_error(f"cannot load run {args.run}: {exc}")
    profile = doc["repro"].get("profile")
    if not profile:
        return usage_error(
            f"{args.run}: no profile data -- profiles are recorded by "
            "sharded runs with observability on (e.g. `repro demo stress "
            "--backend sharded --obs-trace run.json`)"
        )
    for line in render_profile(profile):
        print(line)
    out = _out_path(args, "json")
    if out:
        _write_json(out, profile)
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.obs.blame import blame_document, check_agreement, render_blame

    source = args.run
    try:
        # An artifact is read; a .py file is run, by this session.
        report, outcome = Session(
            backend=args.backend,
            shards=args.shards,
            seed=args.seed,
            fan_in=args.fan_in,
            observe=True,
        ).blame(source, ranks=args.ranks)
    except (OSError, ReproError) as exc:
        return usage_error(f"blame: cannot analyze {source}: {exc}")
    except Exception as exc:
        from repro.programfile import program_error

        said = program_error(source, exc)
        if said is None:
            raise
        return usage_error(f"blame: cannot analyze {source}: {said}")
    roots = tuple(report.root_causes)
    if roots:
        print(f"blame verdict: deadlock rooted at ranks {roots}")
    else:
        print("blame verdict: no deadlock (no root-cause ranks)")
    if outcome is not None:
        if check_agreement(report, outcome.deadlocked):
            print(
                "runtime WFG agreement: blame root causes match the "
                "runtime deadlocked set"
            )
        else:
            print(
                "runtime WFG agreement: MISMATCH -- runtime reported "
                f"ranks {tuple(outcome.deadlocked)}"
            )
    print()
    for line in render_blame(report):
        print(line)
    if args.json_out:
        doc = blame_document(report, source=source)
        if outcome is not None:
            doc["runtime_deadlocked"] = list(outcome.deadlocked)
            doc["runtime_agreement"] = check_agreement(
                report, outcome.deadlocked
            )
        _write_json(args.json_out, doc)
    return exit_code(bool(roots))


def _register_stats(stats: argparse.ArgumentParser) -> None:
    stats.add_argument(
        "run",
        help="a Chrome trace file written by --obs-trace, or a raw "
        ".jsonl stream written by --out FILE --format jsonl",
    )
    _add_common_flags(stats, "stats")


def _register_profile(prof: argparse.ArgumentParser) -> None:
    prof.add_argument(
        "run",
        help="a Chrome trace file written by --obs-trace on a run with "
        "--backend sharded",
    )
    _add_common_flags(prof, "profile")


def _register_blame(blame: argparse.ArgumentParser) -> None:
    blame.add_argument(
        "run",
        help="a Chrome trace written by --obs-trace, a raw .jsonl "
        "event stream, or a Python rank-program file to run live "
        "(repro lint conventions)",
    )
    blame.add_argument(
        "-n", "--ranks", type=int, default=4,
        help="virtual world size for live mode (default 4; a "
        "module-level LINT_RANKS overrides it)",
    )
    blame.add_argument("--seed", type=int, default=0)
    blame.add_argument(
        "--fan-in", type=int, default=4,
        help="TBON fan-in for live mode (default 4)",
    )
    blame.set_defaults(json_out=None)
    _add_common_flags(blame, "blame")


def _register_watch(watch: argparse.ArgumentParser) -> None:
    watch.add_argument(
        "target",
        help="a Python rank-program file (repro lint conventions), a "
        "named workload, or a recorded repro-live/1 .jsonl feed to "
        "replay",
    )
    watch.add_argument(
        "-n", "--ranks", type=int, default=8,
        help="virtual world size for rank-program/workload targets "
        "(default 8; a module-level LINT_RANKS overrides it)",
    )
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument(
        "--every", type=int, default=256, metavar="STEPS",
        help="engine steps between live snapshots (default 256)",
    )
    watch.add_argument(
        "--every-rounds", type=int, default=8, metavar="N",
        help="BSP rounds between backend snapshots for --backend "
        "sharded (default 8)",
    )
    watch.add_argument(
        "--openmetrics", metavar="FILE",
        help="also write the final metrics snapshot in OpenMetrics "
        "text exposition format (health verdict as a gauge)",
    )
    _add_common_flags(watch, "watch")


#: command -> (add its arguments to a parser, run it)
HANDLERS = {
    "stats": (_register_stats, _cmd_stats),
    "profile": (_register_profile, _cmd_profile),
    "blame": (_register_blame, _cmd_blame),
    "watch": (_register_watch, _cmd_watch),
}
