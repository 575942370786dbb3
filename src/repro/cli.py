"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``record``   run a named workload on the virtual runtime and save its
             matched trace as JSON;
``analyze``  run deadlock detection on a saved trace (distributed tool
             by default; ``--centralized`` for the baseline,
             ``--adapt`` for the unexpected-match adaptation loop) and
             optionally write the HTML/DOT reports;
``demo``     record + analyze a named workload in one step;
``lint``     statically analyze rank-program files or recorded traces
             without running the engine;
``classify`` label every rank program by decidable fragment
             (`SEQ-DETERMINISTIC` / `SEQ-WILDCARD-FREE-LOOPS` /
             `UNDECIDABLE`) via the interprocedural symbolic
             extractor, with role-split and loop provenance
             (``-v`` prints the symbolic term tree); exit 1 when any
             program is undecidable;
``prove``    parameterized deadlock-freedom certification: decide
             deadlock-freedom for **all** process counts ``p >= 2``
             (`PROVED-ALL-P` with a channel certificate) or report the
             minimal failing ``p`` (`REFUTED`) with a replayable
             witness — without enumerating instantiations; exit 1 on
             any refutation, 2 when any program stays open
             (`UNKNOWN`/`UNDECIDABLE`);
``verify``   bounded wildcard-aware verification: explore every
             feasible match-set of a rank-program file, classify it
             `deadlock-free` / `deadlock-possible` / `bound-exceeded`,
             and optionally replay the deadlock witness through the
             engine (``--replay``); ``--prove`` additionally runs the
             parameterized prover per file;
``stats``    print the observability summary of a run recorded with
             ``--obs-trace`` (per-message-type traffic, five-phase
             detection-time breakdown, exploration counters, unified
             timeline) or of a raw JSONL event stream;
``blame``    wait-state blame analysis: reconstruct per-rank blocked
             intervals from a recorded run (or run a rank-program file
             live), attribute blocked time to root-cause ranks, and
             print the blame chain + critical path;
``profile``  render the BSP round profile of a sharded run recorded
             with ``--obs-trace`` (per-shard round sections, critical-
             shard timeline, codec breakdown; ``--out`` writes the
             ``repro-profile/1`` JSON document);
``watch``    follow a run's live health feed: a rank-program file or
             named workload runs under the
             :class:`~repro.obs.live.LiveMonitor`, streaming health
             windows (PROGRESSING / SOFT-HANG with suspect ranks /
             final DEADLOCK-CONFIRMED backed by the runtime WFG) as
             they are evaluated; a recorded ``repro-live/1`` feed
             replays as the health timeline; ``--openmetrics FILE``
             writes the final metrics scrape in OpenMetrics text
             format;
``figures``  print the Figure 9 / Figure 12 model tables.

Named workloads: fig2a, fig2b, fig4, stress, wildcard, lammps,
gapgeofem, halo2d, persistent-ring, soft-hang, straggler.

Unified output: every subcommand takes ``--out PATH`` and ``--format
{json,jsonl,html,dot}`` for its primary artifact — the deadlock report
(``analyze``/``demo``: ``json``, ``html``, or ``dot``), the findings /
verdict / blame / stats document (``lint``/``verify``/``blame``/
``stats``: ``json``), the model tables (``figures``: ``json``), the
recorded trace (``record``: ``json``) — and ``--format jsonl`` selects
the raw observability event stream where a run happens. Backends:
``--backend {inline,sharded}`` and ``--shards N`` choose how the
distributed analysis executes (single simulated network vs. first-layer
nodes across worker processes; identical verdicts either way).

Observability: ``--obs`` instruments the run (engine + TBON + the
distributed protocol) and prints a stats summary; ``--obs-trace FILE``
additionally writes a Chrome ``trace_event`` file (open it in
``chrome://tracing`` or Perfetto) embedding the metrics snapshot.
The pre-1.1 spellings were removed in 1.2 after their one-release
deprecation window: passing one is a hard usage error (exit 2) whose
message names the ``--out``/``--format``/``--obs-trace`` replacement.

Exit codes: 0 — clean; 1 — a deadlock was detected (``analyze``,
``demo``, and ``stats`` when the analyzed run recorded one, ``blame``
when root causes were found), an error-severity finding reported
(``lint``), a `deadlock-possible` verdict (``verify``), or a
`REFUTED` program (``prove``, ``classify --prove``); 2 — usage error
(unknown workload, unreadable / malformed / truncated input —
``stats`` and ``blame`` diagnose the offending line or record) or,
for ``verify``, no deadlock but at least one program without a
definite verdict (`bound-exceeded` / skipped) — `bound-exceeded` is
NOT `deadlock-free` — and, for ``prove``, no refutation but at least
one program left `UNKNOWN`/`UNDECIDABLE`. ``watch`` maps its final
health verdict instead: 0 — PROGRESSING, 1 — SOFT-HANG, 2 —
DEADLOCK-CONFIRMED (live, WFG-backed; usage errors also exit 2).
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.backend import DEFAULT_SHARDS, make_backend
from repro.core.adaptation import analyze_with_adaptation
from repro.core.waitstate import analyze_trace
from repro.docs import REGISTRY, doc_header, sniff_path, supported_line
from repro.mpi.blocking import BlockingSemantics
from repro.mpi.serialize import load_trace, save_trace
from repro.mpi.trace import MatchedTrace
from repro.obs import (
    NULL_OBSERVER,
    Observer,
    make_observer,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.runtime import run_programs
from repro.util.errors import TraceError
from repro.wfg.report import render_json_report
from repro.wfg.simplify import render_aggregated_dot, simplify


def _persistent_ring_programs(p: int):
    def ring(r):
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


def _workloads() -> Dict[str, Callable[[int], list]]:
    from repro.workloads import (
        fig2a_programs,
        fig2b_programs,
        fig4_programs,
        gapgeofem_skeleton_programs,
        halo2d_programs,
        lammps_skeleton_programs,
        soft_hang_imbalance_programs,
        straggler_collective_programs,
        stress_programs,
        wildcard_deadlock_programs,
    )

    return {
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


#: Formats ``--out`` understands, per subcommand. ``json`` is the
#: primary machine-readable artifact everywhere; ``jsonl`` selects the
#: raw observability event stream where a run happens; ``html``/``dot``
#: are the rendered deadlock reports of ``analyze``/``demo``.
#: Default TCP port of the ``repro serve`` daemon.
DEFAULT_SERVE_PORT = 7587

_FORMATS: Dict[str, Tuple[str, ...]] = {
    "record": ("json", "jsonl"),
    "analyze": ("json", "jsonl", "html", "dot"),
    "demo": ("json", "jsonl", "html", "dot"),
    "lint": ("json",),
    "classify": ("json",),
    "prove": ("json",),
    "verify": ("json", "jsonl"),
    "stats": ("json",),
    "blame": ("json",),
    "profile": ("json",),
    "watch": ("json", "jsonl"),
    "figures": ("json",),
    "submit": ("json",),
    "jobs": ("json",),
}


def _add_common_flags(
    parser: argparse.ArgumentParser, command: str
) -> None:
    """The unified ``--out/--format/--backend/--shards`` quartet."""
    formats = _FORMATS[command]
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the command's primary artifact here (see --format)",
    )
    parser.add_argument(
        "--format", choices=formats, default="json",
        help="artifact format for --out "
        f"(this command supports: {', '.join(formats)}; default json)",
    )
    parser.add_argument(
        "--backend", choices=("inline", "sharded"), default="inline",
        help="execution backend wherever a distributed analysis runs "
        "(default inline)",
    )
    parser.add_argument(
        "--shards", type=int, default=DEFAULT_SHARDS,
        help="worker processes for --backend sharded "
        f"(default {DEFAULT_SHARDS})",
    )


#: CLI spellings removed in 1.2 (deprecated aliases since 1.1) and the
#: v1 replacement the hard error names. Checked against raw argv
#: before parsing so the diagnosis beats argparse's generic
#: "unrecognized arguments".
REMOVED_CLI_FLAGS = {
    "--json-out": "--out FILE --format json",
    "--obs-out": "--obs-trace FILE",
    "--obs-jsonl": "--out FILE --format jsonl",
}


def _reject_removed_flags(argv: Sequence[str]) -> Optional[int]:
    """Exit 2 with the replacement spelling for removed aliases."""
    for token in argv:
        flag = token.split("=", 1)[0]
        replacement = REMOVED_CLI_FLAGS.get(flag)
        if replacement is not None:
            print(
                f"error: {flag} was removed in 1.2 (deprecated since "
                f"1.1); use {replacement}",
                file=sys.stderr,
            )
            return 2
    return None


def _normalize_args(args: argparse.Namespace) -> Optional[int]:
    """Route ``--out``/``--format`` onto the writer attributes.

    Returns an exit code for usage errors, None to proceed.
    """
    out = getattr(args, "out", None)
    if out:
        fmt = getattr(args, "format", "json")
        if fmt == "jsonl":
            args.obs_jsonl = out
        elif fmt == "html":
            args.report = out
        elif fmt == "dot":
            args.dot = out
        elif fmt == "json" and hasattr(args, "json_out"):
            args.json_out = out
        # json for record/lint/stats/figures is read by the command
        # itself via _out_path.
    if args.command == "record":
        if not getattr(args, "output", None):
            args.output = _out_path(args, "json")
        if not args.output:
            print(
                "record: an output path is required "
                "(-o FILE or --out FILE --format json)",
                file=sys.stderr,
            )
            return 2
    return None


def _make_observer(args: argparse.Namespace) -> Observer:
    """A live observer when any ``--obs*`` flag was given, else null."""
    wanted = bool(
        getattr(args, "obs", False)
        or getattr(args, "obs_trace", None)
        or getattr(args, "obs_jsonl", None)
    )
    return make_observer(wanted)


def _out_path(args: argparse.Namespace, fmt: str) -> Optional[str]:
    """``--out`` when ``--format`` selects ``fmt``, else None."""
    if getattr(args, "out", None) and getattr(args, "format", "json") == fmt:
        return args.out
    return None


def _make_backend(args: argparse.Namespace):
    return make_backend(
        getattr(args, "backend", "inline"),
        shards=getattr(args, "shards", DEFAULT_SHARDS),
    )


def _finish_obs(
    observer: Observer,
    args: argparse.Namespace,
    *,
    workload: Optional[str],
    deadlocked: bool,
    ranks: Optional[int] = None,
    profile: Optional[dict] = None,
) -> None:
    """Export trace artifacts and print the stats summary."""
    if not observer.enabled:
        return
    snapshot = observer.metrics.snapshot()
    metadata = {
        "workload": workload,
        "deadlocked": bool(deadlocked),
        "ranks": ranks,
        "metrics": snapshot,
    }
    if profile is not None:
        metadata["profile"] = profile
    out = getattr(args, "obs_trace", None)
    if out:
        write_chrome_trace(out, observer.tracer, metadata=metadata)
        print(f"wrote {out} (open in chrome://tracing or Perfetto)")
        if profile is not None:
            print(f"profile embedded: `repro profile {out}` renders it")
    jsonl = getattr(args, "obs_jsonl", None)
    if jsonl:
        write_jsonl(jsonl, observer.tracer)
        print(f"wrote {jsonl}")
    print("\nobservability summary")
    for line in render_summary(snapshot):
        print(line)


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
    json_doc: Optional[dict] = None
    profile: Optional[dict] = None
    if args.adapt:
        adaptive = analyze_with_adaptation(matched, generate_outputs=True)
        print(adaptive.summary())
        analysis = adaptive.final
        dot_text = analysis.dot_text
        html = analysis.html_report
        deadlocked = analysis.deadlocked
        graph = analysis.graph
        if graph is not None and analysis.detection is not None:
            json_doc = render_json_report(
                graph, analysis.detection, analysis.conditions
            )
    elif args.centralized:
        analysis = analyze_trace(matched)
        deadlocked = analysis.deadlocked
        dot_text = analysis.dot_text
        html = analysis.html_report
        graph = analysis.graph
        if graph is not None and analysis.detection is not None:
            json_doc = render_json_report(
                graph, analysis.detection, analysis.conditions
            )
        print(f"centralized verdict: deadlocked ranks {deadlocked or '()'}")
    else:
        backend = _make_backend(args)
        outcome = backend.run(
            matched, fan_in=args.fan_in, seed=args.seed, observer=observer
        )
        profile = getattr(backend, "last_profile", None)
        record = outcome.detection
        deadlocked = outcome.deadlocked
        dot_text = record.dot_text
        html = record.html_report
        graph = record.graph
        json_doc = record.json_report
        if json_doc is None and graph is not None and record.result is not None:
            json_doc = render_json_report(
                graph,
                record.result,
                record.conditions,
                flight_tails=record.flight_tails,
                blame=record.blame,
            )
        print(
            f"distributed verdict (fan-in {args.fan_in}, backend "
            f"{backend.describe()}): deadlocked "
            f"ranks {deadlocked or '()'}"
        )
        print(
            f"tool messages: {outcome.messages_sent:,}; peak trace "
            f"window: {outcome.peak_window}"
        )
        for phase, seconds in record.timers.breakdown().items():
            print(f"  {phase:20s} {seconds * 1e3:9.3f} ms")
    if deadlocked and graph is not None:
        print(f"wait-for graph: {len(graph.nodes)} nodes, "
              f"{graph.arc_count()} arcs")
    if args.report and html:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(html)
        print(f"wrote {args.report}")
    if args.dot and dot_text:
        text = dot_text
        if args.simplify and graph is not None:
            text = render_aggregated_dot(simplify(graph))
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.dot}")
    if getattr(args, "json_out", None) and json_doc is not None:
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(json_doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    _finish_obs(
        observer,
        args,
        workload=getattr(args, "workload", None),
        deadlocked=bool(deadlocked),
        ranks=matched.trace.num_processes,
        profile=profile,
    )
    return 1 if deadlocked else 0


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
        print(f"cannot load trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(
        f"loaded trace: {matched.trace.num_processes} processes, "
        f"{matched.trace.total_ops()} operations"
    )
    return _analyze(matched, args, _make_observer(args))


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_path

    any_errors = False
    doc: Dict[str, list] = {}
    for path in args.paths:
        try:
            report = lint_path(path, ranks=args.ranks)
        except (OSError, TraceError) as exc:
            print(f"lint: cannot analyze {path}: {exc}", file=sys.stderr)
            return 2
        doc[path] = [
            {
                "check": f.check,
                "severity": f.severity.value,
                "rank": f.rank,
                "message": f.message,
            }
            for f in report.findings
        ]
        if report.findings:
            errors = len(report.errors())
            warnings = len(report.findings) - errors
            print(
                f"{path}: {errors} error(s), {warnings} warning(s)/"
                "note(s)"
            )
            for finding in report.findings:
                print("  " + finding.render())
        else:
            print(f"{path}: clean")
        if args.verbose:
            for note in report.notes:
                print(f"  note: {note}")
        any_errors = any_errors or report.has_errors
    out = _out_path(args, "json")
    if out:
        _write_json(out, {**doc_header("lint"), "findings": doc})
    return 1 if any_errors else 0


def _describe_prove(result) -> str:
    """One-line human rendering of a ProveResult."""
    from repro.analysis.symbolic import ProveVerdict

    line = result.verdict.value
    if result.verdict is ProveVerdict.REFUTED:
        ranks = ", ".join(str(r) for r in result.deadlocked)
        line += (
            f" — minimal failing p={result.min_p} "
            f"(deadlocked ranks {{{ranks}}})"
        )
        if result.predicted:
            line += " [predicted by channel residues]"
    elif result.verdict is ProveVerdict.PROVED_ALL_P:
        cert = result.certificate
        assert cert is not None
        line += (
            f" — deadlock-free for all p >= 2 "
            f"(sizes [2, {cert.window_hi}) confirmed, "
            f"modulus lcm {cert.modulus_lcm})"
        )
    elif result.reason:
        line += f" — {result.reason}"
    return line


def _print_certificate(result, indent: str = "    ") -> None:
    """The per-channel certificate table (verbose prove output)."""
    if result.certificate is None:
        return
    channels = result.certificate.channels.channels
    if not channels:
        return
    print(f"{indent}channel certificate:")
    for channel in channels:
        line = (
            f"{indent}  {channel.classification:>15}  "
            f"{channel.site}  [line {channel.lineno}]"
        )
        if channel.classification != "always-matched":
            line += f"  unmatched: {channel.unmatched.render()}"
        print(line)


def _cmd_prove(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.symbolic import ProveVerdict, prove_source

    observer = _make_observer(args)
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)
    doc: Dict[str, list] = {}
    any_refuted = False
    any_open = False
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"prove: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        try:
            results = prove_source(
                source, path, metrics=observer.metrics
            )
        except SyntaxError as exc:
            print(
                f"prove: {path}:{exc.lineno or 1}: source does not "
                f"parse: {exc.msg}",
                file=sys.stderr,
            )
            return 2
        doc[path] = []
        print(f"{path}:")
        if not results:
            print("  (no rank programs found)")
        for result in results:
            if result.verdict is ProveVerdict.REFUTED:
                any_refuted = True
            elif result.verdict is not ProveVerdict.PROVED_ALL_P:
                any_open = True
            print(f"  {result.name}: {_describe_prove(result)}")
            if args.verbose:
                _print_certificate(result)
            if result.witness is not None and args.witness_dir:
                stem = os.path.splitext(os.path.basename(path))[0]
                wpath = os.path.join(
                    args.witness_dir,
                    f"{stem}__{result.name}.witness.json",
                )
                result.witness.save(wpath)
                print(f"    wrote witness {wpath}")
            doc[path].append(result.to_json_dict())
    out = _out_path(args, "json")
    if out:
        _write_json(out, {**doc_header("prove"), "results": doc})
    _finish_obs(observer, args, workload=None, deadlocked=any_refuted)
    if any_refuted:
        return 1
    if any_open:
        return 2
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.analysis.symbolic import classify_source

    doc: Dict[str, list] = {}
    worst = 0
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"classify: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        try:
            classifications = classify_source(source, path)
        except SyntaxError as exc:
            print(
                f"classify: {path}:{exc.lineno or 1}: source does not "
                f"parse: {exc.msg}",
                file=sys.stderr,
            )
            return 2
        doc[path] = []
        print(f"{path}:")
        if not classifications:
            print("  (no rank programs found)")
        for cl in classifications:
            line = f"  {cl.name}: {cl.fragment.value}"
            if cl.reason:
                line += f" — {cl.reason}"
                if cl.reason_line is not None:
                    line += f" ({cl.location})"
            print(line)
            for cond, lineno in cl.role_splits:
                print(f"    role split: {cond}  [{path}:{lineno}]")
            for count, lineno in cl.loops:
                print(
                    f"    symbolic loop: repeat {count} times  "
                    f"[{path}:{lineno}]"
                )
            if args.verbose and cl.rendering:
                print("    term tree:")
                for rline in cl.rendering:
                    print(f"      {rline}")
            if not cl.fragment.decidable:
                worst = 1
            entry = {
                "program": cl.name,
                "fragment": cl.fragment.value,
                "reason": cl.reason,
                "line": cl.reason_line,
                "role_splits": [
                    {"condition": cond, "line": lineno}
                    for cond, lineno in cl.role_splits
                ],
                "loops": [
                    {"count": count, "line": lineno}
                    for count, lineno in cl.loops
                ],
                "terms": list(cl.rendering),
            }
            if args.prove and cl.summary is not None:
                from repro.analysis.symbolic import (
                    ProveVerdict,
                    prove_summary,
                )

                proof = prove_summary(cl.summary)
                print(f"    prove: {_describe_prove(proof)}")
                if args.verbose:
                    _print_certificate(proof, indent="      ")
                entry["prove"] = proof.to_json_dict()
                if proof.verdict is ProveVerdict.REFUTED:
                    worst = max(worst, 1)
            doc[path].append(entry)
    out = _out_path(args, "json")
    if out:
        _write_json(
            out, {**doc_header("classify"), "programs": doc}
        )
    return worst


def _cmd_verify(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.analysis import verify_path
    from repro.util.errors import ReproError

    observer = _make_observer(args)
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)

    doc: Dict[str, Dict[str, Dict[str, object]]] = {}
    any_deadlock = False
    any_error = False
    any_inconclusive = False
    for path in args.paths:
        try:
            report = verify_path(
                path,
                ranks=args.ranks,
                max_states=args.max_states,
                max_depth=args.max_depth,
                por=not args.no_por,
                replay=args.replay,
                fastpath=not args.no_fastpath,
                metrics=observer.metrics,
            )
        except (OSError, ReproError) as exc:
            print(f"verify: cannot analyze {path}: {exc}", file=sys.stderr)
            return 2
        doc[path] = {}
        print(f"{path}:")
        if not report.programs:
            print("  (no rank programs found)")
        for prog in report.programs:
            entry: Dict[str, object] = {"verdict": prog.verdict_name}
            result = prog.result
            detail = ""
            if result is None:
                detail = f" — {prog.skipped_reason}"
            elif result.has_deadlock:
                any_deadlock = True
                ranks = ", ".join(str(r) for r in result.deadlocked)
                detail = f" — feasible deadlock of ranks {{{ranks}}}"
                entry["deadlocked"] = list(result.deadlocked)
                entry["witness_cycle"] = list(result.witness_cycle)
            elif result.fragment:
                detail = (
                    f" (fast path: {result.fragment}, "
                    f"{result.stats.transitions} ops linearly matched, "
                    "no state graph)"
                )
            else:
                detail = (
                    f" ({result.stats.states_explored} states, "
                    f"{result.stats.states_pruned} pruned)"
                )
                if result.verdict.value == "bound-exceeded":
                    detail += f" — {result.reason}"
            if result is not None and result.fragment:
                entry["fragment"] = result.fragment
            print(f"  {prog.label}: {prog.verdict_name}{detail}")
            for finding in prog.findings:
                print("    " + finding.render())
            if prog.witness is not None and args.witness_dir:
                stem = os.path.splitext(os.path.basename(path))[0]
                wpath = os.path.join(
                    args.witness_dir,
                    f"{stem}__{prog.label}.witness.json",
                )
                prog.witness.save(wpath)
                print(f"    wrote witness {wpath}")
            if prog.replay is not None:
                entry["replay_confirmed"] = prog.replay.confirmed
                entry["replay_cycles_match"] = prog.replay.cycles_match
                if prog.replay.confirmed:
                    cyc = (
                        "matching WFG cycle"
                        if prog.replay.cycles_match
                        else "cycle differs"
                    )
                    print(
                        "    replay: confirmed runtime deadlock "
                        f"({cyc})"
                    )
                else:
                    print(
                        "    replay: NOT confirmed — "
                        f"{prog.replay.reason}"
                    )
                    any_error = True
            doc[path][prog.label] = entry
        if getattr(args, "prove", False):
            from repro.analysis.symbolic import ProveVerdict, prove_path

            for presult in prove_path(path, metrics=observer.metrics):
                print(
                    f"  prove {presult.name}: "
                    f"{_describe_prove(presult)}"
                )
                doc[path].setdefault(presult.name, {})["prove"] = (
                    presult.to_json_dict()
                )
                if presult.verdict is ProveVerdict.REFUTED:
                    any_deadlock = True
        for note in report.notes:
            print(f"  note: {note}")
        if report.errors():
            any_error = True
        if report.inconclusive:
            any_inconclusive = True

    if args.json_out:
        payload = {**doc_header("verify"), "results": doc}
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    _finish_obs(observer, args, workload=None, deadlocked=any_deadlock)
    if any_deadlock or any_error:
        return 1
    if any_inconclusive:
        return 2
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    observer = _make_observer(args)
    matched = _run_workload(args.workload, args.ranks, args.seed, observer)
    return _analyze(matched, args, observer)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.blame import load_events
    from repro.obs.live import is_live_artifact
    from repro.obs.stats import render_timeline_table
    from repro.obs.timeline import UnifiedTimeline

    sniffed = sniff_path(args.run)
    if sniffed is not None:
        # The input announces a repro-*/N format: route or diagnose it
        # here, before a shape-blind loader misparses the feed.
        name, version, lineno = sniffed
        family = REGISTRY.get(name)
        if family is None:
            print(
                f"{args.run}:{lineno}: unknown document family "
                f"repro-{name}/{version} (known: "
                f"{', '.join(sorted(REGISTRY))})",
                file=sys.stderr,
            )
            return 2
        if version not in family.versions:
            print(
                f"{args.run}:{lineno}: unsupported repro-{name}/"
                f"{version} version ({supported_line(name)})",
                file=sys.stderr,
            )
            return 2
    if is_live_artifact(args.run):
        # A repro-live/1 feed is a first-class stats input: render the
        # health timeline instead of bouncing off the event loader.
        return _stats_live_feed(args)
    try:
        events, meta = load_events(args.run)
    except (OSError, TraceError) as exc:
        print(f"cannot load run {args.run}: {exc}", file=sys.stderr)
        return 2
    timeline = UnifiedTimeline(events)
    out = _out_path(args, "json")
    if meta is None:
        # Raw JSONL event stream: no metrics snapshot to summarize.
        print(f"run: {len(events)} trace events (raw JSONL stream)")
        lines = render_timeline_table(timeline)
        if lines:
            print("\n-- unified timeline --")
            for line in lines:
                print(line)
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
    lines = render_timeline_table(timeline)
    if lines:
        print("\n-- unified timeline --")
        for line in lines:
            print(line)
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
    return 1 if deadlocked else 0


def _stats_live_feed(args: argparse.Namespace) -> int:
    """``repro stats`` on a ``repro-live/1`` feed: the health timeline."""
    from repro.obs.live import load_live_feed, render_health_timeline

    try:
        header, snapshots, final = load_live_feed(args.run)
    except (OSError, TraceError) as exc:
        print(f"cannot load run {args.run}: {exc}", file=sys.stderr)
        return 2
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
    return 1 if verdict.get("state") == "DEADLOCK-CONFIRMED" else 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.obs.live import (
        EXIT_CODE_OF,
        feed_exit_code,
        load_live_feed,
        render_health_table,
        render_health_timeline,
    )

    target = args.target
    if not target.endswith(".py") and target not in _workloads():
        # Replay mode: a recorded repro-live/1 feed.
        try:
            header, snapshots, final = load_live_feed(target)
        except (OSError, TraceError) as exc:
            print(f"cannot load live feed {target}: {exc}", file=sys.stderr)
            return 2
        for line in render_health_timeline(snapshots, final):
            print(line)
        out = _out_path(args, "json")
        if out:
            _write_json(
                out,
                {
                    **doc_header("live"),
                    "kind": "summary",
                    "target": target,
                    "windows": len(snapshots),
                    "verdict": (final or {}).get("verdict"),
                },
            )
        return feed_exit_code(final)

    if target.endswith(".py"):
        from repro.obs.blame import load_programs

        try:
            programs = load_programs(target, args.ranks)
        except TraceError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        programs = _workloads()[target](args.ranks)

    def on_snapshot(doc: dict) -> None:
        for line in render_health_table(doc):
            print(line)

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
    run = session.record(programs)
    session.analyze(run)
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
    out = _out_path(args, "json")
    if out:
        _write_json(
            out,
            {
                **doc_header("live"),
                "kind": "summary",
                "target": target,
                "windows": len(session.live.snapshots),
                "verdict": verdict.to_json(),
            },
        )
    return EXIT_CODE_OF.get(verdict.state, 0)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.exporters import load_run
    from repro.obs.prof import render_profile

    try:
        doc = load_run(args.run)
    except (OSError, TraceError) as exc:
        print(f"cannot load run {args.run}: {exc}", file=sys.stderr)
        return 2
    profile = doc["repro"].get("profile")
    if not profile:
        print(
            f"{args.run}: no profile data -- profiles are recorded by "
            "sharded runs with observability on (e.g. `repro demo stress "
            "--backend sharded --obs-trace run.json`)",
            file=sys.stderr,
        )
        return 2
    for line in render_profile(profile):
        print(line)
    out = _out_path(args, "json")
    if out:
        _write_json(out, profile)
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    import json

    from repro.obs.blame import (
        blame_artifact,
        blame_document,
        blame_live,
        check_agreement,
        render_blame,
    )
    from repro.util.errors import ReproError

    source = args.run
    outcome = None
    try:
        if source.endswith(".py"):
            report, outcome = blame_live(
                source,
                ranks=args.ranks,
                seed=args.seed,
                fan_in=args.fan_in,
                backend=_make_backend(args),
            )
        else:
            report = blame_artifact(source)
    except (OSError, ReproError) as exc:
        print(f"blame: cannot analyze {source}: {exc}", file=sys.stderr)
        return 2
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
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}")
    return 1 if roots else 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.perf import spec_slowdown, stress_sweep
    from repro.workloads.specmpi import (
        EXCLUDED_FROM_AVERAGE,
        SPEC_PROFILES,
    )

    ps = [16, 64, 256, 1024, 4096]
    data = stress_sweep(ps)
    print("Figure 9 — stress-test slowdown model")
    keys = [k for k in data if k != "p"]
    print(f"{'procs':>6} " + " ".join(f"{k:>22}" for k in keys))
    for i, p in enumerate(ps):
        cells = []
        for k in keys:
            v = data[k][i]
            cells.append(f"{v:22.1f}" if v == v else f"{'-':>22}")
        print(f"{p:6d} " + " ".join(cells))

    print("\nFigure 12 — SPEC MPI2007 slowdown model (fan-in 4)")
    scales = [128, 512, 2048]
    print(f"{'application':>16} " + " ".join(f"p={p:>5}" for p in scales))
    included = []
    for name, profile in sorted(SPEC_PROFILES.items()):
        series = [spec_slowdown(profile, p) for p in scales]
        print(f"{name:>16} " + " ".join(f"{v:7.2f}" for v in series))
        if name not in EXCLUDED_FROM_AVERAGE:
            included.append(series[-1])
    print(
        f"\naverage at 2048 (excl. {', '.join(EXCLUDED_FROM_AVERAGE)}): "
        f"{sum(included) / len(included):.2f}x (paper: 1.34x)"
    )
    out = _out_path(args, "json")
    if out:
        _write_json(
            out,
            {
                **doc_header("figures"),
                "figure9": {"p": ps, **{k: data[k] for k in keys}},
                "figure12": {
                    name: {
                        str(p): spec_slowdown(profile, p) for p in scales
                    }
                    for name, profile in sorted(SPEC_PROFILES.items())
                },
                "figure12_average_at_2048": (
                    sum(included) / len(included)
                ),
            },
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeSettings
    from repro.serve.service import serve_forever

    if args.port is None and args.unix is None:
        print("serve needs --port and/or --unix", file=sys.stderr)
        return 2
    settings = ServeSettings(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        workers=args.workers,
        queue_limit=args.queue_limit,
        quota=args.quota,
        backend=args.backend or "inline",
        shards=args.shards or 2,
    )
    try:
        asyncio.run(serve_forever(settings))
    except KeyboardInterrupt:
        pass
    return 0


def _connect_serve(args: argparse.Namespace):
    from repro.serve import ServeClient

    try:
        return ServeClient(args.server, timeout=args.timeout)
    except (OSError, ValueError) as exc:
        print(
            f"error: cannot connect to {args.server}: {exc}",
            file=sys.stderr,
        )
        return None


def _describe_serve_error(exc) -> str:
    message = f"error: {exc.code}: {exc}"
    if exc.retryable:
        hint = (
            f" (retryable; retry after {exc.retry_after:.1f}s)"
            if exc.retry_after is not None
            else " (retryable)"
        )
        message += hint
    return message


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeError

    client = _connect_serve(args)
    if client is None:
        return 2
    with client:
        try:
            if args.target.endswith(".py"):
                with open(args.target, "r", encoding="utf-8") as handle:
                    source = handle.read()
                job_id = client.submit(
                    tenant=args.tenant,
                    source=source,
                    op=args.analysis,
                    ranks=args.ranks,
                )
            elif args.target.endswith(".json"):
                with open(args.target, "r", encoding="utf-8") as handle:
                    trace = json.load(handle)
                job_id = client.submit(tenant=args.tenant, trace=trace)
            else:
                job_id = client.submit(
                    tenant=args.tenant,
                    workload=args.target,
                    ranks=args.ranks,
                )
        except ServeError as exc:
            print(_describe_serve_error(exc), file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot read {args.target}: {exc}", file=sys.stderr)
            return 2
        print(f"submitted {job_id} (tenant {args.tenant})")
        if args.no_wait:
            return 0
        if args.watch:
            final = None
            for item in client.watch(job_id):
                if "final" in item:
                    final = item["final"]
                    break
                print(json.dumps(item, sort_keys=True))
            result = (final or {}).get("result", {})
        else:
            try:
                doc = client.result(
                    job_id, wait=True, timeout=args.timeout
                )
            except ServeError as exc:
                print(_describe_serve_error(exc), file=sys.stderr)
                return 1 if exc.code == "job-failed" else 2
            result = doc.get("result", {})
        verdict = result.get("verdict", "unknown")
        print(f"{job_id}: {verdict}")
        if result.get("deadlocked"):
            ranks = ", ".join(map(str, result["deadlocked"]))
            print(f"  deadlocked ranks: {ranks}")
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json_out}")
        return int(result.get("exit_code", 0))


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve import ServeError

    client = _connect_serve(args)
    if client is None:
        return 2
    with client:
        try:
            if args.metrics:
                print(client.metrics(), end="")
                return 0
            stats = client.stats()
            doc = client.jobs(tenant=args.tenant)
        except ServeError as exc:
            print(_describe_serve_error(exc), file=sys.stderr)
            return 2
        print(
            f"queue depth {stats['queue_depth']}, "
            f"running {stats['running']}/{stats['workers']} workers, "
            f"quota {stats['quota']}/tenant"
            + (" (draining)" if stats["draining"] else "")
        )
        for job in doc["jobs"]:
            line = (
                f"  {job['job']}  {job['state']:<9}  "
                f"{job['tenant']:<10}  {job['spec']}"
            )
            if job.get("error"):
                line += f"  ({job['error']})"
            print(line)
        counts = ", ".join(
            f"{state}={count}"
            for state, count in sorted(doc["counts"].items())
            if count
        )
        if counts:
            print(f"  totals: {counts}")
        if args.json_out:
            payload = {"stats": stats, **doc}
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json_out}")
        return 0


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


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", action="store_true",
        help="instrument the run and print an observability summary",
    )
    parser.add_argument(
        "--obs-trace", metavar="FILE",
        help="write a Chrome trace_event file (Perfetto-compatible) "
        "with the metrics snapshot embedded; implies --obs",
    )
    # Internal routing attributes: --out FILE --format jsonl lands on
    # obs_jsonl, --out FILE --format json on json_out (the pre-1.1
    # option spellings were removed in 1.2 — see REMOVED_CLI_FLAGS).
    parser.set_defaults(obs_jsonl=None, json_out=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Runtime MPI deadlock detection with distributed "
        "wait state tracking (SC '13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run a workload, save its trace")
    rec.add_argument("workload")
    rec.add_argument(
        "-o", "--output",
        help="trace output path (or --out FILE --format json)",
    )
    rec.add_argument("-n", "--ranks", type=int, default=8)
    rec.add_argument("--seed", type=int, default=0)
    _add_common_flags(rec, "record")
    _add_obs_flags(rec)
    rec.set_defaults(func=_cmd_record)

    ana = sub.add_parser("analyze", help="detect deadlocks in a trace")
    ana.add_argument("trace")
    _add_analysis_flags(ana, "analyze")
    ana.set_defaults(func=_cmd_analyze)

    demo = sub.add_parser("demo", help="record + analyze a workload")
    demo.add_argument("workload")
    demo.add_argument("-n", "--ranks", type=int, default=8)
    _add_analysis_flags(demo, "demo")
    demo.set_defaults(func=_cmd_demo)

    lint = sub.add_parser(
        "lint",
        help="statically analyze rank programs or traces (no engine)",
    )
    lint.add_argument(
        "paths", nargs="+",
        help="Python rank-program files or recorded .json traces",
    )
    lint.add_argument(
        "-n", "--ranks", type=int, default=4,
        help="virtual world size for extracted programs (default 4; "
        "a module-level LINT_RANKS overrides it)",
    )
    lint.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print analysis notes (skipped passes etc.)",
    )
    _add_common_flags(lint, "lint")
    lint.set_defaults(func=_cmd_lint)

    classify = sub.add_parser(
        "classify",
        help="label rank programs by decidable fragment "
        "(SEQ-DETERMINISTIC / SEQ-WILDCARD-FREE-LOOPS / UNDECIDABLE)",
    )
    classify.add_argument(
        "paths", nargs="+",
        help="Python rank-program files (as for `repro lint`)",
    )
    classify.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print the extracted symbolic term tree",
    )
    classify.add_argument(
        "--prove", action="store_true",
        help="also run the parameterized prover on each decidable "
        "program (PROVED-ALL-P / REFUTED with minimal p); a "
        "refutation folds into exit code 1",
    )
    _add_common_flags(classify, "classify")
    classify.set_defaults(func=_cmd_classify)

    prove = sub.add_parser(
        "prove",
        help="parameterized deadlock-freedom certification: "
        "PROVED-ALL-P for every p >= 2, or the minimal failing p "
        "with a replayable witness",
    )
    prove.add_argument(
        "paths", nargs="+",
        help="Python rank-program files (as for `repro lint`)",
    )
    prove.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print the per-channel certificate table",
    )
    prove.add_argument(
        "--witness-dir", metavar="DIR",
        help="save each refutation witness as JSON into this "
        "directory",
    )
    _add_common_flags(prove, "prove")
    _add_obs_flags(prove)
    prove.set_defaults(func=_cmd_prove)

    verify = sub.add_parser(
        "verify",
        help="bounded wildcard-aware deadlock verification with "
        "replayable witnesses",
    )
    verify.add_argument(
        "paths", nargs="+",
        help="Python rank-program files (as for `repro lint`)",
    )
    verify.add_argument(
        "-n", "--ranks", type=int, default=4,
        help="virtual world size for extracted programs (default 4; "
        "a module-level LINT_RANKS overrides it)",
    )
    verify.add_argument(
        "--max-states", type=int, default=200_000,
        help="state budget before bailing out with bound-exceeded "
        "(default 200000)",
    )
    verify.add_argument(
        "--max-depth", type=int, default=1_000_000,
        help="schedule-depth budget before bound-exceeded "
        "(default 1000000)",
    )
    verify.add_argument(
        "--replay", action="store_true",
        help="replay each deadlock witness through the runtime engine "
        "to confirm it dynamically",
    )
    verify.add_argument(
        "--no-por", action="store_true",
        help="disable the partial-order reduction (naive enumeration; "
        "for debugging and benchmarks)",
    )
    verify.add_argument(
        "--no-fastpath", action="store_true",
        help="disable the decidable-fragment linear fast path and "
        "always explore the match-set state graph",
    )
    verify.add_argument(
        "--witness-dir", metavar="DIR",
        help="save every deadlock witness as JSON into this directory",
    )
    verify.add_argument(
        "--prove", action="store_true",
        help="also run the parameterized prover on each file; a "
        "REFUTED program counts as a deadlock (exit 1)",
    )
    _add_common_flags(verify, "verify")
    _add_obs_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    stats = sub.add_parser(
        "stats",
        help="summarize an observability run recorded with "
        "--obs-trace, a raw jsonl event stream, or a repro-live/1 "
        "feed",
    )
    stats.add_argument(
        "run",
        help="a Chrome trace file written by --obs-trace, or a raw "
        ".jsonl stream written by --out FILE --format jsonl",
    )
    _add_common_flags(stats, "stats")
    stats.set_defaults(func=_cmd_stats)

    prof = sub.add_parser(
        "profile",
        help="render the BSP round profile of a sharded --obs-trace run "
        "(per-shard sections, critical-shard timeline, codec breakdown)",
    )
    prof.add_argument(
        "run",
        help="a Chrome trace file written by --obs-trace on a run with "
        "--backend sharded",
    )
    _add_common_flags(prof, "profile")
    prof.set_defaults(func=_cmd_profile)

    blame = sub.add_parser(
        "blame",
        help="wait-state blame analysis: root causes, blocked-time "
        "attribution, blame chain, critical path",
    )
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
    blame.set_defaults(func=_cmd_blame)

    watch = sub.add_parser(
        "watch",
        help="follow a run's live health feed: PROGRESSING / SOFT-HANG "
        "/ DEADLOCK-CONFIRMED triage (exit code = verdict)",
    )
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
    watch.set_defaults(func=_cmd_watch)

    serve = sub.add_parser(
        "serve",
        help="run the persistent analysis daemon (NDJSON over TCP/Unix)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=DEFAULT_SERVE_PORT,
        help=f"TCP listen port (default {DEFAULT_SERVE_PORT}; 0 = "
        "ephemeral; use --no-tcp to disable)",
    )
    serve.add_argument(
        "--no-tcp", dest="port", action="store_const", const=None,
        help="no TCP listener (serve only on --unix)",
    )
    serve.add_argument(
        "--unix", metavar="PATH", default=None,
        help="also (or only) listen on this Unix socket path",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="analysis worker threads (default 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32,
        help="max queued jobs before queue-full rejections (default 32)",
    )
    serve.add_argument(
        "--quota", type=int, default=4,
        help="max in-flight jobs per tenant (default 4)",
    )
    serve.add_argument(
        "--backend", choices=("inline", "sharded"), default="inline",
        help="analysis backend the workers use (default inline)",
    )
    serve.add_argument("--shards", type=int, default=2)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit one job to a running repro serve daemon",
    )
    submit.add_argument(
        "target",
        help="a workload name, a rank-program .py file, or a matched "
        "trace .json file",
    )
    submit.add_argument(
        "--server", default=f"127.0.0.1:{DEFAULT_SERVE_PORT}",
        help="daemon address: host:port or a Unix socket path "
        f"(default 127.0.0.1:{DEFAULT_SERVE_PORT})",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument("-n", "--ranks", type=int, default=4)
    submit.add_argument(
        "--analysis", choices=("analyze", "verify", "blame"),
        default="analyze",
        help="analysis for .py submissions (default analyze)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return after submission without waiting for the verdict",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="stream the job's repro-live/1 windows while waiting",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="connect/wait timeout in seconds (default 300)",
    )
    _add_common_flags(submit, "submit")
    submit.set_defaults(func=_cmd_submit, json_out=None)

    jobs = sub.add_parser(
        "jobs",
        help="list jobs and stats of a running repro serve daemon",
    )
    jobs.add_argument(
        "--server", default=f"127.0.0.1:{DEFAULT_SERVE_PORT}",
        help="daemon address: host:port or a Unix socket path",
    )
    jobs.add_argument(
        "--tenant", default=None, help="only this tenant's jobs"
    )
    jobs.add_argument(
        "--metrics", action="store_true",
        help="print the daemon's OpenMetrics scrape and exit",
    )
    jobs.add_argument("--timeout", type=float, default=30.0)
    _add_common_flags(jobs, "jobs")
    jobs.set_defaults(func=_cmd_jobs, json_out=None)

    figs = sub.add_parser("figures", help="print the overhead models")
    _add_common_flags(figs, "figures")
    figs.set_defaults(func=_cmd_figures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code = _reject_removed_flags(argv)
    if code is not None:
        return code
    args = build_parser().parse_args(argv)
    code = _normalize_args(args)
    if code is not None:
        return code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
