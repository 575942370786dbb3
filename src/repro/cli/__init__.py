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

Layout: :data:`COMMANDS` below is the one table of subcommands;
``common.py`` owns the flag quartet, ``--out`` routing and the exit
codes; ``run.py`` (record/analyze/demo), ``static.py`` (lint/classify/
prove/verify), ``obs.py`` (stats/profile/blame/watch), ``serve.py``
(serve/submit/jobs) and ``figures.py`` hold the commands. A cold
``repro <command>`` imports the one module its command lives in.
"""
from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Optional, Sequence, Tuple

from repro.cli.common import _FORMATS  # noqa: F401  (tests read it here)
from repro.cli.common import _normalize_args, _reject_removed_flags

#: Every subcommand: name, the module whose ``HANDLERS[name]`` is its
#: ``(register(parser), run(args))`` pair, and its ``repro --help``
#: line. ``main`` imports the one module the command line names;
#: listing the commands imports none.
COMMANDS: Tuple[Tuple[str, str, str], ...] = (
    ("record", "repro.cli.run", "run a workload, save its trace"),
    ("analyze", "repro.cli.run", "detect deadlocks in a trace"),
    ("demo", "repro.cli.run", "record + analyze a workload"),
    ("lint", "repro.cli.static",
     "statically analyze rank programs or traces (no engine)"),
    ("classify", "repro.cli.static",
     "label rank programs by decidable fragment "
     "(SEQ-DETERMINISTIC / SEQ-WILDCARD-FREE-LOOPS / UNDECIDABLE)"),
    ("prove", "repro.cli.static",
     "parameterized deadlock-freedom certification: "
     "PROVED-ALL-P for every p >= 2, or the minimal failing p "
     "with a replayable witness"),
    ("verify", "repro.cli.static",
     "bounded wildcard-aware deadlock verification with "
     "replayable witnesses"),
    ("stats", "repro.cli.obs",
     "summarize an observability run recorded with "
     "--obs-trace, a raw jsonl event stream, or a repro-live/1 "
     "feed"),
    ("profile", "repro.cli.obs",
     "render the BSP round profile of a sharded --obs-trace run "
     "(per-shard sections, critical-shard timeline, codec breakdown)"),
    ("blame", "repro.cli.obs",
     "wait-state blame analysis: root causes, blocked-time "
     "attribution, blame chain, critical path"),
    ("watch", "repro.cli.obs",
     "follow a run's live health feed: PROGRESSING / SOFT-HANG "
     "/ DEADLOCK-CONFIRMED triage (exit code = verdict)"),
    ("serve", "repro.cli.serve",
     "run the persistent analysis daemon (NDJSON over TCP/Unix)"),
    ("submit", "repro.cli.serve",
     "submit one job to a running repro serve daemon"),
    ("jobs", "repro.cli.serve",
     "list jobs and stats of a running repro serve daemon"),
    ("figures", "repro.cli.figures", "print the overhead models"),
)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser: every command listed from
    :data:`COMMANDS`, the arguments of ``only`` (of all of them when
    None) filled in by its module."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Runtime MPI deadlock detection with distributed "
        "wait state tracking (SC '13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, module, help_line in COMMANDS:
        command = sub.add_parser(name, help=help_line)
        if only is None or name == only:
            register, run = import_module(module).HANDLERS[name]
            register(command)
            command.set_defaults(func=run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code = _reject_removed_flags(argv)
    if code is not None:
        return code
    # ``repro`` itself takes no option but -h, so the first token that
    # is not an option is the subcommand, or a typo argparse reports
    # against the full list.
    token = next((t for t in argv if not t.startswith("-")), "")
    args = build_parser(token).parse_args(argv)
    code = _normalize_args(args)
    if code is not None:
        return code
    return int(args.func(args))
