"""Matrix: what the commands print and write (``PYTHONPATH=src``).

A change to what drives ``record``/``analyze``/``demo``/``blame`` (or to
the ``--obs*`` export under ``prove``/``verify``), or to how a command
reads a rank-program file (``repro/programfile.py``), must leave stdout,
the exit code and every written artifact where they were.

Every line of the matrix (the tables below: 11 workloads x
``record``/``analyze``/``demo`` x flags, ``OTHER_GROUPS``, the fixture
rank-program files next to this checkout's script x
``FIXTURE_COMMANDS``, every ``--help``) is one in-process
``repro.cli.main(argv)`` in a scratch directory holding an ``examples``
and a ``fixtures`` link and the files earlier lines of its group left.
Its entry is the exit code, masked stdout and stderr (an uncaught
exception is exit 1 plus a ``Traceback:`` stderr line), and per written
file the SHA-256 of its masked text.

Masking is ``harness.MASK`` with the checkout and the scratch directory
spelled ``.``. Four readings are not numbers. A sharded trace holds the
coordinator's events in the order the workers answered, so its events
are sorted; its ``profile`` block names the slower shard of every
round, so it is reduced to its key set (and ``repro profile`` on such a
trace is left out). Live ``blame`` under the sharded backend orders its
rows by blocked time read off two workers' clocks, so its stdout lines
are sorted.

A deadlock report is hashed in two parts: its flight-recorder tails and
everything else. An inline ``demo`` line that found a deadlock also
holds ``session_flight_tails``, the same part of what
``Session(seed).run(programs)`` renders; ``compare`` tolerates tails
that moved to those, and nothing else.
"""
import contextlib
import io
import json
import os
import re
import shutil
import tempfile

import harness

#: The flight-recorder section of an HTML deadlock report.
HTML_TAILS = re.compile(
    r"<h2>Flight recorder:.*?(?=<p>Wait-for graph:)", re.DOTALL
)

#: The checkout ``dump`` runs in.
ROOT = os.getcwd()

#: What every scratch directory links to.
LINKS = {
    "examples": os.path.join(ROOT, "examples"),
    "fixtures": harness.FIXTURES,
}
FIXTURE_COMMANDS = (
    ("lint", "-v"), ("classify",), ("prove",), ("verify",),
    ("blame", "-n", "4"), ("watch", "-n", "4"),
)

WORKLOADS = (
    "fig2a", "fig2b", "fig4", "stress", "wildcard", "lammps", "gapgeofem",
    "halo2d", "persistent-ring", "soft-hang", "straggler",
)
RANKS = ("-n", "8")

RECORD_FLAGS = (
    (),
    ("--seed", "7"),
    ("--obs",),
    ("--obs-trace", "r.trace.json"),
    ("--out", "e.jsonl", "--format", "jsonl"),
)

#: Appended to ``analyze t.json`` and to ``demo W -n 8``.
RUN_FLAGS = (
    (),
    ("--seed", "7"),
    ("--seed", "7", "--out", "d.json"),
    ("--centralized",),
    ("--adapt",),
    ("--checks",),
    ("--obs",),
    ("--obs-trace", "r.trace.json"),
    ("--out", "e.jsonl", "--format", "jsonl"),
    ("--out", "d.json", "--format", "json"),
    ("--out", "r.html", "--format", "html"),
    ("--out", "g.dot", "--format", "dot"),
    ("--out", "g.dot", "--format", "dot", "--simplify"),
    ("--report", "r.html", "--dot", "g.dot", "--out", "d.json"),
    ("--centralized", "--obs-trace", "r.trace.json", "--out", "d.json"),
    ("--adapt", "--obs", "--report", "r.html"),
    ("--backend", "sharded"),
    ("--backend", "sharded", "--obs-trace", "r.trace.json",
     "--out", "d.json"),
    ("--backend", "sharded", "--fan-in", "2", "--out", "r.html",
     "--format", "html"),
)

LAMMPS = "examples/lammps_potential_deadlock.py"

#: ``(label, files kept for later lines, lines)``: the lines of a group
#: share a scratch directory; what a line writes is hashed, and removed
#: unless a later line of the group reads it.
OTHER_GROUPS = (
    ("blame-live", (), (
        ("blame", LAMMPS, "-n", "8"),
        ("blame", LAMMPS, "-n", "8", "--seed", "7", "--fan-in", "2"),
        ("blame", LAMMPS, "-n", "8", "--backend", "sharded",
         "--shards", "2"),
        ("blame", LAMMPS, "-n", "8", "--out", "b.json"),
        ("blame", "examples/quickstart.py"),
        ("blame", "examples/soft_hang_imbalance.py", "-n", "6"),
        ("blame", "examples/nope.py"),
    )),
    ("artifacts", ("r.trace.json", "e.jsonl", "s.trace.json"), (
        ("demo", "fig2b", "--obs-trace", "r.trace.json"),
        ("demo", "fig2b", "--out", "e.jsonl", "--format", "jsonl"),
        ("demo", "stress", "-n", "8", "--backend", "sharded",
         "--obs-trace", "s.trace.json"),
        ("blame", "r.trace.json"),
        ("blame", "r.trace.json", "--out", "b.json"),
        ("blame", "e.jsonl"),
        ("stats", "r.trace.json"),
        ("stats", "e.jsonl"),
        ("stats", "s.trace.json", "--out", "s.json"),
        ("profile", "r.trace.json"),
    )),
    ("static", (), (
        ("prove", "examples/parity_exchange.py", "--obs"),
        ("prove", "examples/parity_exchange.py", LAMMPS,
         "--obs-trace", "p.trace.json", "--out", "p.json"),
        ("verify", LAMMPS, "--obs"),
        ("verify", "examples/wildcard_master_worker.py", "--replay",
         "--obs-trace", "v.trace.json"),
        ("verify", LAMMPS, "--out", "v.jsonl", "--format", "jsonl"),
        ("verify", LAMMPS, "--prove", "--out", "v.json"),
        ("lint", LAMMPS),
        ("classify", "examples/quickstart.py", "--prove"),
    )),
    ("watch-and-errors", (), (
        ("watch", "fig2a", "-n", "2"),
        ("watch", "soft-hang", "-n", "8", "--out", "w.jsonl",
         "--format", "jsonl"),
        ("watch", "persistent-ring", "-n", "4", "--backend", "sharded"),
        ("watch", "not-a-workload"),
        ("demo", "not-a-workload"),
        ("record", "not-a-workload", "-o", "t.json"),
        ("record", "fig2a"),
    )),
)


def _groups():
    for workload in WORKLOADS:
        lines = [("record", workload, *RANKS, "-o", "t.json")]
        lines += [
            ("record", workload, *RANKS, "-o", "u.json", *flags)
            for flags in RECORD_FLAGS[1:]
        ]
        lines.append(("record", workload, *RANKS, "--out", "u.json"))
        lines += [("analyze", "t.json", *flags) for flags in RUN_FLAGS]
        lines += [("demo", workload, *RANKS, *flags) for flags in RUN_FLAGS]
        yield workload, ("t.json",), lines
    yield from OTHER_GROUPS
    yield "program-files", (), [
        (command, f"fixtures/{name}", *flags)
        for name in sorted(os.listdir(harness.FIXTURES))
        if name.endswith(".py")
        for command, *flags in FIXTURE_COMMANDS
    ]
    from repro.cli import COMMANDS

    yield "help", (), [("--help",)] + [
        (name, "--help") for name, _module, _help in COMMANDS
    ]


def _mask(text):
    return harness.mask(text, os.getcwd(), ROOT)


def _split_tails(name, text):
    """``(everything else, flight tails or None)`` of a written file,
    a sharded trace's events sorted and its profile reduced to keys."""
    if name.endswith(".html"):
        found = HTML_TAILS.search(text)
        if found:
            return HTML_TAILS.sub("", text), found.group(0)
    elif name.endswith(".json"):
        try:
            doc = json.loads(text)
        except ValueError:
            return text, None
        if isinstance(doc, dict) and "flight_tails" in doc:
            tails = doc.pop("flight_tails")
            return (
                json.dumps(doc, sort_keys=True),
                json.dumps(tails, sort_keys=True) if tails else None,
            )
        meta = doc.get("repro") if isinstance(doc, dict) else None
        if isinstance(meta, dict) and meta.get("profile"):
            meta["profile"] = sorted(meta["profile"])
            doc["traceEvents"] = sorted(
                _mask(json.dumps(event, sort_keys=True))
                for event in doc["traceEvents"]
            )
            return json.dumps(doc, sort_keys=True), None
    return text, None


def _file_entry(name, text):
    body, tails = _split_tails(name, text)
    return {
        "sha256": harness.sha(_mask(body)),
        "flight_tails": tails and harness.sha(_mask(tails)),
    }


def _session_reports(argv):
    """``{file name: report text}`` of ``Session.run`` for an inline
    ``demo`` line, or {} when the line is not one or the run is clean."""
    other = {"sharded", "--centralized", "--adapt"}
    if argv[0] != "demo" or other & set(argv):
        return {}
    from repro.api import Session

    try:
        from repro.workloads.named import NAMED_WORKLOADS
    except ImportError:  # a parent before PR 19 keeps the table here
        from repro.cli.common import _workloads

        NAMED_WORKLOADS = _workloads()
    build = NAMED_WORKLOADS.get(argv[1])
    if build is None:
        return {}
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    ranks = int(argv[argv.index("-n") + 1]) if "-n" in argv else 8
    record = Session(seed=seed).run(build(ranks)).detection
    if not record.has_deadlock:
        return {}
    reports = {}
    if "d.json" in argv:
        reports["d.json"] = json.dumps(record.json_report)
    if "r.html" in argv:
        reports["r.html"] = record.html_report
    return reports


def _run_line(argv, keep):
    from repro.cli import main

    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the process would print a traceback
        code = 1
        err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    stdout = _mask(out.getvalue())
    if argv[0] == "blame" and "sharded" in argv:
        stdout = "\n".join(sorted(stdout.splitlines()))
    entry = {
        "exit": code,
        "stdout": stdout,
        "stderr": _mask(err.getvalue()),
        "files": {},
    }
    for name in sorted(os.listdir(".")):
        if name in before and (name in keep or name in LINKS):
            continue
        with open(name, "r", encoding="utf-8") as fh:
            entry["files"][name] = _file_entry(name, fh.read())
        if name not in keep:
            os.remove(name)
    for name, text in _session_reports(argv).items():
        if name in entry["files"]:
            entry["files"][name]["session_flight_tails"] = _file_entry(
                name, text
            )["flight_tails"]
    return entry


def entries():
    for label, keep, lines in _groups():
        scratch = tempfile.mkdtemp(prefix="diff_cli_")
        try:
            for link, target in LINKS.items():
                os.symlink(target, os.path.join(scratch, link))
            os.chdir(scratch)
            for argv in lines:
                yield f"{label}: repro {' '.join(argv)}", _run_line(argv, keep)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(scratch, ignore_errors=True)


def tolerate(where, _left, right):
    """A report's flight tails may move, to ``Session.run``'s only; the
    reference tails themselves are not an output of the line."""
    if where[-1] == "session_flight_tails":
        return "reference tails"
    if where[-1] == "flight_tails":
        entry = right[where[0]]["files"][where[2]]
        if entry["flight_tails"] == entry.get("session_flight_tails"):
            return "flight tails moved to Session.run's"
    return None

