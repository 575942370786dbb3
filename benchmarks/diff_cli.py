#!/usr/bin/env python3
"""Differential dump of what the commands that run the tool print and
write, for two checkouts.

A change to what drives ``record``/``analyze``/``demo``/``blame`` (or to
the ``--obs*`` export under ``prove``/``verify``), or to how a command
reads a rank-program file (``repro/programfile.py``), must leave stdout,
the exit code and every written artifact where they were. This script
is the check, in the ``diff_recorders.py`` pattern: run ``dump`` once in
each checkout (from its root, so ``src`` and ``examples/`` are that
checkout's), then ``compare``. Both dumps are made by *this* file, run
by its path, so a parent needs nothing copied in: the matrix and the
fixture files (``tests/fixtures/program_files``, found next to the
script) are the same on both sides.

    cd PARENT && PYTHONPATH=src python CHANGE/benchmarks/diff_cli.py dump /tmp/parent.json
    cd CHANGE && PYTHONPATH=src python benchmarks/diff_cli.py dump /tmp/a.json
    python benchmarks/diff_cli.py compare /tmp/parent.json /tmp/a.json

Every line of the matrix is one in-process ``repro.cli.main(argv)`` in a
scratch directory that holds an ``examples`` and a ``fixtures`` link
and, for ``analyze``, the trace ``t.json`` the group's first ``record``
line wrote. A line's
entry is its exit code, its masked stdout and stderr, and per written
file the SHA-256 of its masked text. The matrix:

* all 11 named workloads at ``-n 8`` through ``record`` (plain,
  ``--seed 7``, ``--obs``, ``--obs-trace``, ``--format jsonl``, without
  an output path) and through ``analyze t.json`` and ``demo W`` with
  each of ``RUN_FLAGS``: ``--seed``, ``--centralized``, ``--adapt``,
  ``--checks``, ``--obs``, ``--obs-trace``, ``--format
  json|jsonl|html|dot``, ``--simplify``, ``--report`` + ``--dot``,
  ``--backend sharded`` alone and with artifacts;
* ``blame`` on rank-program files with both backends, on a Chrome trace
  and on a JSONL stream, ``stats``/``profile`` on the same artifacts;
* ``prove``/``verify`` with ``--obs``, ``--obs-trace``, ``--format
  jsonl``; ``lint``/``classify`` plain; ``watch`` on a workload;
* every fixture rank-program file (one program, a helper generator, a
  dataclass under postponed annotations, two programs, ``LINT_PROGRAMS``,
  no program, exit / raise at import, a syntax error, a program that
  raises, one that misuses MPI) through ``lint -v``, ``classify``,
  ``prove``, ``verify``, ``blame`` and ``watch``;
* the unknown-workload errors of ``record``, ``demo`` and ``watch``;
* ``repro --help`` and ``repro <command> --help`` for every command.

Masking: wall-clock readings are the run-to-run noise, and every one of
them is printed or serialized as a decimal fraction, so ``MASK`` (one
regex, below) replaces each number written with a fraction or an
exponent, and the padding in front of it, by ``#`` in stdout and in file
text before hashing. Integers (ranks, counts, sequence numbers, the
engine's logical clock) stay. Four readings are not numbers. A sharded
trace holds the coordinator's events in the order the workers answered,
so its events are sorted; its ``profile`` block names the slower shard
of every round, so it is reduced to its key set (and ``repro profile``
on such a trace is left out of the matrix). Live ``blame`` under the
sharded backend orders its rows by blocked time read off two workers'
clocks (two of eight runs of one checkout swap two groups of rows), so
the lines of its stdout are sorted. Call-site locations and ``OSError``
texts spell the checkout and the scratch directory, which are replaced
by ``.``.

Deadlock reports are hashed in two parts: the flight-recorder tails
(``flight_tails`` of the JSON report, the "Flight recorder" section of
the HTML report) and everything else. For an inline ``demo`` line that
found a deadlock the entry also holds ``session_flight_tails``: the same
part of the report ``Session(seed, backend).run(programs)`` renders.
``compare`` expects every entry equal except those tails, and there it
expects the right-hand side to equal its own ``session_flight_tails``.
"""
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

#: The one mask: any number written with a fraction or an exponent,
#: with the column padding before it.
MASK = re.compile(r" *(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")

#: The flight-recorder section of an HTML deadlock report.
HTML_TAILS = re.compile(
    r"<h2>Flight recorder:.*?(?=<p>Wait-for graph:)", re.DOTALL
)

#: The checkout ``dump`` runs in.
ROOT = os.getcwd()

#: The rank-program fixture files, the same for both checkouts.
FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "fixtures", "program_files",
)
#: What every scratch directory links to.
LINKS = {"examples": os.path.join(ROOT, "examples"), "fixtures": FIXTURES}
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
        for name in sorted(os.listdir(FIXTURES)) if name.endswith(".py")
        for command, *flags in FIXTURE_COMMANDS
    ]
    from repro.cli import COMMANDS

    yield "help", (), [("--help",)] + [
        (name, "--help") for name, _module, _help in COMMANDS
    ]


def _mask(text):
    for directory in (os.getcwd(), ROOT):
        text = text.replace(directory, ".")
    return MASK.sub("#", text)


def _sha(text):
    return hashlib.sha256(_mask(text).encode("utf-8")).hexdigest()


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
    return {"sha256": _sha(body), "flight_tails": tails and _sha(tails)}


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


def dump(path):
    root = ROOT
    path = os.path.abspath(path)
    out = {}
    for label, keep, lines in _groups():
        scratch = tempfile.mkdtemp(prefix="diff_cli_")
        try:
            for link, target in LINKS.items():
                os.symlink(target, os.path.join(scratch, link))
            os.chdir(scratch)
            for argv in lines:
                out[f"{label}: repro {' '.join(argv)}"] = _run_line(
                    argv, keep
                )
        finally:
            os.chdir(root)
            shutil.rmtree(scratch, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=1)
    print(f"{len(out)} command lines -> {path}")
    return 0


def compare(left_path, right_path):
    with open(left_path) as fh:
        left = json.load(fh)
    with open(right_path) as fh:
        right = json.load(fh)
    diffs, tails_moved, tails_off_session = [], [], []
    for line in sorted(set(left) | set(right)):
        a, b = left.get(line), right.get(line)
        if a is None or b is None:
            diffs.append((line, "line", a and "present", b and "present"))
            continue
        for key in ("exit", "stdout", "stderr"):
            if a[key] != b[key]:
                diffs.append((line, key, a[key], b[key]))
        for name in sorted(set(a["files"]) | set(b["files"])):
            fa, fb = a["files"].get(name), b["files"].get(name)
            if fa is None or fb is None or fa["sha256"] != fb["sha256"]:
                diffs.append((line, name, fa, fb))
                continue
            if fa["flight_tails"] != fb["flight_tails"]:
                tails_moved.append(f"{line} [{name}]")
                if fb["flight_tails"] != fb.get("session_flight_tails"):
                    tails_off_session.append(f"{line} [{name}]")
    print(
        f"{len(left)} command lines compared; {len(diffs)} differences "
        f"outside flight tails; {len(tails_moved)} reports whose flight "
        f"tails moved, {len(tails_off_session)} of them not to "
        "Session.run's"
    )
    for line, what, a, b in diffs:
        print(f"{line} [{what}]")
        print("   left: ", json.dumps(a)[:400])
        print("   right:", json.dumps(b)[:400])
    for line in tails_moved:
        mark = "NOT Session.run's" if line in tails_off_session else "ok"
        print(f"flight tails moved ({mark}): {line}")
    return 1 if diffs or tails_off_session else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        return dump(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
