"""What a deadlock report costs, and who pays for it.

The paper's Figure 10(b) finds that at scale the report, not the
detection, is the cost. The Fig. 10 storm (every rank in a wildcard
receive, p*(p-1) arcs) is run at each scale and priced four ways:

* **verdict only** — a warm ``Session.run``: reports are rendered when
  they are read, so this builds none;
* **first read** of ``record.dot_text`` / ``.html_report`` /
  ``.json_report`` (up to p=1024: the HTML is 1.1 GB at p=4096);
* **streamed** — ``write_dot`` / ``write_html_report`` to a file, which
  hold one clause's O(p) arcs at a time, with the bytes they wrote;
* **as the user runs it** — wall clock and peak RSS of a child
  ``python -m repro demo wildcard -n p`` with no artifact, with
  ``--dot F`` and with ``--report F``.

``--parent DIR`` runs the same children from another checkout of the
repository, alternating with this one, records both sides and checks
that the files written are byte-identical (at ``REPRO_FULL_SCALE=1``
that checkout's ``--report`` may need 3 GB at p=4096).

The script asserts the shape, not the seconds: verdict-only stays
small whatever the report would have been (child RSS < 80 MB at
p=1024), the HTML written from the graph equals the one handed a DOT
string, byte for byte, and is at least twice as fast.

Run:  python benchmarks/bench_report_rendering.py [--parent DIR]
"""
from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import Session
from repro.wfg.dot import write_dot
from repro.wfg.report import render_html_report, write_html_report
from repro.workloads import wildcard_deadlock_programs

from _util import fmt_table, scale_points, write_result

ROOT = Path(__file__).resolve().parent.parent

PROCESS_COUNTS = scale_points(
    default=(256, 512, 1024), full=(256, 512, 1024, 2048, 4096)
)
#: Largest scale whose reports are also built as strings in this
#: process, and above which every file is written once (1 GB each).
IN_MEMORY_LIMIT = 1024
VERDICT_REPS = 5
RENDER_REPS = 3
CHILD_REPS = 5
VERDICT_RSS_CEILING_MB = 80.0
GRAPH_OVER_STRING_FLOOR = 2.0

#: Child command lines, by what they ask for ("@" is the output file).
CHILD_CELLS = {
    "verdict": [],
    "dot": ["--dot", "@"],
    "report": ["--report", "@"],
}


def _timed(call: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def _in_process(p: int, tmp: Path) -> Dict[str, Any]:
    session = Session(seed=0)
    session.run(wildcard_deadlock_programs(64))
    walls = []
    for _ in range(VERDICT_REPS):
        wall, outcome = _timed(
            lambda: session.run(wildcard_deadlock_programs(p))
        )
        assert outcome.deadlocked == tuple(range(p))
        walls.append(wall)
    record = outcome.detection
    graph, result, conditions = record.graph, record.result, record.conditions
    extras = {"flight_tails": record.flight_tails, "blame": record.blame}
    row: Dict[str, Any] = {
        "arcs": graph.arc_count(),
        "verdict_s": statistics.median(walls),
    }

    writers = {
        "dot": lambda out: write_dot(out, graph, result),
        "html": lambda out: write_html_report(
            out, graph, result, conditions, **extras
        ),
    }
    for fmt, write in writers.items():
        path = tmp / f"storm.{fmt}"

        def stream() -> None:
            with open(path, "w", encoding="utf-8") as handle:
                write(handle)

        row[f"{fmt}_stream_s"] = min(
            _timed(stream)[0]
            for _ in range(RENDER_REPS if p <= IN_MEMORY_LIMIT else 1)
        )
        row[f"{fmt}_bytes"] = path.stat().st_size
        path.unlink()
    if p > IN_MEMORY_LIMIT:
        return row

    for attr in ("dot_text", "html_report", "json_report"):
        row[f"{attr}_first_read_s"], first = _timed(
            lambda: getattr(record, attr)
        )
        assert getattr(record, attr) is first, "a report is rendered once"
    assert len(record.dot_text) == row["dot_bytes"]
    assert len(record.html_report) == row["html_bytes"]
    # The graph path against the string path, alternating, best of each.
    from_graph, from_string = [], []
    for _ in range(RENDER_REPS):
        wall, text = _timed(
            lambda: render_html_report(graph, result, conditions, **extras)
        )
        from_graph.append(wall)
        assert text == record.html_report
        wall, text = _timed(
            lambda: render_html_report(
                graph, result, conditions, dot_text=record.dot_text, **extras
            )
        )
        from_string.append(wall)
        assert text == record.html_report, "graph and string paths differ"
    row["html_from_graph_s"] = min(from_graph)
    row["html_from_string_s"] = min(from_string)
    row["html_graph_over_string"] = min(from_string) / min(from_graph)
    return row


#: Runs its arguments as a command and prints that child's wall
#: seconds, peak RSS (MB) and exit code. A process of its own because
#: ``ru_maxrss`` of a forked child starts at the forking process's
#: resident set: forked from here it would read this bench's own
#: hundreds of MB, from this launcher it reads ~10 MB.
_LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_pid, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss / 1024.0,
      os.waitstatus_to_exitcode(status))
"""


def _child(checkout: Path, p: int, flags: List[str]) -> Tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one ``repro demo wildcard``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    # The untimed first child must be able to leave its bytecode
    # behind, or a checkout that has none pays to compile every time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "repro",
         "demo", "wildcard", "-n", str(p), *flags],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[2] == "1", f"exit {out[2]}, expected a deadlock"
    return float(out[0]), float(out[1])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _children(
    p: int, tmp: Path, sides: Dict[str, Path]
) -> Dict[str, Dict[str, Any]]:
    """Every cell from every checkout, the sides alternating."""
    reps = CHILD_REPS if p <= IN_MEMORY_LIMIT else 1
    cells: Dict[str, Dict[str, Any]] = {}
    for cell, flags in CHILD_CELLS.items():
        walls: Dict[str, List[float]] = {side: [] for side in sides}
        peaks: Dict[str, float] = dict.fromkeys(sides, 0.0)
        hashes: Dict[str, str] = {}
        for rep in range(reps):
            order = list(sides) if rep % 2 == 0 else list(reversed(sides))
            for side in order:
                path = tmp / f"{side}.{cell}"
                argv = [str(path) if arg == "@" else arg for arg in flags]
                wall, rss = _child(sides[side], p, argv)
                walls[side].append(wall)
                peaks[side] = max(peaks[side], rss)
                if flags:
                    hashes[side] = _sha256(path)
                    path.unlink()
        doc: Dict[str, Any] = {}
        for side in sides:
            doc[side] = {
                "wall_s": statistics.median(walls[side]),
                "peak_rss_mb": peaks[side],
                "runs": len(walls[side]),
            }
        if flags:
            doc["sha256"] = hashes["change"]
        if "parent" in sides:
            doc["speedup"] = (
                doc["parent"]["wall_s"] / doc["change"]["wall_s"]
            )
            if flags:
                assert hashes["parent"] == hashes["change"], (
                    f"p={p} {cell}: the two checkouts wrote different files"
                )
                doc["identical_to_parent"] = True
        cells[cell] = doc
    return cells


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--parent", type=Path,
        help="another checkout to run the child cells from, alternating",
    )
    args = parser.parse_args(argv)
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    rows: Dict[int, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-reports-") as folder:
        tmp = Path(folder)
        for checkout in sides.values():
            _child(checkout, 8, [])  # compile the bytecode, untimed
        for p in PROCESS_COUNTS:
            rows[p] = _in_process(p, tmp)
            rows[p]["cli"] = _children(p, tmp, sides)

    def ms(seconds: Optional[float]) -> str:
        return "-" if seconds is None else f"{seconds * 1e3:.1f}"

    lines = fmt_table(
        ["procs", "verdict ms", "dot read", "html read", "json read",
         "dot file", "html file", "html MB", "graph/str"],
        [
            [p, ms(r["verdict_s"]), ms(r.get("dot_text_first_read_s")),
             ms(r.get("html_report_first_read_s")),
             ms(r.get("json_report_first_read_s")),
             ms(r["dot_stream_s"]), ms(r["html_stream_s"]),
             f"{r['html_bytes'] / 1e6:.1f}",
             f"{r['html_graph_over_string']:.2f}x"
             if "html_graph_over_string" in r else "-"]
            for p, r in rows.items()
        ],
    )
    lines.append("")
    header = ["procs", "cell"]
    for side in sides:
        header += [f"{side} s", f"{side} MB"]
    if "parent" in sides:
        header.append("speedup")
    child_rows = []
    for p, r in rows.items():
        for cell, doc in r["cli"].items():
            line = [p, cell]
            for side in sides:
                line += [f"{doc[side]['wall_s']:.3f}",
                         f"{doc[side]['peak_rss_mb']:.1f}"]
            if "parent" in sides:
                line.append(f"{doc['speedup']:.2f}x")
            child_rows.append(line)
    lines += fmt_table(header, child_rows)
    write_result(
        "report_rendering",
        lines,
        data={
            "params": {
                "procs": list(rows),
                "verdict_reps": VERDICT_REPS,
                "render_reps": RENDER_REPS,
                "child_reps": CHILD_REPS,
                "in_memory_limit": IN_MEMORY_LIMIT,
                "parent": "parent" in sides,
            },
            "rows": {str(p): r for p, r in rows.items()},
        },
    )

    failures = []
    gate = max(p for p in rows if p <= IN_MEMORY_LIMIT)
    rss = rows[gate]["cli"]["verdict"]["change"]["peak_rss_mb"]
    if rss >= VERDICT_RSS_CEILING_MB:
        failures.append(
            f"verdict-only child at p={gate} peaked at {rss:.1f} MB "
            f"(ceiling {VERDICT_RSS_CEILING_MB} MB)"
        )
    ratio = rows[gate]["html_graph_over_string"]
    if ratio < GRAPH_OVER_STRING_FLOOR:
        failures.append(
            f"HTML from the graph is {ratio:.2f}x the speed of HTML from "
            f"a DOT string at p={gate} (floor {GRAPH_OVER_STRING_FLOOR}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"PASS: p={gate}: verdict-only child {rss:.1f} MB, HTML from "
            f"the graph {ratio:.2f}x faster than from a DOT string, "
            "bytes equal"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
