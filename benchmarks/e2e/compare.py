#!/usr/bin/env python3
"""Compare two result documents of ``run.py``: A is the base, B the change.

``python3 benchmarks/e2e/compare.py A.json B.json`` prints one row per
(workload, end-to-end metric) with both values, the ratio B/A, the
metric's bound and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       it is;
``unresolved``  the passes of one document differ among themselves by
                more than the bound and the passes of A and B are not
                strictly separated, so the documents cannot tell.

Counts that must repeat exactly are listed after the table; they are
exact for one seed, so between documents of different seeds a count
that differs reads ``seed`` and is not held against B. Exit status is
1 when any row is ``worse``, ``unresolved`` or a count ``differs``.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def run_spread(runs: Sequence[float]) -> float:
    """Distance between the passes of one document over their median."""
    middle = statistics.median(runs)
    return (max(runs) - min(runs)) / middle if middle else 0.0


def judge(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Verdict on one metric entry of B against the same entry of A."""
    lower = a["better"] == "lower"
    bound = a["bound"]
    va, vb = a["value"], b["value"]
    if va == 0:
        worse_by = 0.0 if vb == 0 else float("inf")
    else:
        worse_by = (vb - va) / va if lower else (va - vb) / va
    if max(run_spread(a["runs"]), run_spread(b["runs"])) <= bound:
        return "worse" if worse_by > bound else "ok"
    if lower:
        b_better = max(b["runs"]) < min(a["runs"])
        b_worse = min(b["runs"]) > max(a["runs"])
    else:
        b_better = min(b["runs"]) > max(a["runs"])
        b_worse = max(b["runs"]) < min(a["runs"])
    if b_better:
        return "ok"
    return "worse" if b_worse and worse_by > bound else "unresolved"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[List[str]]:
    rows = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            rows.append([name, "*", "-", "-", "-", "-", "unresolved"])
            continue
        for metric, a in wa["end_to_end"].items():
            b = wb["end_to_end"].get(metric)
            if b is None:
                rows.append([name, metric, "-", "-", "-", "-", "unresolved"])
                continue
            ratio = f"{b['value'] / a['value']:.3f}" if a["value"] else "-"
            rows.append([
                name, metric, f"{a['value']:.6g}", f"{b['value']:.6g}",
                ratio, f"{a['bound']:.0%}", judge(a, b),
            ])
    return rows


def count_rows(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[List[str]]:
    same_seed = doc_a["provenance"]["seed"] == doc_b["provenance"]["seed"]
    rows = []
    for name, wa in doc_a["workloads"].items():
        layers_b = doc_b["workloads"].get(name, {}).get("per_layer", {})
        for metric in metrics.EXACT_COUNTS:
            if metric not in wa["per_layer"]:
                continue
            va = wa["per_layer"][metric]["value"]
            vb = layers_b.get(metric, {}).get("value")
            rows.append([
                name, metric, f"{va:g}", "-" if vb is None else f"{vb:g}",
                "same" if va == vb else "differs" if same_seed else "seed",
            ])
    return rows


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [
        max(len(str(row[i])) for row in [header, *rows])
        for i in range(len(header))
    ]
    for row in [header, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    rows = compare(*docs)
    print(f"A = {argv[0]} (base of every ratio), B = {argv[1]}")
    _table(["workload", "metric", "A", "B", "B/A", "bound", "verdict"], rows)
    counts = count_rows(*docs)
    if counts:
        print("\ncounts that must repeat exactly")
        _table(["workload", "count", "A", "B", "verdict"], counts)
    bad = sum(row[-1] in ("worse", "unresolved") for row in rows)
    bad += sum(row[-1] == "differs" for row in counts)
    print(f"\n{len(rows)} metric rows, {len(counts)} counts: "
          f"{bad} worse, unresolved or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
