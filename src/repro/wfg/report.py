"""HTML deadlock reports, mirroring MUST's output artifact.

When a deadlock is detected, MUST logs it in an HTML report and emits
a DOT wait-for graph (Section 5). The report lists the deadlocked
processes, their active MPI calls, the wait-for conditions, a witness
dependency cycle, and any unexpected matches the analysis flagged.
"""
from __future__ import annotations

import html
import io
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple,
)

from repro.core.transition import UnexpectedMatch
from repro.core.waitfor import Clause, GroupClause, WaitForCondition
from repro.docs import doc_header
from repro.wfg.detect import DetectionResult
from repro.wfg.dot import write_dot
from repro.wfg.graph import WaitForGraph

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em; }
h1 { color: #8b0000; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #999; padding: 4px 10px; text-align: left; }
th { background: #eee; }
.dead { background: #ffe0e0; }
pre { background: #f6f6f6; padding: 1em; overflow-x: auto; }
.ok { color: #006400; }
"""


def write_html_report(
    out: TextIO,
    graph: WaitForGraph,
    result: DetectionResult,
    conditions: Mapping[int, WaitForCondition],
    *,
    dot_text: Optional[str] = None,
    unexpected: Sequence[UnexpectedMatch] = (),
    flight_tails: Optional[Mapping[int, Sequence[Mapping[str, Any]]]] = None,
    blame: Sequence[str] = (),
    title: str = "MUST-style deadlock report",
) -> None:
    """Write the HTML report of one detection run to ``out``.

    The report ends with the graph's DOT text, written by
    :func:`repro.wfg.dot.write_dot` with ``html.escape`` on its pieces:
    one pass, and like the table rows one ``write()`` per clause. A
    caller that already holds DOT text (an aggregated graph, a string
    it rendered earlier) passes it as ``dot_text`` and that is embedded
    instead.
    """
    out.write("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">")
    out.write(f"<title>{html.escape(title)}</title>")
    out.write(f"<style>{_STYLE}</style></head><body>\n")
    if result.has_deadlock:
        out.write(f"<h1>Deadlock detected: {len(result.deadlocked)} "
                  "process(es) cannot proceed</h1>\n")
    else:
        out.write("<h1 class=\"ok\">No deadlock in the analyzed state</h1>\n")

    if result.witness_cycle:
        chain = " &rarr; ".join(str(r) for r in result.witness_cycle)
        out.write(f"<p>Dependency cycle: <b>{chain} &rarr; "
                  f"{result.witness_cycle[0]}</b></p>\n")

    out.write("<h2>Blocked processes</h2>\n")
    out.write("<table><tr><th>Rank</th><th>Active MPI call</th>"
              "<th>Waits for</th><th>Status</th></tr>\n")
    dead = set(result.deadlocked)
    names: Dict[Tuple[int, str], List[str]] = {}
    for rank in sorted(conditions):
        cond = conditions[rank]
        cls = " class=\"dead\"" if rank in dead else ""
        status = "deadlocked" if rank in dead else "blocked (releasable)"
        out.write(
            f"<tr{cls}><td>{rank}</td>"
            f"<td><code>{html.escape(cond.op_description)}</code></td><td>"
        )
        _write_condition(out.write, cond, names)
        out.write(f"</td><td>{status}</td></tr>\n")
    out.write("</table>\n")

    if unexpected:
        out.write("<h2>Unexpected matches (Section 3.3)</h2>\n<ul>\n")
        for um in unexpected:
            out.write(
                "<li>wildcard receive at "
                f"<code>{um.receive}</code> could match active send at "
                f"<code>{um.candidate_send}</code> but was matched with "
                f"<code>{um.matched_send}</code>; consider re-running "
                "with implementation-adapted blocking semantics</li>\n"
            )
        out.write("</ul>\n")

    if blame:
        out.write("<h2>Blame chain</h2>\n<ol>\n")
        for line in blame:
            out.write(f"<li>{html.escape(line)}</li>\n")
        out.write("</ol>\n")

    if flight_tails:
        out.write("<h2>Flight recorder: last events per deadlocked rank"
                  "</h2>\n")
        for rank in sorted(flight_tails):
            tail = flight_tails[rank]
            out.write(f"<h3>Rank {rank} ({len(tail)} event(s))</h3>\n")
            out.write("<table><tr><th>#</th><th>t (sim s)</th>"
                      "<th>Event</th><th>Operation</th></tr>\n")
            for entry in tail:
                detail = entry.get("detail", "")
                out.write(
                    f"<tr><td>{entry.get('seq', '')}</td>"
                    f"<td>{entry.get('ts', '')}</td>"
                    f"<td>{html.escape(str(entry.get('event', '')))}</td>"
                    f"<td><code>{html.escape(str(detail))}</code></td></tr>\n"
                )
            out.write("</table>\n")

    out.write(f"<p>Wait-for graph: {len(graph.nodes)} node(s), "
              f"{graph.arc_count()} arc(s).</p>\n")
    out.write("<h2>Wait-for graph (DOT)</h2>\n<pre>")
    if dot_text is not None:
        out.write(html.escape(dot_text))
    else:
        write_dot(out, graph, result, escape=html.escape)
    out.write("</pre>\n</body></html>\n")


def render_html_report(
    graph: WaitForGraph,
    result: DetectionResult,
    conditions: Mapping[int, WaitForCondition],
    **options: Any,
) -> str:
    """The text :func:`write_html_report` writes, as one string; the
    keywords are that function's."""
    out = io.StringIO()
    write_html_report(out, graph, result, conditions, **options)
    return out.getvalue()


def render_json_report(
    graph: WaitForGraph,
    result: DetectionResult,
    conditions: Mapping[int, WaitForCondition],
    *,
    flight_tails: Optional[Mapping[int, Sequence[Mapping[str, Any]]]] = None,
    blame: Sequence[str] = (),
) -> Dict[str, Any]:
    """The machine-readable counterpart of the HTML report."""
    cond_docs: List[Dict[str, Any]] = []
    dead = set(result.deadlocked)
    # The target documents of a group clause are made once per group
    # member and shared by every clause over that group.
    targets: Dict[Tuple[int, str], List[Dict[str, Any]]] = {}
    for rank in sorted(conditions):
        cond = conditions[rank]
        cond_docs.append(
            {
                "rank": rank,
                "op": cond.op_description,
                "deadlocked": rank in dead,
                "clauses": [
                    _clause_doc(clause, targets) for clause in cond.clauses
                ],
            }
        )
    return {
        **doc_header("deadlock-report"),
        "deadlocked": list(result.deadlocked),
        "releasable": list(result.releasable),
        "witness_cycle": list(result.witness_cycle),
        "conditions": cond_docs,
        "blame_chain": list(blame),
        "flight_tails": {
            str(rank): list(tail)
            for rank, tail in sorted((flight_tails or {}).items())
        },
        "wfg": {"nodes": len(graph.nodes), "arcs": graph.arc_count()},
    }


def _clause_doc(
    clause: Clause, memo: Dict[Tuple[int, str], List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    if isinstance(clause, GroupClause):
        reason = clause.reason
        return clause.per_target(
            lambda rank: {"rank": rank, "reason": reason}, memo
        )
    return [{"rank": t.rank, "reason": t.reason} for t in clause]


def _write_condition(
    write: Callable[[str], Any],
    cond: WaitForCondition,
    names: Dict[Tuple[int, str], List[str]],
) -> None:
    if not cond.clauses:
        write("<i>nothing (tool anomaly)</i>")
    for ci, clause in enumerate(cond.clauses):
        if isinstance(clause, GroupClause):
            ranks = clause.per_target(str, names)
        else:
            ranks = [str(t.rank) for t in clause]
        if ci:
            write(" AND ")
        if not ranks:
            write("<i>unsatisfiable (no possible partner)</i>")
        elif len(ranks) == 1:
            write(f"rank {ranks[0]}")
        else:
            write(f"any of [{', '.join(ranks)}]")
