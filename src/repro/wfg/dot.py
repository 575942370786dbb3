"""DOT (Graphviz) output of wait-for graphs.

The paper's Figure 10(b) shows that at scale the DOT serialization of
the wait-for graph dominates total detection time (~75% for the
``p^2``-arc wildcard case). The format is therefore deliberately the
straightforward one-arc-per-line one the measurement is about;
:mod:`repro.wfg.simplify` implements the paper's proposed remedy.

:func:`write_dot` streams to a text file object, one ``write()`` per
node line and per clause: the output is O(p^2) characters, the largest
string ever held is the O(p) arcs of one clause. :func:`render_dot` is
the same writer into a ``StringIO``.
"""
from __future__ import annotations

import io
from typing import Callable, Dict, List, Optional, Set, TextIO, Tuple

from repro.core.waitfor import GroupClause
from repro.wfg.detect import DetectionResult
from repro.wfg.graph import WaitForGraph


def _verbatim(text: str) -> str:
    return text


def write_dot(
    out: TextIO,
    graph: WaitForGraph,
    result: Optional[DetectionResult] = None,
    *,
    name: str = "wfg",
    escape: Callable[[str], str] = _verbatim,
) -> None:
    """Write the wait-for graph to ``out`` as DOT text.

    Deadlocked processes (when a detection result is given) are drawn
    filled; OR clauses (more than one target) use dashed arcs labelled
    with the clause index, matching MUST's OR-semantic rendering.

    ``escape`` embeds the text in another format (the HTML report
    passes ``html.escape``). It must map character by character, so
    that escaping the pieces equals escaping the whole text; it is
    applied to every piece except the target rank numbers, which are
    digits.
    """
    deadlocked: Set[int] = set(result.deadlocked) if result else set()
    write = out.write
    write(escape(f"digraph {name} {{\n"))
    write(escape("  rankdir=LR;\n"))
    write(escape("  node [shape=box, fontname=\"Helvetica\"];\n"))
    for rank in sorted(graph.nodes):
        node = graph.nodes[rank]
        style = ", style=filled, fillcolor=\"#ffcccc\"" if rank in deadlocked else ""
        label = f"{rank}: {_escape(node.op_description)}"
        write(escape(f"  n{rank} [label=\"{label}\"{style}];\n"))
    # Targets that are not blocked themselves still need node stubs. A
    # group clause excludes only its own (blocked) node, so its stubs
    # are those of the whole group, scanned once per group.
    stubs: Set[int] = set()
    scanned: Set[int] = set()
    for node in graph.nodes.values():
        for clause in node.clauses:
            members = clause
            if isinstance(clause, GroupClause):
                if id(clause.group) in scanned:
                    continue
                scanned.add(id(clause.group))
                members = clause.group
            stubs.update(dst for dst in members if dst not in graph.nodes)
    for dst in sorted(stubs):
        tag = "(finished)" if dst in graph.finished else "(running)"
        write(escape(f"  n{dst} [label=\"{dst}: {tag}\", style=dotted];\n"))
    # One join per clause: "<head>dst<tail>" for each target, where the
    # target names of a group clause are made once per group.
    names: Dict[Tuple[int, str], List[str]] = {}
    single = escape(";\n")
    for rank in sorted(graph.nodes):
        node = graph.nodes[rank]
        head = escape(f"  n{rank} -> n")
        for ci, clause in enumerate(node.clauses):
            if not clause:
                continue
            tail = single
            if len(clause) > 1:
                tail = escape(f" [style=dashed, label=\"OR[{ci}]\"];\n")
            if isinstance(clause, GroupClause):
                targets = clause.per_target(str, names)
            else:
                targets = [str(dst) for dst in clause]
            write(head + (tail + head).join(targets) + tail)
    write(escape("}\n"))


def render_dot(
    graph: WaitForGraph,
    result: Optional[DetectionResult] = None,
    *,
    name: str = "wfg",
) -> str:
    """The text :func:`write_dot` writes, as one string."""
    out = io.StringIO()
    write_dot(out, graph, result, name=name)
    return out.getvalue()


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\"", "\\\"")
