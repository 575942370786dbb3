"""DOT (Graphviz) rendering of wait-for graphs.

The paper's Figure 10(b) shows that at scale the DOT serialization of
the wait-for graph dominates total detection time (~75% for the
``p^2``-arc wildcard case). This writer is therefore deliberately the
straightforward one-arc-per-line serializer the measurement is about;
:mod:`repro.wfg.simplify` implements the paper's proposed remedy.
"""
from __future__ import annotations

import io
from typing import Dict, List, Optional, Set, Tuple

from repro.core.waitfor import GroupClause
from repro.wfg.detect import DetectionResult
from repro.wfg.graph import WaitForGraph


def render_dot(
    graph: WaitForGraph,
    result: Optional[DetectionResult] = None,
    *,
    name: str = "wfg",
) -> str:
    """Serialize the wait-for graph to DOT text.

    Deadlocked processes (when a detection result is given) are drawn
    filled; OR clauses (more than one target) use dashed arcs labelled
    with the clause index, matching MUST's OR-semantic rendering.
    """
    deadlocked: Set[int] = set(result.deadlocked) if result else set()
    out = io.StringIO()
    out.write(f"digraph {name} {{\n")
    out.write("  rankdir=LR;\n")
    out.write("  node [shape=box, fontname=\"Helvetica\"];\n")
    for rank in sorted(graph.nodes):
        node = graph.nodes[rank]
        style = ", style=filled, fillcolor=\"#ffcccc\"" if rank in deadlocked else ""
        label = f"{rank}: {_escape(node.op_description)}"
        out.write(f"  n{rank} [label=\"{label}\"{style}];\n")
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
        out.write(f"  n{dst} [label=\"{dst}: {tag}\", style=dotted];\n")
    # One join per clause: "<head>dst<tail>" for each target, where the
    # target names of a group clause are made once per group.
    names: Dict[Tuple[int, str], List[str]] = {}
    for rank in sorted(graph.nodes):
        node = graph.nodes[rank]
        head = f"  n{rank} -> n"
        for ci, clause in enumerate(node.clauses):
            if not clause:
                continue
            tail = ";\n"
            if len(clause) > 1:
                tail = f" [style=dashed, label=\"OR[{ci}]\"];\n"
            if isinstance(clause, GroupClause):
                targets = clause.per_target(str, names)
            else:
                targets = [str(dst) for dst in clause]
            out.write(head + (tail + head).join(targets) + tail)
    out.write("}\n")
    return out.getvalue()


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\"", "\\\"")
