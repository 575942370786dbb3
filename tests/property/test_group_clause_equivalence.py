"""Property: the compact wildcard clause changes no answer.

A wait-for graph whose wildcard waits are :class:`GroupClause` objects
must be indistinguishable, to every consumer, from the same graph with
each of those clauses spelled out as a plain tuple of targets: the
liveness fixpoint (``deadlocked``, ``releasable``, ``witness_cycle``),
the arc count, the DOT, HTML and JSON reports and the aggregated graph.
The expanded form goes through none of the group-clause code paths, so
it is the reference.
"""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.waitfor import GroupClause, WaitForCondition, WaitTarget
from repro.wfg import (
    WaitForGraph,
    detect_deadlock,
    render_aggregated_dot,
    render_dot,
    render_html_report,
    simplify,
)
from repro.wfg.report import render_json_report

REASON = "wildcard receive: any sender qualifies"


@st.composite
def _graphs(draw):
    """(num, finished, {rank: [clause spec]}) with clause specs
    ``("explicit", targets)``, ``("group", group)`` and
    ``("waitany", group, targets)`` (a flattened OR over a wildcard and
    directed requests)."""
    num = draw(st.integers(2, 10))
    ranks = list(range(num))
    # The world, plus sub-communicators down to self-communicators.
    groups = [tuple(ranks)]
    for _ in range(draw(st.integers(0, 3))):
        members = draw(
            st.lists(st.sampled_from(ranks), min_size=1, max_size=num,
                     unique=True)
        )
        groups.append(tuple(members))
    status = {
        rank: draw(st.sampled_from(["blocked", "blocked", "running",
                                    "finished"]))
        for rank in ranks
    }
    finished = {r for r, s in status.items() if s == "finished"}
    nodes = {}
    for rank in ranks:
        if status[rank] != "blocked":
            continue
        mine = [g for g in groups if rank in g]
        specs = []
        for _ in range(draw(st.integers(1, 3))):
            others = draw(
                st.lists(st.sampled_from(ranks), max_size=3)
            )
            others = tuple(t for t in others if t != rank)
            kind = draw(st.sampled_from(["explicit", "group", "waitany"]))
            if kind == "explicit":
                specs.append(("explicit", others))
            elif kind == "group":
                specs.append(("group", draw(st.sampled_from(mine))))
            else:
                specs.append(("waitany", draw(st.sampled_from(mine)), others))
        nodes[rank] = specs
    return num, finished, nodes


def _conditions(nodes, compact):
    conditions = {}
    for rank, specs in nodes.items():
        cond = WaitForCondition(
            rank=rank, op_ref=(rank, 0),
            op_description=f"MPI_Recv(from=ANY)@{rank}:0",
        )
        for spec in specs:
            if spec[0] == "explicit":
                cond.clauses.append(
                    tuple(WaitTarget(t, "directed") for t in spec[1])
                )
                continue
            clause = GroupClause(spec[1], rank, REASON)
            if spec[0] == "group" and compact:
                cond.clauses.append(clause)
                continue
            # The expanded form, and Waitany's flattening in both.
            targets = [WaitTarget(t, REASON) for t in clause]
            if spec[0] == "waitany":
                targets += [WaitTarget(t, "directed") for t in spec[2]]
            cond.clauses.append(tuple(targets))
        conditions[rank] = cond
    return conditions


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_compact_graph_equals_expanded_graph(data):
    num, finished, nodes = data
    compact_conds = _conditions(nodes, compact=True)
    expanded_conds = _conditions(nodes, compact=False)
    compact = WaitForGraph.from_conditions(
        num, compact_conds.values(), finished=finished
    )
    expanded = WaitForGraph.from_conditions(
        num, expanded_conds.values(), finished=finished
    )
    assert not any(
        isinstance(clause, GroupClause)
        for node in expanded.nodes.values() for clause in node.clauses
    )

    got, want = detect_deadlock(compact), detect_deadlock(expanded)
    assert got.deadlocked == want.deadlocked
    assert got.releasable == want.releasable
    assert got.witness_cycle == want.witness_cycle

    assert compact.arc_count() == expanded.arc_count()
    assert sorted(compact.arcs()) == sorted(expanded.arcs())
    dot = render_dot(compact, got)
    assert dot == render_dot(expanded, want)
    assert render_html_report(
        compact, got, compact_conds, dot_text=dot
    ) == render_html_report(expanded, want, expanded_conds, dot_text=dot)
    assert json.dumps(
        render_json_report(compact, got, compact_conds), sort_keys=True
    ) == json.dumps(
        render_json_report(expanded, want, expanded_conds), sort_keys=True
    )
    assert render_aggregated_dot(simplify(compact)) == render_aggregated_dot(
        simplify(expanded)
    )
