"""Wait-for graphs: construction, AND/OR deadlock criterion, outputs."""
import pytest

from repro.core.waitfor import GroupClause, WaitForCondition, WaitTarget
from repro.wfg import (
    WaitForGraph,
    detect_deadlock,
    render_aggregated_dot,
    render_dot,
    render_html_report,
    simplify,
)
from repro.wfg.simplify import RankSet


def _cond(rank, clauses, desc="op"):
    cond = WaitForCondition(rank=rank, op_ref=(rank, 0), op_description=desc)
    for clause in clauses:
        cond.clauses.append(tuple(WaitTarget(t, "r") for t in clause))
    return cond


class TestGraph:
    def test_arc_count_and_successors(self):
        g = WaitForGraph.from_conditions(
            4, [_cond(0, [[1], [2]]), _cond(1, [[2, 3]])]
        )
        assert g.arc_count() == 4
        assert g.successors(0) == {1, 2}
        assert g.successors(1) == {2, 3}
        assert g.successors(2) == set()
        assert len(list(g.arcs())) == 4

    def test_duplicate_rank_rejected(self):
        g = WaitForGraph(2)
        g.add_condition(_cond(0, [[1]]))
        with pytest.raises(ValueError):
            g.add_condition(_cond(0, [[1]]))

    def test_rank_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            WaitForGraph.from_conditions(2, [_cond(5, [[1]])])

    def test_finished_rank_cannot_be_blocked(self):
        g = WaitForGraph(3, finished={1})
        with pytest.raises(ValueError):
            g.add_condition(_cond(1, [[0]]))


class TestDetection:
    def test_two_cycle(self):
        g = WaitForGraph.from_conditions(2, [_cond(0, [[1]]), _cond(1, [[0]])])
        result = detect_deadlock(g)
        assert result.deadlocked == (0, 1)
        assert set(result.witness_cycle) == {0, 1}

    def test_chain_to_running_process_is_releasable(self):
        g = WaitForGraph.from_conditions(3, [_cond(0, [[1]]), _cond(1, [[2]])])
        result = detect_deadlock(g)
        assert not result.has_deadlock
        assert result.releasable == (0, 1)

    def test_chain_to_finished_process_is_deadlocked(self):
        g = WaitForGraph.from_conditions(
            3, [_cond(0, [[1]]), _cond(1, [[2]])], finished={2}
        )
        result = detect_deadlock(g)
        assert result.deadlocked == (0, 1)

    def test_or_clause_released_by_one_live_target(self):
        # 0 waits for any of {1, 2}; 1 deadlocks with... only 1<->0
        # cannot deadlock because 0's OR includes running process 2.
        g = WaitForGraph.from_conditions(
            3, [_cond(0, [[1, 2]]), _cond(1, [[0]])]
        )
        result = detect_deadlock(g)
        assert not result.has_deadlock

    def test_or_knot_deadlocks(self):
        """Everyone OR-waits on everyone else: the wildcard case."""
        p = 5
        conds = [
            _cond(i, [[j for j in range(p) if j != i]]) for i in range(p)
        ]
        g = WaitForGraph.from_conditions(p, conds)
        result = detect_deadlock(g)
        assert result.deadlocked == tuple(range(p))
        assert len(result.witness_cycle) >= 2

    def test_and_needs_all_clauses(self):
        # 0 waits for 1 AND 2; 1 is deadlocked with 0; 2 is running.
        g = WaitForGraph.from_conditions(
            3, [_cond(0, [[1], [2]]), _cond(1, [[0]])]
        )
        result = detect_deadlock(g)
        assert result.deadlocked == (0, 1)

    def test_empty_clause_is_unsatisfiable(self):
        g = WaitForGraph.from_conditions(2, [_cond(0, [[]])])
        result = detect_deadlock(g)
        assert result.deadlocked == (0,)
        assert result.witness_cycle == ()  # no cycle, still deadlocked

    def test_no_blocked_processes(self):
        result = detect_deadlock(WaitForGraph(4))
        assert not result.has_deadlock
        assert result.releasable == ()

    def test_mixed_partition(self):
        # 0<->1 deadlock; 2 waits on 3 (running): releasable.
        g = WaitForGraph.from_conditions(
            4, [_cond(0, [[1]]), _cond(1, [[0]]), _cond(2, [[3]])]
        )
        result = detect_deadlock(g)
        assert result.deadlocked == (0, 1)
        assert result.releasable == (2,)


class TestDot:
    def test_nodes_arcs_and_styles(self):
        g = WaitForGraph.from_conditions(
            3, [_cond(0, [[1, 2]], desc="MPI_Recv(from=ANY)@0:0"),
                _cond(1, [[0]], desc="MPI_Send(to=0)@1:0")]
        )
        result = detect_deadlock(g)
        dot = render_dot(g, result)
        assert dot.startswith("digraph wfg {")
        assert dot.strip().endswith("}")
        assert "n0 -> n1" in dot and "n0 -> n2" in dot and "n1 -> n0" in dot
        assert "style=dashed" in dot  # the OR clause
        assert "(running)" in dot  # stub for rank 2

    def test_finished_stub_label(self):
        g = WaitForGraph.from_conditions(2, [_cond(0, [[1]])], finished={1})
        dot = render_dot(g, detect_deadlock(g))
        assert "(finished)" in dot

    def test_quotes_escaped(self):
        g = WaitForGraph.from_conditions(
            1, [_cond(0, [[0]], desc='weird"label')]
        )
        assert '\\"' in render_dot(g)


class TestHtmlReport:
    def _graph(self):
        conds = {
            0: _cond(0, [[1]], desc="MPI_Send(to=1)@0:2"),
            1: _cond(1, [[0]], desc="MPI_Recv(from=0)@1:1"),
        }
        g = WaitForGraph.from_conditions(2, conds.values())
        return g, detect_deadlock(g), conds

    def test_report_contains_verdict_and_table(self):
        g, result, conds = self._graph()
        html = render_html_report(g, result, conds)
        assert "Deadlock detected" in html
        assert "MPI_Send(to=1)@0:2" in html
        assert "Dependency cycle" in html
        assert html.startswith("<!DOCTYPE html>")

    def test_report_without_deadlock(self):
        g = WaitForGraph.from_conditions(3, [_cond(0, [[2]])])
        result = detect_deadlock(g)
        html = render_html_report(g, result, {0: _cond(0, [[2]])})
        assert "No deadlock" in html
        assert "releasable" in html

    def test_dot_embedded_when_given(self):
        g, result, conds = self._graph()
        html = render_html_report(g, result, conds, dot_text="digraph x {}")
        assert "digraph x {}" in html


class TestSimplify:
    def test_wildcard_pattern_collapses_to_one_class(self):
        p = 8
        conds = [
            _cond(i, [[j for j in range(p) if j != i]],
                  desc=f"MPI_Recv(from=ANY)@{i}:0")
            for i in range(p)
        ]
        g = WaitForGraph.from_conditions(p, conds)
        agg = simplify(g)
        assert len(agg.nodes) == 1
        assert agg.nodes[0].members.count() == p
        assert agg.arc_count() == 1
        assert g.arc_count() == p * (p - 1)

    def test_distinct_patterns_stay_separate(self):
        conds = [
            _cond(0, [[1]], desc="MPI_Send(to=1)@0:0"),
            _cond(1, [[2]], desc="MPI_Send(to=2)@1:0"),
        ]
        agg = simplify(WaitForGraph.from_conditions(3, conds))
        assert len(agg.nodes) == 2

    def test_aggregated_dot_renders(self):
        p = 6
        conds = [
            _cond(i, [[j for j in range(p) if j != i]],
                  desc=f"MPI_Recv(from=ANY)@{i}:0")
            for i in range(p)
        ]
        agg = simplify(WaitForGraph.from_conditions(p, conds))
        dot = render_aggregated_dot(agg)
        assert "except self" in dot
        assert dot.count("->") == 1


def _group_cond(rank, group, excluded=None):
    """``rank`` blocked in a wildcard receive over ``group``."""
    cond = WaitForCondition(
        rank=rank, op_ref=(rank, 0),
        op_description=f"MPI_Recv(from=ANY)@{rank}:0",
    )
    cond.clauses.append(
        GroupClause(group, rank if excluded is None else excluded, "wildcard")
    )
    return cond


def _storm(p):
    """The Fig. 10 graph in its compact form: p group clauses."""
    world = tuple(range(p))
    return WaitForGraph.from_conditions(
        p, [_group_cond(rank, world) for rank in world]
    )


class TestGroupClauses:
    def test_graph_stores_the_clause_itself(self):
        g = _storm(8)
        assert g.arc_count() == 8 * 7
        assert g.successors(3) == set(range(8)) - {3}
        assert all(
            type(node.clauses[0]) is GroupClause for node in g.nodes.values()
        )
        assert len({id(n.clauses[0].group) for n in g.nodes.values()}) == 1

    def test_clause_must_exclude_its_own_node(self):
        with pytest.raises(ValueError):
            WaitForGraph(3).add_condition(
                _group_cond(0, (0, 1, 2), excluded=1)
            )

    def test_group_released_by_its_first_live_member(self):
        # 0..2 wait for "anyone but me"; 3 is running.
        world = (0, 1, 2, 3)
        conds = [_group_cond(rank, world) for rank in (0, 1, 2)]
        result = detect_deadlock(WaitForGraph.from_conditions(4, conds))
        assert result.deadlocked == () and result.releasable == (0, 1, 2)
        # With 3 finished nobody is left to send.
        result = detect_deadlock(
            WaitForGraph.from_conditions(4, conds, finished={3})
        )
        assert result.deadlocked == (0, 1, 2)
        assert result.witness_cycle == (0, 1)

    def test_group_released_by_a_member_that_goes_live_later(self):
        # 2 waits on running 3; 0 and 1 wait for anyone in {0, 1, 2}.
        group = (0, 1, 2)
        conds = [_cond(2, [[3]])] + [
            _group_cond(rank, group) for rank in (0, 1)
        ]
        result = detect_deadlock(WaitForGraph.from_conditions(4, conds))
        assert result.releasable == (0, 1, 2)

    def test_equal_groups_of_distinct_identity_share_one_watch(self):
        # What the sharded path delivers: one group copy per batch.
        conds = [_cond(2, [[3]])] + [
            _group_cond(rank, tuple([0, 1, 2])) for rank in (0, 1)
        ]
        assert conds[1].clauses[0].group is not conds[2].clauses[0].group
        result = detect_deadlock(WaitForGraph.from_conditions(4, conds))
        assert result.releasable == (0, 1, 2)

    def test_fixpoint_is_linear_in_the_ranks(self):
        """8x the ranks is 64x the arcs of the expanded storm graph; the
        fixpoint builds no per-target reverse arc, so it may cost at
        most 16x."""
        import time

        def best(graph):
            times = []
            for _ in range(9):
                t0 = time.perf_counter()
                result = detect_deadlock(graph)
                times.append(time.perf_counter() - t0)
                assert len(result.deadlocked) == graph.num_processes
            return min(times)

        small, large = best(_storm(128)), best(_storm(1024))
        assert large / small < 16, (small, large)

    def test_simplify_keys_the_class_by_the_group(self):
        p = 16
        expanded = WaitForGraph.from_conditions(p, [
            _cond(i, [[j for j in range(p) if j != i]],
                  desc=f"MPI_Recv(from=ANY)@{i}:0")
            for i in range(p)
        ])
        agg = simplify(_storm(p))
        assert agg.arc_count() == 1 and len(agg.nodes) == 1
        assert render_aggregated_dot(agg) == render_aggregated_dot(
            simplify(expanded)
        )

    def test_dot_is_that_of_the_expanded_graph(self):
        p = 5
        expanded = WaitForGraph.from_conditions(p, [
            _cond(i, [[j for j in range(p) if j != i]],
                  desc=f"MPI_Recv(from=ANY)@{i}:0")
            for i in range(1, p)
        ], finished={0})
        world = tuple(range(p))
        compact = WaitForGraph.from_conditions(
            p, [_group_cond(rank, world) for rank in range(1, p)],
            finished={0},
        )
        result = detect_deadlock(compact)
        assert result == detect_deadlock(expanded)
        dot = render_dot(compact, result)
        assert dot == render_dot(expanded, result)
        assert "n0 [label=\"0: (finished)\", style=dotted]" in dot


class TestRankSet:
    def test_compression(self):
        rs = RankSet.from_ranks([0, 1, 2, 5, 7, 8])
        assert rs.ranges == ((0, 2), (5, 5), (7, 8))
        assert rs.count() == 6
        assert rs.describe() == "0-2,5,7-8"
        assert 1 in rs and 6 not in rs

    def test_empty(self):
        rs = RankSet.from_ranks([])
        assert rs.count() == 0 and rs.describe() == ""

    def test_duplicates_collapse(self):
        assert RankSet.from_ranks([3, 3, 3]).ranges == ((3, 3),)
