"""Wait-for condition extraction from blocked states."""
import pytest

from repro.core.messages import P2PWait, RankWaitInfo
from repro.core.transition import TransitionSystem
from repro.core.waitfor import (
    GroupClause,
    WaitForCondition,
    WaitTarget,
    resolve_conditions,
    wait_for_condition,
    wait_for_conditions,
)
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, OpKind
from repro.mpi.ops import Operation
from repro.mpi.trace import MatchedTrace, PendingCollective, Trace
from repro.util.errors import ProtocolError


def test_unmatched_directed_send_targets_destination():
    s0 = [Operation(kind=OpKind.SEND, rank=0, ts=0, peer=1)]
    s1 = [Operation(kind=OpKind.FINALIZE, rank=1, ts=0)]
    ts = TransitionSystem(MatchedTrace(Trace([s0, s1]), CommRegistry(2)))
    cond = wait_for_condition(ts, (0, 0), 0)
    assert len(cond.clauses) == 1
    assert [t.rank for t in cond.clauses[0]] == [1]
    assert cond.is_pure_and()


def test_matched_inactive_partner():
    s0 = [
        Operation(kind=OpKind.RECV, rank=0, ts=0, peer=1),
    ]
    s1 = [
        Operation(kind=OpKind.BARRIER, rank=1, ts=0),
        Operation(kind=OpKind.SEND, rank=1, ts=1, peer=0),
    ]
    matched = MatchedTrace(Trace([s0, s1]), CommRegistry(2))
    matched.add_p2p_match((1, 1), (0, 0))
    ts = TransitionSystem(matched)
    cond = wait_for_condition(ts, (0, 0), 0)
    assert [t.rank for t in cond.clauses[0]] == [1]
    assert "not yet active" in cond.clauses[0][0].reason


def test_wildcard_receive_or_clause():
    s = [[Operation(kind=OpKind.RECV, rank=i, ts=0, peer=ANY_SOURCE)]
         for i in range(4)]
    ts = TransitionSystem(MatchedTrace(Trace(s), CommRegistry(4)))
    cond = wait_for_condition(ts, (0, 0, 0, 0), 2)
    assert len(cond.clauses) == 1
    assert sorted(t.rank for t in cond.clauses[0]) == [0, 1, 3]
    assert not cond.is_pure_and()
    assert cond.arc_count() == 3


def test_collective_targets_missing_members():
    s0 = [Operation(kind=OpKind.BARRIER, rank=0, ts=0)]
    s1 = [Operation(kind=OpKind.BARRIER, rank=1, ts=0)]
    s2 = []  # rank 2 never arrives
    matched = MatchedTrace(Trace([s0, s1, s2]), CommRegistry(3))
    matched.add_pending_collective(
        PendingCollective(comm_id=0, index=0,
                          arrived={0: (0, 0), 1: (1, 0)})
    )
    ts = TransitionSystem(matched)
    cond = wait_for_condition(ts, (0, 0, 0), 0)
    # Rank 1 has activated its barrier op (l_1 = 0 >= 0): only rank 2
    # is a target.
    assert sorted(cond.target_ranks()) == [2]
    assert "never called" in cond.clauses[0][0].reason


def test_waitall_condition_is_and_of_targets():
    s0 = [
        Operation(kind=OpKind.IRECV, rank=0, ts=0, peer=1, tag=1, request=0),
        Operation(kind=OpKind.IRECV, rank=0, ts=1, peer=2, tag=2, request=1),
        Operation(kind=OpKind.WAITALL, rank=0, ts=2, requests=(0, 1)),
    ]
    matched = MatchedTrace(Trace([s0, [], []]), CommRegistry(3))
    matched.register_request(0, 0, (0, 0))
    matched.register_request(0, 1, (0, 1))
    ts = TransitionSystem(matched)
    cond = wait_for_condition(ts, (2, 0, 0), 0)
    assert len(cond.clauses) == 2
    assert cond.target_ranks() == {1, 2}
    assert cond.is_pure_and()


def test_waitany_condition_is_one_or_clause():
    s0 = [
        Operation(kind=OpKind.IRECV, rank=0, ts=0, peer=1, tag=1, request=0),
        Operation(kind=OpKind.IRECV, rank=0, ts=1, peer=2, tag=2, request=1),
        Operation(kind=OpKind.WAITANY, rank=0, ts=2, requests=(0, 1)),
    ]
    matched = MatchedTrace(Trace([s0, [], []]), CommRegistry(3))
    matched.register_request(0, 0, (0, 0))
    matched.register_request(0, 1, (0, 1))
    ts = TransitionSystem(matched)
    cond = wait_for_condition(ts, (2, 0, 0), 0)
    assert len(cond.clauses) == 1
    assert sorted(t.rank for t in cond.clauses[0]) == [1, 2]


def test_conditions_cover_exactly_blocked_set():
    s0 = [Operation(kind=OpKind.SEND, rank=0, ts=0, peer=1)]
    s1 = [Operation(kind=OpKind.FINALIZE, rank=1, ts=0)]
    ts = TransitionSystem(MatchedTrace(Trace([s0, s1]), CommRegistry(2)))
    conds = wait_for_conditions(ts, (0, 0))
    assert set(conds) == {0}


def test_non_blocked_process_rejected():
    s0 = [
        Operation(kind=OpKind.BARRIER, rank=0, ts=0),
    ]
    matched = MatchedTrace(Trace([s0]), CommRegistry(1))
    from repro.mpi.trace import CollectiveMatch

    matched.add_collective_match(
        CollectiveMatch(comm_id=0, members=frozenset({(0, 0)}))
    )
    ts = TransitionSystem(matched)
    # Rank 0 can advance (its singleton barrier is complete): asking
    # for a wait-for condition is a caller bug for p2p ops; for
    # collectives it returns an empty AND (no unmet members).
    cond = wait_for_condition(ts, (0,), 0)
    assert cond.clauses == []


class TestGroupClause:
    """The compact wildcard clause reads like the tuple it stands for."""

    GROUP = (4, 0, 7, 2)

    def _clause(self, rank=7, reason="w"):
        return GroupClause(self.GROUP, rank, reason)

    def test_sequence_protocol_matches_the_expanded_tuple(self):
        clause = self._clause()
        expanded = (4, 0, 2)
        assert len(clause) == 3
        assert tuple(clause) == clause.ranks() == expanded
        assert [clause[i] for i in range(3)] == list(expanded)
        assert clause[1:] == expanded[1:]
        assert 0 in clause and 7 not in clause and 9 not in clause
        assert clause.index(2) == 2 and clause.count(4) == 1
        assert sorted(clause) == sorted(expanded)

    def test_group_is_held_by_reference(self):
        assert self._clause().group is self.GROUP

    def test_self_communicator_is_the_empty_clause(self):
        clause = GroupClause((3,), 3, "w")
        assert len(clause) == 0 and not clause and tuple(clause) == ()

    def test_equality_and_hash(self):
        same = GroupClause(tuple(self.GROUP), 7, "w")
        assert self._clause() == same
        assert hash(self._clause()) == hash(same)
        assert self._clause() != self._clause(rank=0)
        assert self._clause() != self._clause(reason="other")
        assert self._clause() != GroupClause((4, 0, 7), 7, "w")
        assert self._clause() != (4, 0, 2)
        assert len({self._clause(), same, self._clause(rank=0)}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self._clause().rank = 1

    def test_pickle_keeps_it_compact_and_the_group_shared(self):
        import pickle

        clauses = [self._clause(rank=r) for r in self.GROUP]
        back = pickle.loads(pickle.dumps(clauses))
        assert back == clauses
        assert all(type(c) is GroupClause for c in back)
        assert all(c.group is back[0].group for c in back)

    def test_per_target_makes_each_member_once(self):
        made = []

        def make(rank):
            made.append(rank)
            return f"n{rank}"

        memo = {}
        assert self._clause(rank=7).per_target(make, memo) == [
            "n4", "n0", "n2"
        ]
        assert self._clause(rank=4).per_target(make, memo) == [
            "n0", "n7", "n2"
        ]
        assert made == list(self.GROUP)
        # Another reason is another set of items.
        self._clause(rank=4, reason="other").per_target(make, memo)
        assert made == list(self.GROUP) * 2

    def test_condition_reads_both_clause_forms(self):
        cond = WaitForCondition(rank=7, op_ref=(7, 0), op_description="op")
        cond.clauses.append((WaitTarget(1, "directed"),))
        cond.clauses.append(self._clause())
        assert cond.target_ranks() == {1, 4, 0, 2}
        assert cond.arc_count() == 4
        assert not cond.is_pure_and()
        assert cond.reason_for(1) == "directed"
        assert cond.reason_for(2) == "w"
        assert cond.reason_for(7) is None


class TestResolveConditions:
    def test_wildcard_wait_stays_one_group_clause(self):
        group = (0, 1, 2, 3)
        clause = GroupClause(group, 2, "wildcard")
        info = RankWaitInfo(
            rank=2,
            op_description="MPI_Recv(ANY)",
            entries=(P2PWait(clause, clause.reason),),
        )
        (cond,) = resolve_conditions([info], {0: group}.__getitem__).values()
        assert cond.clauses == [clause]
        assert cond.clauses[0] is clause

    def test_waitany_flattens_a_group_clause_into_explicit_targets(self):
        group = (0, 1, 2, 3)
        info = RankWaitInfo(
            rank=0,
            op_description="MPI_Waitany",
            entries=(
                P2PWait(GroupClause(group, 0, "wildcard"), "wildcard"),
                P2PWait((3,), "directed"),
            ),
            or_semantics=True,
        )
        (cond,) = resolve_conditions([info], {0: group}.__getitem__).values()
        (clause,) = cond.clauses
        assert [(t.rank, t.reason) for t in clause] == [
            (1, "wildcard"), (2, "wildcard"), (3, "wildcard"),
            (3, "directed"),
        ]

    def test_unknown_entry_is_a_protocol_error(self):
        info = RankWaitInfo(rank=0, op_description="op", entries=(object(),))
        with pytest.raises(ProtocolError):
            resolve_conditions([info], {}.__getitem__)
