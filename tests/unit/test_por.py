"""Partial-order reduction: state-count wins without lost deadlocks."""
from repro.analysis import (
    Verdict,
    explore_extraction,
    explore_sequences,
    extract_programs,
    replay_witness,
)
from repro.analysis.explore import _Model
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, PROC_NULL, OpKind
from repro.mpi.ops import Operation
from repro.workloads import (
    ping_pong_pairs_programs,
    wildcard_deadlock_programs,
    wildcard_groups_programs,
    wildcard_master_worker_programs,
    wildcard_stress_programs,
)


def _explore(programs, **kwargs):
    return explore_extraction(extract_programs(list(programs)), **kwargs)


def _tables(programs):
    ext = extract_programs(list(programs))
    model = _Model(ext.sequences, ext.comms)
    model.build_por_tables()
    return model


def _clusters(model):
    members = {}
    for rank, cluster in enumerate(model.cluster):
        members.setdefault(cluster, []).append(rank)
    return sorted(members.values())


# ----------------------------------------------------------------------
# The may-send table and what is derived from it
# ----------------------------------------------------------------------

class TestTables:
    def test_directed_pairs_are_one_cluster_each(self):
        model = _tables(ping_pong_pairs_programs(6, rounds=2))
        assert _clusters(model) == [[0, 1], [2, 3], [4, 5]]
        assert model.senders[(0, 1)] == {0}
        assert model.wildcard_dst == set()

    def test_single_sender_wildcard_is_not_a_wildcard_destination(self):
        model = _tables(wildcard_stress_programs(4, rounds=2))
        assert model.senders[(0, 1)] == {0}
        assert model.senders[(0, 3)] == {2}
        assert model.wildcard_dst == set()
        assert _clusters(model) == [[0, 1], [2, 3]]

    def test_wildcard_receive_joins_all_its_senders(self):
        model = _tables(wildcard_groups_programs(2))
        assert model.senders[(0, 0)] == {1, 2}
        assert model.senders[(0, 3)] == {4, 5}
        assert model.wildcard_dst == {(0, 0), (0, 3)}
        assert _clusters(model) == [[0, 1, 2], [3, 4, 5]]

    def test_wildcard_probe_counts_as_a_wildcard_destination(self):
        def prober(rank):
            yield rank.probe(source=ANY_SOURCE)
            yield rank.recv(source=1)
            yield rank.recv(source=2)
            yield rank.finalize()

        def sender(rank):
            yield rank.send(0)
            yield rank.finalize()

        def loner(rank):
            yield rank.finalize()

        model = _tables([prober, sender, sender, loner])
        assert model.wildcard_dst == {(0, 0)}
        assert _clusters(model) == [[0, 1, 2], [3]]

    def test_collective_joins_exactly_its_communicator_group(self):
        comms = CommRegistry(5)
        sub = comms.create([0, 2, 3]).comm_id
        sequences = [
            [Operation(OpKind.BARRIER, rank=r, ts=0, comm_id=sub)]
            if r in (0, 2, 3)
            else []
            for r in range(5)
        ]
        for r, seq in enumerate(sequences):
            seq.append(Operation(OpKind.FINALIZE, rank=r, ts=len(seq)))
        model = _Model(sequences, comms)
        model.build_por_tables()
        assert _clusters(model) == [[0, 2, 3], [1], [4]]
        result = explore_sequences(sequences, comms)
        assert result.verdict is Verdict.DEADLOCK_FREE

    def test_proc_null_and_finalize_join_nobody(self):
        def program(rank):
            yield rank.send(PROC_NULL)
            yield rank.recv(source=PROC_NULL)
            yield rank.finalize()

        model = _tables([program] * 3)
        assert _clusters(model) == [[0], [1], [2]]
        assert model.senders == {}

    def test_persistent_and_nonblocking_sends_count_as_senders(self):
        def persistent(rank):
            req = yield rank.send_init(2)
            yield rank.start(req)
            yield rank.wait(req)
            yield rank.finalize()

        def nonblocking(rank):
            req = yield rank.isend(2)
            yield rank.wait(req)
            yield rank.finalize()

        def sink(rank):
            yield rank.recv(source=ANY_SOURCE)
            yield rank.recv(source=ANY_SOURCE)
            yield rank.finalize()

        programs = [persistent, nonblocking, sink]
        model = _tables(programs)
        assert model.senders[(0, 2)] == {0, 1}
        assert model.wildcard_dst == {(0, 2)}
        assert _clusters(model) == [[0, 1, 2]]
        assert _explore(programs).verdict is Verdict.DEADLOCK_FREE

    def test_tables_are_built_for_the_reduction_only(self):
        # The linear fast path constructs _Model for 256-rank files and
        # never reads these tables.
        ext = extract_programs(ping_pong_pairs_programs(4, rounds=1))
        assert not hasattr(_Model(ext.sequences, ext.comms), "senders")


# ----------------------------------------------------------------------
# Reduction strength
# ----------------------------------------------------------------------

class TestReduction:
    def test_directed_pairs_naive_blows_up_por_stays_tiny(self):
        # Three independent ping-pong pairs: interleavings multiply for
        # the naive search, but every transition is POR-safe, so the
        # reduced search is a single chain.
        programs = ping_pong_pairs_programs(6, rounds=3)
        ext = extract_programs(programs)
        naive = explore_extraction(ext, por=False, max_states=100_000)
        reduced = explore_extraction(ext, por=True)
        assert naive.verdict is Verdict.DEADLOCK_FREE
        assert reduced.verdict is Verdict.DEADLOCK_FREE
        assert naive.stats.states_explored > 10_000
        assert reduced.stats.states_explored < 500

    def test_wildcard_branches_are_never_pruned(self):
        # A wildcard with two live senders is a real branching point:
        # POR may chain deterministic transitions around it and take
        # the groups one at a time, but must keep every match choice —
        # so the reduced graph still has reconverging branches.
        ext = extract_programs(wildcard_groups_programs(2))
        naive = explore_extraction(ext, por=False)
        reduced = explore_extraction(ext, por=True)
        assert naive.verdict is Verdict.DEADLOCK_FREE
        assert reduced.verdict is Verdict.DEADLOCK_FREE
        assert reduced.stats.states_explored < naive.stats.states_explored
        assert reduced.stats.states_pruned > 0
        assert reduced.stats.memo_hits > 0

    def test_independent_groups_cost_their_sum_not_their_product(self):
        states = {}
        for k in range(1, 6):
            result = _explore(wildcard_groups_programs(k))
            assert result.verdict is Verdict.DEADLOCK_FREE
            states[k] = result.stats.states_explored
        assert states[3] == 58
        steps = {states[k] - states[k - 1] for k in range(2, 6)}
        assert steps == {19}
        for k in (1, 2):
            naive = _explore(wildcard_groups_programs(k), por=False)
            assert naive.stats.states_explored == 25 ** k


# ----------------------------------------------------------------------
# Soundness: reduction never hides a deadlock
# ----------------------------------------------------------------------

class TestSoundness:
    def test_por_keeps_the_only_deadlocking_matching(self):
        # Exactly one of the two wildcard matchings deadlocks; a POR
        # that pruned the wildcard branch — say by calling a two-sender
        # wildcard directed — would wrongly report deadlock-free.
        assert _tables(wildcard_master_worker_programs()).wildcard_dst == {
            (0, 0)
        }
        ext = extract_programs(wildcard_master_worker_programs())
        reduced = explore_extraction(ext, por=True)
        assert reduced.verdict is Verdict.DEADLOCK_POSSIBLE
        outcome = replay_witness(
            wildcard_master_worker_programs(), reduced.witness
        )
        assert outcome.confirmed

    def test_por_and_naive_agree_on_verdicts(self):
        cases = [
            wildcard_master_worker_programs(),
            wildcard_deadlock_programs(4),
            wildcard_stress_programs(4, rounds=2),
            ping_pong_pairs_programs(4, rounds=2),
            wildcard_groups_programs(2),
        ]
        for programs in cases:
            ext = extract_programs(programs)
            naive = explore_extraction(ext, por=False)
            reduced = explore_extraction(ext, por=True)
            assert naive.verdict is reduced.verdict
            assert set(naive.deadlocked) == set(reduced.deadlocked)

    def test_a_deadlock_in_a_later_cluster_is_still_reached(self):
        # Group 1's master expects a third message nobody sends. The
        # search runs group 0 to completion first; the global terminal
        # state must still blame group 1, and only group 1.
        def greedy_master(rank):
            for _ in range(3):
                yield rank.recv(source=ANY_SOURCE, tag=0)
            yield rank.finalize()

        programs = wildcard_groups_programs(3)
        programs[3] = greedy_master
        reduced = _explore(programs)
        assert reduced.verdict is Verdict.DEADLOCK_POSSIBLE
        assert reduced.deadlocked == (3,)
        assert set(reduced.blocked_ops) == {3}
        assert replay_witness(programs, reduced.witness).confirmed
        naive = _explore(programs, por=False)
        assert naive.deadlocked == reduced.deadlocked


# ----------------------------------------------------------------------
# Acceptance: the wildcard ping-pong at 8 ranks, >= 5x
# ----------------------------------------------------------------------

class TestAcceptanceRatio:
    def test_por_plus_memo_beats_naive_by_5x_at_8_ranks(self):
        # Pairs never talk, so the naive count is the pairs' product:
        # 22 states per pair, measured at two pairs (running 22**4 =
        # 234,256 states here took half the suite's wall time).
        naive = _explore(wildcard_stress_programs(4, rounds=3), por=False)
        assert naive.verdict is Verdict.DEADLOCK_FREE
        assert naive.stats.states_explored == 22 ** 2
        # The reduced search is one chain: 14 states per pair.
        reduced = _explore(wildcard_stress_programs(8, rounds=3))
        assert reduced.verdict is Verdict.DEADLOCK_FREE
        assert reduced.stats.states_explored == 57
        assert reduced.stats.transitions == 56
        assert reduced.stats.memo_hits == 0
        assert 22 ** 4 / reduced.stats.states_explored >= 5.0

    def test_reduced_search_grows_by_14_states_per_pair(self):
        # Up to 16 ranks (113 states), which a search that branches on
        # single-sender wildcards cannot decide inside the default
        # 200,000-state bound.
        for pairs in range(1, 9):
            result = _explore(wildcard_stress_programs(2 * pairs, rounds=3))
            assert result.verdict is Verdict.DEADLOCK_FREE
            assert result.stats.states_explored == 1 + 14 * pairs
