"""Bounded match-set exploration (`repro.analysis.explore`)."""
import pytest

from repro.analysis import (
    ExplorationUnsupported,
    Verdict,
    explore_extraction,
    explore_sequences,
    extract_programs,
)
from repro.mpi.constants import ANY_SOURCE
from repro.obs.metrics import MetricsRegistry
from repro.workloads import (
    ping_pong_pairs_programs,
    wildcard_deadlock_programs,
    wildcard_groups_programs,
    wildcard_master_worker_programs,
    wildcard_stress_programs,
)


def _explore(programs, **kwargs):
    return explore_extraction(extract_programs(list(programs)), **kwargs)


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------

class TestVerdicts:
    def test_master_worker_is_deadlock_possible(self):
        result = _explore(wildcard_master_worker_programs())
        assert result.verdict is Verdict.DEADLOCK_POSSIBLE
        assert result.has_deadlock
        # Only the wrong wildcard matching deadlocks: the master and the
        # rendezvous sender whose message it stole.
        assert set(result.deadlocked) == {0, 2}

    def test_master_worker_witness_pins_the_bad_matching(self):
        result = _explore(wildcard_master_worker_programs())
        witness = result.witness
        assert witness is not None
        # The deadlock requires the wildcard (rank 0, ts 0) to take the
        # message from rank 1, starving the directed Recv(source=1).
        assert witness.pinnings == {(0, 0): 1}
        assert witness.schedule == [0, 1, 0, 1, 2]
        assert witness.num_ranks == 3
        assert set(witness.deadlocked) == {0, 2}

    def test_master_worker_fixed_is_deadlock_free(self):
        # Same shape, but both receives are wildcards -> any matching
        # order drains both senders.
        def master(rank):
            yield rank.recv(source=ANY_SOURCE, tag=0)
            yield rank.recv(source=ANY_SOURCE, tag=0)
            yield rank.finalize()

        def worker(rank):
            yield rank.send(0, tag=0)
            yield rank.finalize()

        result = _explore([master, worker, worker])
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.witness is None
        assert not result.has_deadlock

    def test_fig10_wildcard_ring_deadlocks_every_rank(self):
        result = _explore(wildcard_deadlock_programs(8))
        assert result.verdict is Verdict.DEADLOCK_POSSIBLE
        assert sorted(result.deadlocked) == list(range(8))

    def test_directed_sendrecv_mismatch_is_found_without_wildcards(self):
        # Both ranks recv first under strict (rendezvous) semantics.
        def prog(rank):
            peer = 1 - rank.rank
            yield rank.recv(source=peer, tag=0)
            yield rank.send(peer, tag=0)
            yield rank.finalize()

        result = _explore([prog, prog])
        assert result.verdict is Verdict.DEADLOCK_POSSIBLE
        assert sorted(result.deadlocked) == [0, 1]

    def test_missing_collective_blocks_only_the_caller(self):
        def caller(rank):
            yield rank.barrier()
            yield rank.finalize()

        def skipper(rank):
            yield rank.finalize()

        result = _explore([caller, skipper])
        assert result.verdict is Verdict.DEADLOCK_POSSIBLE
        # Finalize-parked ranks are finished, not blocked; only the
        # barrier caller is deadlocked.
        assert sorted(result.deadlocked) == [0]


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------

class TestBounds:
    def test_state_bound_is_not_deadlock_free(self):
        result = _explore(wildcard_master_worker_programs(), max_states=2)
        assert result.verdict is Verdict.BOUND_EXCEEDED
        assert result.verdict is not Verdict.DEADLOCK_FREE
        assert "state bound" in result.reason

    def test_depth_bound_is_not_deadlock_free(self):
        result = _explore(wildcard_master_worker_programs(), max_depth=1)
        assert result.verdict is Verdict.BOUND_EXCEEDED
        assert "depth bound" in result.reason

    def test_generous_bounds_do_not_trip(self):
        result = _explore(
            wildcard_master_worker_programs(),
            max_states=1_000,
            max_depth=1_000,
        )
        assert result.verdict is Verdict.DEADLOCK_POSSIBLE


# ----------------------------------------------------------------------
# Memoization and determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_exploration_is_deterministic(self):
        a = _explore(wildcard_stress_programs(4, rounds=2))
        b = _explore(wildcard_stress_programs(4, rounds=2))
        assert a.verdict is b.verdict
        assert a.stats == b.stats

    def test_memoization_fires_on_diamond_interleavings(self):
        # Two independent wildcard channels produce commuting branches
        # that reconverge -> memo hits must be non-zero without POR.
        result = _explore(wildcard_stress_programs(4, rounds=2), por=False)
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.stats.memo_hits > 0

    @pytest.mark.parametrize(
        "programs, states, transitions, memo_hits",
        [
            (wildcard_stress_programs(4, rounds=2), 256, 640, 385),
            (ping_pong_pairs_programs(6, rounds=3), 10_648, 40_656, 30_009),
            (wildcard_groups_programs(3), 15_625, 84_375, 68_751),
        ],
    )
    def test_naive_counters_are_pinned(
        self, programs, states, transitions, memo_hits
    ):
        # Successor states share whatever a transition left untouched
        # with their parent; keys must still compare value for value,
        # or these counts (recorded before the sharing) move.
        stats = _explore(programs, por=False).stats
        assert stats.states_explored == states
        assert stats.transitions == transitions
        assert stats.memo_hits == memo_hits


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counters_land_under_verify_prefix(self):
        metrics = MetricsRegistry()
        result = _explore(wildcard_master_worker_programs(), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["verify.runs"] == 1
        assert counters["verify.deadlocks_found"] == 1
        assert counters["verify.states_explored"] == (
            result.stats.states_explored
        )
        assert counters["verify.states_pruned"] == result.stats.states_pruned
        assert "verify.bound_exceeded" not in counters

    def test_bound_exceeded_counter(self):
        metrics = MetricsRegistry()
        _explore(
            wildcard_master_worker_programs(), max_states=2, metrics=metrics
        )
        counters = metrics.snapshot()["counters"]
        assert counters["verify.bound_exceeded"] == 1
        assert "verify.deadlocks_found" not in counters


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------

class TestUnsupported:
    def test_truncated_extraction_is_refused(self):
        def runaway(rank):
            while True:
                yield rank.allreduce()

        ext = extract_programs([runaway] * 2, max_ops_per_rank=8)
        with pytest.raises(ExplorationUnsupported):
            explore_extraction(ext)

    def test_data_dependent_control_flow_is_refused(self):
        # iprobe's fabricated answer makes the sequence inexact in a way
        # wildcard pinning cannot repair.
        def prog(rank):
            yield rank.iprobe(source=1 - rank.rank, tag=0)
            yield rank.finalize()

        ext = extract_programs([prog] * 2)
        assert not ext.exact and not ext.wildcard_exact
        with pytest.raises(ExplorationUnsupported):
            explore_extraction(ext)

    def test_explore_sequences_empty_input_is_trivially_free(self):
        result = explore_sequences([], {})
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.stats.states_explored == 1
