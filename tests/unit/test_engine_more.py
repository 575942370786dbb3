"""Additional runtime-engine coverage: test loops, more collectives,
determinism, and resource guards."""
import pytest

from repro.core import TransitionSystem, analyze_trace
from repro.mpi.blocking import BlockingSemantics
from repro.mpi.constants import PROC_NULL, OpKind
from repro.runtime import run_programs
from repro.util.errors import MpiUsageError, ReproError

from tests.conftest import run_relaxed, run_strict


class TestTestFamilies:
    def test_testall_polling_loop(self):
        def p0(r):
            r1 = yield r.irecv(source=1, tag=1)
            r2 = yield r.irecv(source=1, tag=2)
            flag, statuses = yield r.testall([r1, r2])
            while not flag:
                flag, statuses = yield r.testall([r1, r2])
            assert {s.tag for s in statuses} == {1, 2}
            yield r.finalize()

        def p1(r):
            yield r.send(dest=0, tag=1)
            yield r.send(dest=0, tag=2)
            yield r.finalize()

        res = run_relaxed([p0, p1], seed=3)
        assert not res.deadlocked
        # The trace records flag outcomes on the test ops.
        tests = [op for op in res.trace.sequence(0)
                 if op.kind is OpKind.TESTALL]
        assert tests[-1].test_flag
        assert tests[-1].completed_indices == (0, 1)

    def test_testsome_collects_ready_subset(self):
        def p0(r):
            reqs = []
            for tag in (1, 2, 3):
                reqs.append((yield r.irecv(source=1, tag=tag)))
            got = set()
            remaining = list(reqs)
            while remaining:
                idx, statuses = yield r.testsome(remaining)
                got.update(s.tag for s in statuses)
                remaining = [q for i, q in enumerate(remaining)
                             if i not in idx]
                if remaining and not idx:
                    # Yield a no-op call so the runtime can progress.
                    yield r.iprobe(source=1)
            assert got == {1, 2, 3}
            yield r.finalize()

        def p1(r):
            for tag in (1, 2, 3):
                yield r.send(dest=0, tag=tag)
            yield r.finalize()

        res = run_relaxed([p0, p1], seed=5)
        assert not res.deadlocked

    def test_testany_returns_flag_and_index(self):
        def p0(r):
            r1 = yield r.irecv(source=1, tag=7)
            flag, idx, status = yield r.testany([r1])
            while not flag:
                flag, idx, status = yield r.testany([r1])
            assert idx == 0 and status.tag == 7
            yield r.finalize()

        def p1(r):
            yield r.send(dest=0, tag=7)
            yield r.finalize()

        res = run_relaxed([p0, p1], seed=1)
        assert not res.deadlocked


class TestMoreCollectives:
    @pytest.mark.parametrize("name", ["scan", "reduce_scatter", "allgather",
                                      "alltoall", "gather", "scatter"])
    def test_kind_runs_and_analyzes_clean(self, name):
        def prog(r):
            call = getattr(r, name)
            if name in ("gather", "scatter"):
                yield call(root=0)
            else:
                yield call()
            yield r.finalize()

        res = run_strict([prog] * 4, seed=2)
        assert not res.deadlocked
        assert not analyze_trace(res.matched,
                                 generate_outputs=False).has_deadlock

    def test_relaxed_bcast_root_leaves_early(self):
        def root(r):
            yield r.bcast(root=0)
            yield r.send(dest=1)  # only reachable if bcast let it go
            yield r.finalize()

        def other(r):
            yield r.recv(source=0)
            yield r.bcast(root=0)
            yield r.finalize()

        res = run_relaxed([root, other])
        assert not res.deadlocked
        assert run_strict([root, other]).deadlocked

    def test_missing_collective_participant_hangs(self):
        def present(r):
            yield r.allreduce()
            yield r.finalize()

        def absent(r):
            yield r.finalize()

        res = run_relaxed([present, present, absent])
        assert res.deadlocked
        analysis = analyze_trace(res.matched, generate_outputs=False)
        assert set(analysis.deadlocked) == {0, 1}
        # Both blocked ranks wait exactly on the absent one.
        for cond in analysis.conditions.values():
            assert cond.target_ranks() == {2}


class TestEdgeBehaviour:
    def test_irecv_from_proc_null_completes(self):
        def p0(r):
            req = yield r.irecv(source=PROC_NULL)
            status = yield r.wait(req)
            assert status.source == PROC_NULL
            yield r.finalize()

        res = run_strict([p0])
        assert not res.deadlocked

    def test_engine_step_budget(self):
        def spinner(r):
            while True:
                yield r.iprobe(source=1)

        def other(r):
            yield r.finalize()

        with pytest.raises(ReproError):
            run_relaxed([spinner, other], max_steps=500)

    def test_collective_on_foreign_communicator_rejected(self):
        from repro.mpi.communicator import Communicator

        foreign = Communicator(0, (0,))  # rank 1 is not a member

        def p0(r):
            if r.rank == 1:
                yield r.barrier(comm=foreign)
            yield r.finalize()

        with pytest.raises(MpiUsageError):
            run_relaxed([p0, p0])

    def test_undefined_split_color_yields_none(self):
        seen = {}

        def p0(r):
            sub = yield r.comm_split(color=0 if r.rank == 0 else None)
            seen[r.rank] = sub
            yield r.finalize()

        res = run_relaxed([p0, p0])
        assert not res.deadlocked
        assert seen[1] is None  # MPI_UNDEFINED -> MPI_COMM_NULL
        assert seen[0] is not None and seen[0].group == (0,)

    def test_trace_determinism_across_identical_runs(self):
        from repro.workloads import master_worker_programs

        a = run_relaxed(master_worker_programs(5), seed=77)
        b = run_relaxed(master_worker_programs(5), seed=77)
        assert a.matched.send_of == b.matched.send_of
        for rank in range(5):
            ops_a = [op.describe() for op in a.trace.sequence(rank)]
            ops_b = [op.describe() for op in b.trace.sequence(rank)]
            assert ops_a == ops_b

    def test_distinct_seeds_change_wildcard_interleavings(self):
        from repro.workloads import master_worker_programs

        orders = set()
        for seed in range(8):
            res = run_relaxed(master_worker_programs(5), seed=seed)
            order = tuple(
                op.observed_peer for op in res.trace.sequence(0)
                if op.kind is OpKind.RECV and op.tag == 1
            )
            orders.add(order)
        assert len(orders) > 1


class TestCommCreate:
    def test_members_get_new_communicator(self):
        seen = {}

        def prog(r):
            sub = yield r.comm_create([1, 3])
            seen[r.rank] = sub
            if sub is not None:
                yield r.allreduce(comm=sub)
            yield r.finalize()

        res = run_relaxed([prog] * 4, seed=2)
        assert not res.deadlocked
        assert seen[0] is None and seen[2] is None
        assert seen[1].group == (1, 3)
        assert seen[1] is seen[3]

    def test_differing_groups_is_usage_error(self):
        def prog(r):
            group = [0, 1] if r.rank == 0 else [0, 1, 2]
            yield r.comm_create(group)
            yield r.finalize()

        with pytest.raises(MpiUsageError):
            run_relaxed([prog] * 3)

    def test_subgroup_collective_deadlock_detected(self):
        """A member skipping the subgroup barrier deadlocks the rest."""

        def prog(r):
            sub = yield r.comm_create([0, 1, 2])
            if sub is not None and r.rank != 2:
                yield r.barrier(comm=sub)
            yield r.finalize()

        res = run_relaxed([prog] * 4, seed=0)
        assert res.deadlocked
        from repro.core import analyze_trace

        analysis = analyze_trace(res.matched, generate_outputs=False)
        assert set(analysis.deadlocked) == {0, 1}
        for cond in analysis.conditions.values():
            assert cond.target_ranks() == {2}


class TestCollectiveReleaseOrderPins:
    """Recorded on eaf19e2, before a parked arrival in a synchronizing
    wave stopped rescanning every other parked waiter. The wildcard
    receives record in which order each collective let its ranks go,
    so the digests cover the schedule, not only the call sequence."""

    PINS = {
        ("relaxed", 0): "924f08e9e820c972",
        ("relaxed", 1): "0c2e24e7ecf6d88b",
        ("relaxed", 2): "c6963d04174e31f1",
        ("strict", 0): "f2a4d37f8c949d60",
        ("strict", 1): "4c0cc6fd0f5546a1",
        ("strict", 2): "88947c55a5bc0167",
    }

    @staticmethod
    def _mixed(rank):
        from repro.mpi.constants import ANY_SOURCE

        kinds = (
            "bcast", "reduce", "scatter", "barrier", "gather", "allreduce"
        )
        for it, name in enumerate(kinds * 2):
            call = getattr(rank, name)
            if name in ("barrier", "allreduce"):
                yield call()
            else:
                yield call(root=it % rank.size)
            if rank.rank == 0:
                for _ in range(rank.size - 1):
                    yield rank.recv(source=ANY_SOURCE, tag=it)
            else:
                yield rank.send(0, tag=it)
        yield rank.finalize()

    @pytest.mark.parametrize("semantics,seed", sorted(PINS))
    def test_traces_are_identical_op_for_op(self, semantics, seed):
        import hashlib

        run = run_relaxed if semantics == "relaxed" else run_strict
        result = run([self._mixed] * 8, seed=seed)
        assert not result.deadlocked
        trace = result.matched.trace
        text = repr([
            [
                (op.kind.name, op.ts, op.peer, op.tag, op.root, op.request,
                 op.requests, op.observed_peer, op.observed_tag)
                for op in trace.sequence(r)
            ]
            for r in range(trace.num_processes)
        ]) + repr(result.steps)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == self.PINS[semantics, seed]
