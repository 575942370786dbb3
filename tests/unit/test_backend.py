"""Unit tests for the analysis backends: factory, shard planning,
batched transport ordering, and the sharded backend's contract."""
import pytest

from repro.backend import (
    DEFAULT_SHARDS,
    InlineBackend,
    ShardedBackend,
    make_backend,
    plan_shards,
    shard_of_node,
)
from repro.backend.sharded import ShardNetwork, _finish_payload
from repro.core.detector import DistributedDeadlockDetector
from repro.core.messages import Ping, Pong
from repro.mpi.blocking import BlockingSemantics
from repro.perf.placement import Placement
from repro.runtime import run_programs
from repro.tbon.topology import TbonTopology
from repro.util.errors import ProtocolError, ResourceLimitError
from repro.workloads import build_stress_trace, fig2a_programs


class TestMakeBackend:
    def test_inline_by_name(self):
        backend = make_backend("inline")
        assert isinstance(backend, InlineBackend)
        assert backend.describe() == "inline"

    def test_sharded_by_name(self):
        backend = make_backend("sharded", shards=4)
        assert isinstance(backend, ShardedBackend)
        assert backend.shards == 4
        assert backend.describe() == "sharded(shards=4)"

    def test_default_shards(self):
        assert make_backend("sharded").shards == DEFAULT_SHARDS

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown analysis backend"):
            make_backend("turbo")

    def test_zero_shards_raises(self):
        with pytest.raises(ValueError):
            ShardedBackend(shards=0)


class TestPlanShards:
    def test_partition_covers_first_layer_contiguously(self):
        topology = TbonTopology.build(64, 4)
        plan = plan_shards(topology, 4)
        flat = [n for group in plan for n in group]
        assert flat == list(topology.first_layer)
        assert all(group for group in plan)

    def test_clamps_to_first_layer_size(self):
        topology = TbonTopology.build(8, 4)  # 2 first-layer nodes
        plan = plan_shards(topology, 8)
        assert len(plan) == 2

    def test_single_shard_owns_everything(self):
        topology = TbonTopology.build(64, 4)
        (group,) = plan_shards(topology, 1)
        assert group == topology.first_layer

    def test_deterministic(self):
        topology = TbonTopology.build(256, 4)
        assert plan_shards(topology, 4) == plan_shards(topology, 4)

    def test_invalid_shard_count_raises(self):
        topology = TbonTopology.build(16, 4)
        with pytest.raises(ValueError):
            plan_shards(topology, 0)

    def test_cuts_snap_to_placement_host_boundaries(self):
        # 64 ranks, fan-in 4 -> 16 first-layer nodes of 4 ranks each.
        # With 12 cores per host, the balanced midpoint cut (node 8,
        # first rank 32) is not a host boundary, but node 9 (rank 36 =
        # 3 * 12) is — within the snap window, so the planner takes it.
        topology = TbonTopology.build(64, 4)
        plan = plan_shards(topology, 2, Placement(cores_per_node=12))
        first_rank = topology.ranks_of_host(plan[1][0])[0]
        assert first_rank == 36

    def test_shard_of_node_inverts_plan(self):
        topology = TbonTopology.build(64, 4)
        plan = plan_shards(topology, 4)
        lookup = shard_of_node(plan)
        for shard, group in enumerate(plan):
            for node in group:
                assert lookup[node] == shard


class _Sink:
    """A handle-recording stand-in for a FirstLayerNode."""

    def __init__(self):
        self.seen = []

    def handle(self, msg, net, src):
        self.seen.append((src, msg))


class TestShardNetwork:
    def _net(self, local_ids, flush_limit=64):
        from repro.obs.observer import NULL_OBSERVER

        batches = []
        local = {nid: _Sink() for nid in local_ids}
        net = ShardNetwork(
            local, emit=batches.append, observer=NULL_OBSERVER,
            flush_limit=flush_limit,
        )
        return net, local, batches

    def test_local_sends_stay_local_and_fifo(self):
        net, local, batches = self._net([10, 11])
        net.send(1, 10, Ping(detection_id=1, remaining=0), 8)
        net.send(1, 10, Pong(detection_id=1, remaining=0), 8)
        net.pump()
        assert [type(m).__name__ for _, m in local[10].seen] == [
            "Ping", "Pong",
        ]
        assert not batches and net.messages_sent == 2

    def test_remote_sends_batch_in_send_order(self):
        net, _, batches = self._net([10])
        for seq in range(5):
            net.send(10, 99, Ping(detection_id=seq, remaining=0), 8)
        net.flush()
        (batch,) = batches
        assert len(batch) == 5
        # decode back and check the sequence survived intact
        from repro.mpi.serialize import decode_message

        seqs = [
            decode_message(wire).detection_id
            for _src, _dst, wire, _size in batch
        ]
        assert seqs == list(range(5))

    def test_outbox_flushes_at_limit(self):
        net, _, batches = self._net([10], flush_limit=3)
        for seq in range(7):
            net.send(10, 99, Ping(detection_id=seq, remaining=0), 8)
        assert [len(b) for b in batches] == [3, 3]
        net.flush()
        assert [len(b) for b in batches] == [3, 3, 1]
        assert net.flushes == 3

    def test_flush_order_preserves_per_channel_fifo(self):
        # Interleave two destination channels; after concatenating the
        # flushed batches, each channel's messages are still in order.
        net, _, batches = self._net([10], flush_limit=2)
        sends = [(99, 0), (98, 0), (99, 1), (98, 1), (99, 2)]
        for dst, seq in sends:
            net.send(10, dst, Ping(detection_id=seq, remaining=0), 8)
        net.flush()
        flat = [entry for batch in batches for entry in batch]
        for dst in (98, 99):
            from repro.mpi.serialize import decode_message

            seqs = [
                decode_message(wire).detection_id
                for _s, d, wire, _sz in flat
                if d == dst
            ]
            assert seqs == sorted(seqs)

    def test_deliver_rejects_foreign_node(self):
        net, _, _ = self._net([10])
        with pytest.raises(ProtocolError):
            net.deliver(1, 42, Ping(detection_id=0, remaining=0))

    def test_now_is_monotonic_across_deliveries(self):
        net, _, _ = self._net([10])
        net.send(1, 10, Ping(detection_id=0, remaining=0), 8)
        net.send(1, 10, Ping(detection_id=1, remaining=0), 8)
        before = net.now
        net.pump()
        assert net.now > before


class TestShardedBackendContract:
    def test_detect_at_is_rejected(self):
        res = run_programs(
            fig2a_programs(), semantics=BlockingSemantics.relaxed(), seed=0
        )
        with pytest.raises(ValueError, match="detect_at"):
            ShardedBackend(shards=2).run(res.matched, detect_at=(1.0,))

    def test_last_timing_reports_the_run(self):
        res = run_programs(
            fig2a_programs(), semantics=BlockingSemantics.relaxed(), seed=0
        )
        backend = ShardedBackend(shards=2)
        outcome = backend.run(res.matched)
        assert outcome.deadlocked == (0, 1)
        timing = backend.last_timing
        assert timing is not None
        assert timing["shards"] == 1  # fig2a: one first-layer node
        assert timing["rounds"] >= 1
        assert timing["modeled_latency_seconds"] >= max(
            timing["shard_busy_seconds"]
        )

    def test_one_read_off_for_nodes_here_and_finish_payloads(self):
        """The same nodes read the same whether the read-off takes them
        in this process or out of the workers' pickled finish payloads,
        and a real sharded run reads the same again."""
        import pickle

        from repro.obs.observer import NULL_OBSERVER

        matched = build_stress_trace(16, 4)
        detector = DistributedDeadlockDetector(matched, seed=3)
        inline = detector.run()
        shipped = {}
        for node_ids in plan_shards(detector.topology, 2):
            local = {n: detector.first_layer[n] for n in node_ids}
            net = ShardNetwork(local, emit=None, observer=NULL_OBSERVER)
            payload = _finish_payload(None, local, net, NULL_OBSERVER, 0.0)
            shipped.update(pickle.loads(pickle.dumps(payload))["first_layer"])
        sharded = ShardedBackend(shards=2).run(matched, seed=3)
        for other in (detector.read_off(shipped), sharded):
            assert other.stable_state == inline.stable_state
            assert other.peak_window >= 1
            assert other.node_stats == inline.node_stats
            assert other.messages_sent == inline.messages_sent
        assert detector.read_off(shipped).peak_window == inline.peak_window


class TestWorkerErrors:
    """An error raised inside a shard worker reaches the caller."""

    @pytest.mark.parametrize(
        "backend", [InlineBackend(), ShardedBackend(shards=2)],
        ids=lambda b: b.name,
    )
    def test_window_exhaustion_is_the_same_error_on_both_backends(
        self, backend
    ):
        matched = build_stress_trace(8, 4)
        with pytest.raises(ResourceLimitError, match="trace window") as info:
            backend.run(matched, window_limit=5)
        if backend.name == "sharded":
            cause = info.value.__cause__
            assert isinstance(cause, ProtocolError)
            assert "failed:\nTraceback" in str(cause)

    def test_any_other_worker_crash_is_a_protocol_error_with_traceback(
        self, monkeypatch
    ):
        def boom(*_args):
            raise ValueError("not a tool error")

        # Forked workers inherit the patched module.
        monkeypatch.setattr("repro.backend.sharded._inject_app_events", boom)
        with pytest.raises(ProtocolError, match="shard . failed") as info:
            ShardedBackend(shards=2).run(build_stress_trace(8, 2))
        assert "ValueError: not a tool error" in str(info.value)
