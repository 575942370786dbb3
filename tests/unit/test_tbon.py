"""TBON substrate: topology, network FIFO guarantees, aggregation."""
import pytest

from repro.mpi.constants import OpKind
from repro.tbon import (
    Network,
    TbonTopology,
    WaveAggregator,
    WaveContribution,
    fixed_latency,
    jittered_latency,
)
from repro.util.errors import CollectiveMismatchError


class TestTopology:
    def test_layers_and_roles(self):
        topo = TbonTopology.build(8, fan_in=2)
        assert topo.layers[0] == tuple(range(8))
        assert len(topo.first_layer) == 4
        assert topo.root == topo.layers[-1][0]
        assert topo.num_tool_nodes == 4 + 2 + 1

    def test_every_rank_has_a_first_layer_host(self):
        topo = TbonTopology.build(10, fan_in=4)
        for rank in range(10):
            host = topo.host_of_rank(rank)
            assert host in topo.first_layer
            assert rank in topo.ranks_of_host(host)

    def test_dedicated_root_for_small_worlds(self):
        """Even p <= fan_in gets a root above the first layer."""
        topo = TbonTopology.build(3, fan_in=4)
        assert len(topo.first_layer) == 1
        assert topo.root != topo.first_layer[0]
        assert topo.children(topo.root) == (topo.first_layer[0],)

    def test_parents_and_paths(self):
        topo = TbonTopology.build(16, fan_in=2)
        for node in topo.first_layer:
            path = topo.path_to_root(node)
            assert path[0] == node and path[-1] == topo.root
            for a, b in zip(path, path[1:]):
                assert topo.parent(a) == b

    def test_ranks_under(self):
        topo = TbonTopology.build(8, fan_in=2)
        assert topo.ranks_under(topo.root) == tuple(range(8))
        mid = topo.layers[2][0]
        assert topo.ranks_under(mid) == (0, 1, 2, 3)
        assert topo.ranks_under(5) == (5,)

    def test_root_has_no_parent(self):
        topo = TbonTopology.build(4, fan_in=2)
        with pytest.raises(KeyError):
            topo.parent(topo.root)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TbonTopology.build(0, 2)
        with pytest.raises(ValueError):
            TbonTopology.build(4, 1)

    def test_layer_of(self):
        topo = TbonTopology.build(4, fan_in=2)
        assert topo.layer_of(0) == 0
        assert topo.layer_of(topo.first_layer[0]) == 1
        assert topo.layer_of(topo.root) == len(topo.layers) - 1


class _Recorder:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def handle(self, msg, net, src):
        self.received.append((src, msg))


class TestNetwork:
    def test_fifo_per_channel_under_jitter(self):
        net = Network(jittered_latency(seed=42, base=1e-6, jitter=1e-4))
        sink = _Recorder(0)
        net.attach(sink)
        for i in range(50):
            net.send(1, 0, i)
        net.run()
        assert [m for _, m in sink.received] == list(range(50))

    def test_cross_channel_interleaving_allowed(self):
        net = Network(jittered_latency(seed=1, base=1e-6, jitter=1e-3))
        sink = _Recorder(0)
        net.attach(sink)
        for i in range(10):
            net.send(1, 0, ("a", i))
            net.send(2, 0, ("b", i))
        net.run()
        per_channel = {"a": [], "b": []}
        for src, (ch, i) in sink.received:
            per_channel[ch].append(i)
        assert per_channel["a"] == list(range(10))
        assert per_channel["b"] == list(range(10))

    def test_send_to_unattached_node(self):
        net = Network()
        with pytest.raises(KeyError):
            net.send(0, 99, "x")

    def test_call_at_ordering(self):
        net = Network(fixed_latency(1e-6))
        fired = []
        net.call_at(5.0, lambda: fired.append("late"))
        net.call_at(1.0, lambda: fired.append("early"))
        net.run()
        assert fired == ["early", "late"]
        assert net.now == 5.0

    def test_cannot_schedule_in_past(self):
        net = Network()
        net.call_at(1.0, lambda: None)
        net.run()
        with pytest.raises(ValueError):
            net.call_at(0.5, lambda: None)

    def test_run_until_bound(self):
        net = Network(fixed_latency(1.0))
        sink = _Recorder(0)
        net.attach(sink)
        net.send(1, 0, "m")
        t = net.run(until=0.5)
        assert t == 0.5 and not sink.received
        net.run()
        assert sink.received

    def test_message_statistics(self):
        net = Network()
        net.attach(_Recorder(0))
        net.send(1, 0, "x", size=100)
        net.send(2, 0, "y", size=50)
        net.run()
        assert net.messages_sent == 2
        assert net.bytes_sent == 150

    def test_handlers_can_send(self):
        net = Network(fixed_latency(1e-6))
        sink = _Recorder(0)

        class Relay:
            node_id = 1

            def handle(self, msg, n, src):
                n.send(1, 0, msg + 1)

        net.attach(sink)
        net.attach(Relay())
        net.send(2, 1, 41)
        net.run()
        assert sink.received == [(1, 42)]


class _Unordered:
    """A payload that refuses every comparison the heap could try."""

    def _refuse(self, other):
        raise AssertionError("the event heap compared two payloads")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
    __hash__ = object.__hash__


class TestEventOrder:
    """Heap entries are ``(time, seq, ...)`` tuples: order is decided by
    the first two fields, never by what is delivered."""

    def test_equal_arrivals_on_one_channel_keep_send_order(self):
        # Shrinking latencies: every later message would overtake, so
        # the channel front clamps all of them to one instant.
        latencies = iter([5.0, 4.0, 3.0, 2.0, 1.0])
        net = Network(lambda src, dst, size: next(latencies))
        sink = _Recorder(0)
        net.attach(sink)
        times = []
        sink.handle = lambda msg, n, src: times.append((n.now, msg))
        for i in range(5):
            net.send(1, 0, i)
        net.run()
        assert times == [(5.0, i) for i in range(5)]

    def test_equal_time_payloads_are_never_compared(self):
        net = Network(fixed_latency(1.0))
        sinks = [_Recorder(0), _Recorder(1)]
        for sink in sinks:
            net.attach(sink)
        msgs = [_Unordered() for _ in range(6)] + [object(), object()]
        for i, msg in enumerate(msgs):
            # Same src, dst and time for half of them: only seq differs.
            net.send(7, i % 2, msg)
        net.run()
        got = [m for _, m in sinks[0].received + sinks[1].received]
        assert [id(m) for m in got] == [
            id(m) for m in msgs[0::2] + msgs[1::2]
        ]

    def test_call_and_delivery_at_one_instant_keep_scheduling_order(self):
        net = Network(fixed_latency(1.0))
        order = []
        sink = _Recorder(0)
        sink.handle = lambda msg, n, src: order.append(msg)
        net.attach(sink)
        net.call_at(1.0, lambda: order.append("call-1"))
        net.send(3, 0, "msg-1")          # arrives at 1.0 too
        net.call_at(1.0, lambda: order.append("call-2"))
        net.send(3, 0, "msg-2")
        net.run()
        assert order == ["call-1", "msg-1", "call-2", "msg-2"]
        assert net.now == 1.0

    def test_negative_node_ids_are_reserved_for_calls(self):
        with pytest.raises(ValueError):
            Network().attach(_Recorder(-1))

    def test_peak_queue_is_the_heap_high_water_mark(self):
        net = Network(fixed_latency(1.0))
        net.attach(_Recorder(0))
        assert net.peak_queue == 0
        for i in range(7):
            net.send(1, 0, i)
        net.call_at(0.5, lambda: [net.send(2, 0, "x") for _ in range(3)])
        net.run()
        # 7 messages + the call before the first pop; the call's three
        # sends then find 7 still queued.
        assert net.peak_queue == 10
        assert net.idle()


class TestHeapStaysSmall:
    """Injections re-arm one at a time, so the heap holds at most one
    pending call per rank plus the messages in flight — not the trace."""

    @pytest.mark.parametrize("iterations", [20, 80])
    def test_stress_heap_is_bounded_by_ranks_not_ops(self, iterations):
        from repro.core.detector import DistributedDeadlockDetector
        from repro.workloads import build_stress_trace

        p = 64
        matched = build_stress_trace(p, iterations)
        detector = DistributedDeadlockDetector(matched, seed=0)
        net = detector.net
        flight = {"now": 0, "peak": 0}
        send = net.send

        def counting_send(src, dst, msg, size=64):
            flight["now"] += 1
            flight["peak"] = max(flight["peak"], flight["now"])
            send(src, dst, msg, size)

        net.send = counting_send
        for node in net._nodes.values():
            def landing(msg, n, src, _handle=node.handle):
                flight["now"] -= 1
                _handle(msg, n, src)

            node.handle = landing
        detector.run()
        assert flight["now"] == 0
        total_ops = sum(len(matched.trace.sequence(r)) for r in range(p))
        assert 0 < net.peak_queue <= p + flight["peak"]
        # About 7 messages in flight per rank at the default op gap,
        # however long the trace is.
        assert net.peak_queue <= 10 * p
        assert net.peak_queue < total_ops / 4


class TestWaveAggregator:
    def test_emits_exactly_once_at_threshold(self):
        agg = WaveAggregator()
        c = WaveContribution(count=1, kind=OpKind.BARRIER, root=None)
        assert agg.add("w", c, expected=3) is None
        assert agg.add("w", c, expected=3) is None
        out = agg.add("w", c, expected=3)
        assert out is not None and out.count == 3
        assert agg.pending_keys() == ()

    def test_partial_counts_aggregate(self):
        agg = WaveAggregator()
        out = agg.add(
            "w", WaveContribution(2, OpKind.ALLREDUCE, None), expected=5
        )
        assert out is None
        out = agg.add(
            "w", WaveContribution(3, OpKind.ALLREDUCE, None), expected=5
        )
        assert out.count == 5

    def test_kind_mismatch(self):
        agg = WaveAggregator()
        agg.add("w", WaveContribution(1, OpKind.BARRIER, None), expected=2)
        with pytest.raises(CollectiveMismatchError):
            agg.add("w", WaveContribution(1, OpKind.ALLREDUCE, None),
                    expected=2)

    def test_root_mismatch(self):
        agg = WaveAggregator()
        agg.add("w", WaveContribution(1, OpKind.REDUCE, 0), expected=2)
        with pytest.raises(CollectiveMismatchError):
            agg.add("w", WaveContribution(1, OpKind.REDUCE, 1), expected=2)

    def test_overcount_detected(self):
        agg = WaveAggregator()
        agg.add("w", WaveContribution(2, OpKind.BARRIER, None), expected=2)
        with pytest.raises(CollectiveMismatchError):
            agg.add("w", WaveContribution(1, OpKind.BARRIER, None),
                    expected=2)

    def test_independent_keys(self):
        agg = WaveAggregator()
        c = WaveContribution(1, OpKind.BARRIER, None)
        assert agg.add(("a", 0), c, expected=1) is not None
        assert agg.add(("a", 1), c, expected=2) is None
        assert set(agg.pending_keys()) == {("a", 1)}


class _NullNode:
    def __init__(self, node_id):
        self.node_id = node_id

    def handle(self, msg, net, src):
        pass


class TestBoundedRunClock:
    """Regression: ``run(until=T)`` must advance the clock to T even
    when the event heap drains early. It used to return the pre-drain
    clock, so back-to-back bounded runs saw time move backwards
    relative to the requested horizon."""

    def test_empty_heap_still_advances_to_until(self):
        net = Network(fixed_latency(0.25))
        assert net.run(until=5.0) == 5.0
        assert net.now == 5.0

    def test_drained_heap_advances_past_last_event(self):
        net = Network(fixed_latency(0.25))
        net.attach(_NullNode(0))
        net.send(1, 0, "hello", 8)
        assert net.run(until=2.0) == 2.0  # delivery was at t=0.25
        assert net.idle()
        # The advanced clock must be usable: scheduling relative to
        # `now` lands after the bound, never "in the past".
        fired = []
        net.call_later(0.5, lambda: fired.append(net.now))
        net.run()
        assert fired == [2.5]

    def test_monotonic_across_consecutive_bounded_runs(self):
        net = Network(fixed_latency(0.25))
        stamps = []
        for until in (1.0, 2.0, 3.0):
            stamps.append(net.run(until=until))
        assert stamps == [1.0, 2.0, 3.0]
