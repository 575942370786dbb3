"""The per-rank injector that streams a trace into the tool."""
import gc
import weakref

from repro.core.detector import DistributedDeadlockDetector, _Injector
from repro.core.messages import NewOpMsg, RankDoneMsg
from repro.mpi.constants import OpKind
from repro.mpi.ops import Operation
from repro.tbon import Network, fixed_latency
from repro.workloads import build_stress_trace


class _Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def handle(self, msg, net, src):
        self.received.append((net.now, src, msg))


def _ops(rank, n):
    return [Operation(kind=OpKind.BARRIER, rank=rank, ts=ts) for ts in range(n)]


def test_injects_every_op_then_rank_done_at_the_preset_times():
    net = Network(fixed_latency(0.25))
    sink = _Sink(9)
    net.attach(sink)
    ops = _ops(3, 3)
    _Injector(net, 3, 9, ops, [1.0, 2.0, 3.0, 4.0]).arm()
    assert len(net._queue) == 1  # one pending injection, not four
    net.run()
    assert [(t, src) for t, src, _ in sink.received] == [
        (1.25, 3), (2.25, 3), (3.25, 3), (4.25, 3)
    ]
    msgs = [m for _, _, m in sink.received]
    assert [m.op for m in msgs[:3]] == ops
    assert all(isinstance(m, NewOpMsg) for m in msgs[:3])
    assert msgs[3] == RankDoneMsg(3)
    assert net.peak_queue <= 2 and net.idle()


def test_rearm_survives_a_clock_that_ran_ahead():
    """With ``node_cost`` the clock can pass the next preset time while
    a node is busy; the re-arm injects as soon as possible instead of
    asking ``call_at`` for a time in the past."""
    net = Network(fixed_latency(0.0), node_cost=10.0)
    sink = _Sink(0)
    net.attach(sink)
    for rank in (0, 1):
        _Injector(net, rank, 0, _ops(rank, 2), [0.0, 1.0, 2.0]).arm()
    net.run()
    per_rank = {0: [], 1: []}
    for _, src, msg in sink.received:
        per_rank[src].append(msg)
    for rank, msgs in per_rank.items():
        assert [m.op.ts for m in msgs[:2]] == [0, 1]
        assert msgs[2] == RankDoneMsg(rank)
    assert net.now >= 50.0  # six deliveries, one node, cost 10 each


def test_a_finished_run_is_freed_by_reference_counting_alone():
    """A self re-arming closure would tie Network, detector and graphs
    into a cycle only the gen-2 collector breaks; the injector object
    is referenced from the heap only while its event is pending."""
    gc.collect()
    gc.disable()
    try:
        detector = DistributedDeadlockDetector(
            build_stress_trace(8, 4), seed=0
        )
        outcome = detector.run()
        assert not outcome.has_deadlock
        net_ref = weakref.ref(detector.net)
        root_ref = weakref.ref(detector.root)
        del detector, outcome
        assert net_ref() is None
        assert root_ref() is None
    finally:
        gc.enable()
