"""Interior/root node behaviour and protocol error paths."""
import functools
import importlib
import inspect
import typing

import pytest

from repro.core.distributed import FirstLayerNode
from repro.core.messages import (
    AckConsistentState,
    CollectiveAck,
    CollectiveReady,
    CollectiveWait,
    NewOpMsg,
    P2PWait,
    PassSend,
    Ping,
    Pong,
    RankDoneMsg,
    RankWaitInfo,
    RecvActive,
    RecvActiveAck,
    RequestConsistentState,
    RequestWaits,
    WaitInfoMsg,
)
from repro.core.treenodes import InteriorNode, RootNode
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import OpKind
from repro.mpi.ops import Operation
from repro.tbon.network import Network, fixed_latency
from repro.tbon.topology import TbonTopology
from repro.util.errors import ProtocolError


class _Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def handle(self, msg, net, src):
        self.received.append((src, msg))


def _tree16():
    """16 ranks, fan-in 2: first layer 16..23, interior 24..27,
    then 28..29, root 30."""
    return TbonTopology.build(16, 2)


class TestInteriorAggregation:
    def test_collective_ready_forwarded_once_complete(self):
        topo = _tree16()
        comms = CommRegistry(16)
        interior = topo.layers[2][0]  # above first-layer nodes 16, 17
        node = InteriorNode(interior, topo, comms)
        net = Network(fixed_latency())
        parent = _Sink(topo.parent(interior))
        net.attach(parent)
        net.attach(node)

        ready = CollectiveReady(comm_id=0, wave_index=0,
                                kind=OpKind.BARRIER, root=None, count=2)
        node.handle(ready, net, src=topo.children(interior)[0])
        net.run()
        assert not parent.received  # 2 of 4 subtree ranks
        node.handle(ready, net, src=topo.children(interior)[1])
        net.run()
        assert len(parent.received) == 1
        _, msg = parent.received[0]
        assert isinstance(msg, CollectiveReady) and msg.count == 4

    def test_subgroup_collective_counts_only_members(self):
        topo = _tree16()
        comms = CommRegistry(16)
        sub = comms.create([0, 1])  # entirely under the first interior
        interior = topo.layers[2][0]
        node = InteriorNode(interior, topo, comms)
        net = Network(fixed_latency())
        parent = _Sink(topo.parent(interior))
        net.attach(parent)
        net.attach(node)
        node.handle(
            CollectiveReady(comm_id=sub.comm_id, wave_index=0,
                            kind=OpKind.BARRIER, root=None, count=2),
            net, src=topo.children(interior)[0],
        )
        net.run()
        assert len(parent.received) == 1  # both members present already

    def test_ack_aggregation_and_overcount(self):
        topo = _tree16()
        node = InteriorNode(topo.layers[2][0], topo, CommRegistry(16))
        net = Network(fixed_latency())
        parent = _Sink(topo.parent(node.node_id))
        net.attach(parent)
        net.attach(node)
        node.handle(AckConsistentState(0, count=1), net, src=0)
        net.run()
        assert not parent.received
        node.handle(AckConsistentState(0, count=1), net, src=0)
        net.run()
        assert len(parent.received) == 1
        assert parent.received[0][1].count == 2
        # Over-counting within one detection round is a protocol error.
        with pytest.raises(ProtocolError):
            node.handle(AckConsistentState(1, count=3), net, src=0)

    def test_broadcast_forwarded_to_children(self):
        topo = _tree16()
        interior = topo.layers[2][0]
        node = InteriorNode(interior, topo, CommRegistry(16))
        net = Network(fixed_latency())
        children = [_Sink(c) for c in topo.children(interior)]
        for c in children:
            net.attach(c)
        net.attach(node)
        node.handle(RequestWaits(3), net, src=topo.parent(interior))
        net.run()
        for c in children:
            assert len(c.received) == 1

    def test_unknown_message_rejected(self):
        topo = _tree16()
        node = InteriorNode(topo.layers[2][0], topo, CommRegistry(16))
        with pytest.raises(ProtocolError):
            node.handle("garbage", Network(), src=0)


class TestRootProtocol:
    def _root(self, p=4, fan_in=2):
        topo = TbonTopology.build(p, fan_in)
        comms = CommRegistry(p)
        root = RootNode(topo.root, topo, comms)
        net = Network(fixed_latency())
        sinks = {}
        for child in topo.children(topo.root):
            sinks[child] = _Sink(child)
            net.attach(sinks[child])
        net.attach(root)
        return topo, root, net, sinks

    def test_collective_ack_broadcast_at_group_completeness(self):
        topo, root, net, sinks = self._root()
        root.handle(
            CollectiveReady(comm_id=0, wave_index=0, kind=OpKind.BARRIER,
                            root=None, count=4),
            net, src=topo.children(topo.root)[0],
        )
        net.run()
        for sink in sinks.values():
            assert any(
                isinstance(m, CollectiveAck) for _, m in sink.received
            )

    def test_detection_serialization(self):
        topo, root, net, sinks = self._root()
        first = root.start_detection(net)
        second = root.start_detection(net)  # deferred
        assert first == second == 0
        net.run()
        requests = [
            m for sink in sinks.values() for _, m in sink.received
            if isinstance(m, RequestConsistentState)
        ]
        assert len(requests) == len(sinks)  # only one round broadcast

    def test_stray_protocol_messages_rejected(self):
        topo, root, net, _ = self._root()
        with pytest.raises(ProtocolError):
            root.handle(AckConsistentState(detection_id=99), net, src=0)
        with pytest.raises(ProtocolError):
            root.handle(
                WaitInfoMsg(detection_id=99, node_id=0, infos=()),
                net, src=0,
            )

    def test_collective_wait_resolution(self):
        """Root-side expansion of CollectiveWait entries: arcs to every
        group member not blocked in the same wave."""
        topo, root, net, _ = self._root(p=4)
        infos = [
            RankWaitInfo(rank=0, op_description="MPI_Barrier()@0:0",
                         entries=(CollectiveWait(0, 0),)),
            RankWaitInfo(rank=1, op_description="MPI_Barrier()@1:0",
                         entries=(CollectiveWait(0, 0),)),
        ]
        conditions = root._resolve_conditions(
            [WaitInfoMsg(detection_id=0, node_id=99, infos=tuple(infos))]
        )
        # 0 and 1 are in the same wave: they wait only on 2 and 3.
        assert conditions[0].target_ranks() == {2, 3}
        assert conditions[1].target_ranks() == {2, 3}

    def test_waitany_or_resolution(self):
        topo, root, net, _ = self._root(p=4)
        info = RankWaitInfo(
            rank=0,
            op_description="MPI_Waitany()@0:5",
            entries=(
                P2PWait((1,), "r1"),
                P2PWait((2, 3), "r2"),
            ),
            or_semantics=True,
        )
        conditions = root._resolve_conditions(
            [WaitInfoMsg(detection_id=0, node_id=99, infos=(info,))]
        )
        cond = conditions[0]
        assert len(cond.clauses) == 1  # one flattened OR clause
        assert {t.rank for t in cond.clauses[0]} == {1, 2, 3}


class TestFirstLayerDispatch:
    """``FirstLayerNode.handle`` is one table lookup on the message
    type: same errors and same per-type ``stats`` as the old chain."""

    def _node(self):
        topo = TbonTopology.build(4, 2)  # first layer 4, 5; root 6
        node = FirstLayerNode(topo.first_layer[0], topo, CommRegistry(4))
        net = Network(fixed_latency())
        sinks = [_Sink(topo.first_layer[1]), _Sink(topo.root)]
        for attached in (node, *sinks):
            net.attach(attached)
        return topo, node, net, sinks

    def test_unknown_message_type_is_a_protocol_error(self):
        topo, node, net, _ = self._node()
        for alien in ("garbage", AckConsistentState(0), object()):
            with pytest.raises(ProtocolError) as excinfo:
                node.handle(alien, net, src=topo.root)
            assert type(alien).__name__ in str(excinfo.value)
            assert f"node {node.node_id}" in str(excinfo.value)

    def test_stats_count_every_message_by_type_name(self):
        topo, node, net, (peer, root) = self._node()
        barrier = Operation(kind=OpKind.BARRIER, rank=0, ts=0)
        node.handle(NewOpMsg(barrier), net, src=0)
        node.handle(RankDoneMsg(1), net, src=1)
        node.handle(Ping(7, 1), net, src=peer.node_id)
        node.handle(Ping(7, 0), net, src=peer.node_id)
        with pytest.raises(ProtocolError):
            node.handle("garbage", net, src=0)
        assert node.stats == {
            "NewOpMsg": 1, "RankDoneMsg": 1, "Ping": 2, "str": 1
        }
        net.run()
        # Pings are answered to their sender with the same counters.
        assert [m for _, m in peer.received] == [Pong(7, 1), Pong(7, 0)]
        assert node.windows[1].done and not node.windows[0].done

    def test_every_first_layer_message_type_has_a_handler(self):
        handled = set(FirstLayerNode._HANDLERS)
        assert handled == {
            NewOpMsg, RankDoneMsg, PassSend, RecvActive, RecvActiveAck,
            CollectiveAck, RequestConsistentState, Ping, Pong, RequestWaits,
        }


@pytest.mark.parametrize("module_name", [
    "repro.core.treenodes", "repro.core.detector",
    "repro.wfg.dot", "repro.wfg.report",
])
def test_every_annotation_resolves(module_name):
    """An annotation naming something the module never imported (the
    root's ``Optional[Network]``) passes at run time under ``from
    __future__ import annotations`` and fails whoever reads the hints."""
    module = importlib.import_module(module_name)

    def functions(owner):
        for value in vars(owner).values():
            if isinstance(value, property):
                value = value.fget
            elif isinstance(value, functools.cached_property):
                value = value.func
            elif isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if inspect.isfunction(value) and value.__module__ == module_name:
                yield value

    checked = list(functions(module))
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module_name:
            typing.get_type_hints(cls)
            checked.extend(functions(cls))
    assert checked
    for function in checked:
        typing.get_type_hints(function)
