"""Trace and message (de)serialization: record once, analyze anywhere.

Matched traces serialize to a versioned JSON document so runs recorded
by the virtual runtime (or, in principle, a real PMPI interception
layer producing the same schema) can be stored, shipped, and analyzed
offline. The format is intentionally plain: one object per operation
with only the fields deadlock analysis consumes.

The second half is the wire codec for the distributed tool's message
vocabulary (:mod:`repro.core.messages`): :func:`encode_message` turns
any protocol message into a plain ``(tag, payload)`` tuple of
primitives and :func:`decode_message` reverses it. The sharded
analysis backend ships batches of these tuples across process
boundaries — plain tuples pickle an order of magnitude faster than
dataclass instances and pin the cross-process wire format explicitly
instead of leaning on pickle's class-by-reference behaviour.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import OpKind, WORLD_COMM_ID
from repro.mpi.ops import Operation
from repro.mpi.trace import (
    CollectiveMatch,
    MatchedTrace,
    PendingCollective,
    Trace,
)
from repro.util.errors import TraceError

FORMAT_VERSION = 1

_KIND_BY_NAME = {kind.name: kind for kind in OpKind}


def _op_to_dict(op: Operation) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": op.kind.name}
    if op.comm_id != WORLD_COMM_ID:
        out["comm"] = op.comm_id
    for attr, key in (
        ("peer", "peer"),
        ("root", "root"),
        ("request", "request"),
        ("observed_peer", "obs_peer"),
        ("observed_tag", "obs_tag"),
        ("sendrecv_group", "srg"),
    ):
        value = getattr(op, attr)
        if value is not None:
            out[key] = value
    if op.tag:
        out["tag"] = op.tag
    if op.requests:
        out["requests"] = list(op.requests)
    if op.completed_indices:
        out["completed"] = list(op.completed_indices)
    if op.test_flag:
        out["flag"] = True
    if op.nbytes:
        out["nbytes"] = op.nbytes
    if op.location:
        out["location"] = op.location
    return out


def _op_from_dict(rank: int, ts: int, data: Dict[str, Any]) -> Operation:
    try:
        kind = _KIND_BY_NAME[data["kind"]]
    except KeyError:
        raise TraceError(f"unknown operation kind {data.get('kind')!r}")
    return Operation(
        kind=kind,
        rank=rank,
        ts=ts,
        comm_id=data.get("comm", WORLD_COMM_ID),
        peer=data.get("peer"),
        tag=data.get("tag", 0),
        root=data.get("root"),
        request=data.get("request"),
        requests=tuple(data.get("requests", ())),
        observed_peer=data.get("obs_peer"),
        observed_tag=data.get("obs_tag"),
        completed_indices=tuple(data.get("completed", ())),
        test_flag=data.get("flag", False),
        nbytes=data.get("nbytes", 0),
        sendrecv_group=data.get("srg"),
        location=data.get("location", ""),
    )


def matched_trace_to_dict(matched: MatchedTrace) -> Dict[str, Any]:
    """Serialize a matched trace to a JSON-compatible dict."""
    trace = matched.trace
    comms: List[Dict[str, Any]] = []
    for comm_id in matched.comms.all_ids():
        if comm_id == WORLD_COMM_ID:
            continue
        comm = matched.comms.get(comm_id)
        comms.append({"id": comm.comm_id, "group": list(comm.group)})
    return {
        "format": FORMAT_VERSION,
        "num_processes": trace.num_processes,
        "communicators": comms,
        "ranks": [
            [_op_to_dict(op) for op in trace.sequence(rank)]
            for rank in range(trace.num_processes)
        ],
        "p2p_matches": [
            [list(send), list(recv)]
            for recv, send in sorted(matched.send_of.items())
        ],
        "probe_matches": [
            [list(probe), list(send)]
            for probe, send in sorted(matched.probe_match.items())
        ],
        "collectives": [
            {"comm": m.comm_id, "members": sorted(map(list, m.members))}
            for m in matched.collectives
        ],
        "pending_collectives": [
            {
                "comm": p.comm_id,
                "index": p.index,
                "arrived": {str(r): list(ref) for r, ref in p.arrived.items()},
            }
            for p in matched.pending_collectives
        ],
        "requests": [
            [rank, req, list(creator)]
            for (rank, req), creator in sorted(matched.request_op.items())
        ],
    }


def matched_trace_from_dict(data: Dict[str, Any]) -> MatchedTrace:
    """Reconstruct a matched trace; validates internal consistency."""
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"unsupported trace format {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    num = data["num_processes"]
    sequences = [
        [
            _op_from_dict(rank, ts, op_data)
            for ts, op_data in enumerate(data["ranks"][rank])
        ]
        for rank in range(num)
    ]
    trace = Trace(sequences)
    comms = CommRegistry(num)
    for entry in sorted(data.get("communicators", ()), key=lambda e: e["id"]):
        comm = comms.create(entry["group"])
        if comm.comm_id != entry["id"]:
            raise TraceError(
                f"communicator ids must be dense and ordered; got "
                f"{entry['id']}, expected {comm.comm_id}"
            )
    matched = MatchedTrace(trace, comms)
    for send, recv in data.get("p2p_matches", ()):
        matched.add_p2p_match(tuple(send), tuple(recv))
    for probe, send in data.get("probe_matches", ()):
        matched.add_probe_match(tuple(probe), tuple(send))
    for entry in data.get("collectives", ()):
        matched.add_collective_match(
            CollectiveMatch(
                comm_id=entry["comm"],
                members=frozenset(tuple(m) for m in entry["members"]),
            )
        )
    for entry in data.get("pending_collectives", ()):
        matched.add_pending_collective(
            PendingCollective(
                comm_id=entry["comm"],
                index=entry["index"],
                arrived={
                    int(r): tuple(ref)
                    for r, ref in entry["arrived"].items()
                },
            )
        )
    for rank, req, creator in data.get("requests", ()):
        matched.register_request(rank, req, tuple(creator))
    matched.validate()
    return matched


def save_trace(matched: MatchedTrace, path: str) -> None:
    """Write a matched trace to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(matched_trace_to_dict(matched), handle)


def load_trace(path: str) -> MatchedTrace:
    """Read a matched trace from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise TraceError(f"{path} does not hold a trace document")
    return matched_trace_from_dict(document)


# ----------------------------------------------------------------------
# protocol message codec (cross-process wire format)
# ----------------------------------------------------------------------

#: tag -> (encode(msg) -> payload, decode(payload) -> msg). Built
#: lazily: repro.core.messages sits above this module in the import
#: graph (it pulls in repro.mpi.constants, which initializes the
#: repro.mpi package, which imports this module), so binding the
#: message classes at import time would trip the partial-init cycle.
#: A primitive wire tuple — heterogeneous by design.
WireTuple = Tuple[Any, ...]

_CODEC: Dict[str, Tuple[Callable[[Any], WireTuple],
                        Callable[[WireTuple], Any]]] = {}
_TAG_OF: Dict[Type[Any], str] = {}


def _encode_wait_entry(entry: Any) -> WireTuple:
    from repro.core.messages import CollectiveWait, P2PWait
    from repro.core.waitfor import GroupClause

    if isinstance(entry, P2PWait):
        targets = entry.or_targets
        if isinstance(targets, GroupClause):
            # Not expanded: the group tuple travels by reference, so a
            # pickled batch carries it once however many clauses share
            # it, and the decoded clauses share it again.
            return ("g", targets.group, targets.rank, targets.reason)
        return ("p", tuple(targets), entry.reason)
    if isinstance(entry, CollectiveWait):
        return ("c", entry.comm_id, entry.wave_index)
    raise TraceError(f"cannot encode wait entry {type(entry).__name__}")


def _decode_wait_entry(data: WireTuple) -> Any:
    from repro.core.messages import CollectiveWait, P2PWait
    from repro.core.waitfor import GroupClause

    if data[0] == "p":
        return P2PWait(or_targets=tuple(data[1]), reason=data[2])
    if data[0] == "g":
        return P2PWait(
            or_targets=GroupClause(tuple(data[1]), data[2], data[3]),
            reason=data[3],
        )
    if data[0] == "c":
        return CollectiveWait(comm_id=data[1], wave_index=data[2])
    raise TraceError(f"cannot decode wait entry tagged {data[0]!r}")


def _encode_wait_info(info: Any) -> WireTuple:
    return (
        info.rank,
        info.op_description,
        tuple(_encode_wait_entry(e) for e in info.entries),
        info.or_semantics,
    )


def _decode_wait_info(data: WireTuple) -> Any:
    from repro.core.messages import RankWaitInfo

    return RankWaitInfo(
        rank=data[0],
        op_description=data[1],
        entries=tuple(_decode_wait_entry(e) for e in data[2]),
        or_semantics=data[3],
    )


def _build_codec() -> None:
    from repro.core import messages as m

    def plain(cls: Type[Any]) -> None:
        """A message of primitives: its declared fields, in order."""
        tag = cls.__name__
        names = tuple(f.name for f in dataclasses.fields(cls))

        def enc(msg: Any) -> WireTuple:
            return tuple(getattr(msg, n) for n in names)

        _CODEC[tag] = (enc, lambda payload: cls(*payload))
        _TAG_OF[cls] = tag

    for cls in (
        m.RankDoneMsg, m.PassSend, m.RecvActive, m.RecvActiveAck,
        m.CollectiveAck, m.RequestConsistentState, m.Ping, m.Pong,
        m.AckConsistentState, m.RequestWaits,
    ):
        plain(cls)

    _CODEC["NewOpMsg"] = (
        lambda msg: (msg.op.rank, msg.op.ts, _op_to_dict(msg.op)),
        lambda p: m.NewOpMsg(_op_from_dict(p[0], p[1], p[2])),
    )
    _TAG_OF[m.NewOpMsg] = "NewOpMsg"
    _CODEC["CollectiveReady"] = (
        lambda msg: (msg.comm_id, msg.wave_index, msg.kind.name, msg.root,
                     msg.count),
        lambda p: m.CollectiveReady(
            comm_id=p[0], wave_index=p[1], kind=_KIND_BY_NAME[p[2]],
            root=p[3], count=p[4],
        ),
    )
    _TAG_OF[m.CollectiveReady] = "CollectiveReady"
    _CODEC["WaitInfoMsg"] = (
        lambda msg: (
            msg.detection_id,
            msg.node_id,
            tuple(_encode_wait_info(i) for i in msg.infos),
            tuple(msg.unblocked),
            tuple(msg.finished),
        ),
        lambda p: m.WaitInfoMsg(
            detection_id=p[0],
            node_id=p[1],
            infos=tuple(_decode_wait_info(i) for i in p[2]),
            unblocked=tuple(p[3]),
            finished=tuple(p[4]),
        ),
    )
    _TAG_OF[m.WaitInfoMsg] = "WaitInfoMsg"


def encode_message(msg: Any) -> WireTuple:
    """Encode a protocol message as the primitive ``(tag, payload)``
    wire tuple the sharded backend ships."""
    if not _TAG_OF:
        _build_codec()
    try:
        tag = _TAG_OF[type(msg)]
    except KeyError:
        raise TraceError(
            f"no wire codec for message type {type(msg).__name__}"
        ) from None
    return (tag, _CODEC[tag][0](msg))


def decode_message(data: WireTuple) -> Any:
    """Reverse of :func:`encode_message`."""
    if not _CODEC:
        _build_codec()
    tag = data[0]
    try:
        decoder = _CODEC[tag][1]
    except KeyError:
        raise TraceError(f"no wire codec for message tag {tag!r}") from None
    return decoder(data[1])
