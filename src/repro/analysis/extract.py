"""Static extraction of per-rank operation sequences.

Rank programs are generators, so their operation sequences can be
obtained *without* the engine by driving each generator with stubbed
call results. For deterministic programs (no wildcard receives, no
probes/tests whose outcome steers control flow) the extracted
sequences are exactly the sequences the engine would record; the
:class:`Extraction` tracks whether that guarantee holds (``exact``).

Only the communicator-management collectives need cross-rank lockstep:
their results (:class:`~repro.mpi.communicator.Communicator` objects)
feed back into later calls structurally, so the extractor parks a rank
at ``MPI_Comm_dup``/``_split``/``_create`` until every group member
arrives and then distributes real registry results. Everything else
continues immediately — blocking behaviour is the matcher's concern
(:mod:`repro.analysis.matchcore`), not the extractor's.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.matchcore import runtime_steered
from repro.checks.findings import CheckFinding, Severity
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    OpKind,
    is_collective_kind,
    is_completion_kind,
)
from repro.mpi.ops import Operation
from repro.runtime.program import Call, Rank, Status

#: Comm-management collectives whose results matter structurally.
_COMM_MGMT = frozenset(
    {OpKind.COMM_DUP, OpKind.COMM_SPLIT, OpKind.COMM_CREATE}
)

_ISEND_KINDS = frozenset(
    {OpKind.ISEND, OpKind.ISSEND, OpKind.IBSEND, OpKind.IRSEND}
)


@dataclass
class Extraction:
    """Result of statically unrolling a program set."""

    sequences: List[List[Operation]]
    comms: CommRegistry
    #: Whether the sequences provably equal what the engine would
    #: record (no fabricated result could have steered control flow).
    exact: bool
    #: Weaker guarantee for the match-set explorer: the sequences are
    #: exact *except* that wildcard receive/probe statuses were
    #: fabricated (with explicit ``ANY_SOURCE``/``ANY_TAG`` markers).
    #: Programs that branch on a fabricated wildcard status are not
    #: covered — a witness replay diverging is how that surfaces.
    wildcard_exact: bool = True
    notes: List[CheckFinding] = field(default_factory=list)
    #: Ranks whose extraction stopped early (error, runaway loop, or a
    #: comm-management collective that never completed).
    truncated: Set[int] = field(default_factory=set)

    @property
    def num_processes(self) -> int:
        return len(self.sequences)

    @property
    def usable_for_matching(self) -> bool:
        """Whether any matching-based verdict may trust the sequences:
        complete, and inexact at worst in fabricated wildcard statuses
        (the gate both the explorer and the decidable-fragment fast
        path apply)."""
        return not self.truncated and (self.exact or self.wildcard_exact)


@dataclass
class _PersistentInfo:
    is_send: bool
    peer: int
    tag: int
    comm_id: int
    nbytes: int
    active_instance: Optional[int] = None


@dataclass
class _RankDriver:
    rank: int
    gen: Iterator[Call]
    ops: List[Operation] = field(default_factory=list)
    next_req: int = 0
    #: Pending result for the next ``gen.send`` (None before first step).
    inbox: object = None
    started: bool = False
    done: bool = False
    parked: bool = False
    #: Request id -> (is_recv, peer, tag) for wait-status fabrication.
    recv_requests: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    persistent: Dict[int, _PersistentInfo] = field(default_factory=dict)


class _WaveState:
    """One pending comm-management wave on one communicator."""

    def __init__(self, comm_id: int) -> None:
        self.comm_id = comm_id
        self.arrived: Dict[int, Call] = {}


def extract_programs(
    programs: Sequence, *, max_ops_per_rank: int = 50_000
) -> Extraction:
    """Drive ``programs`` with stub results and collect their sequences.

    ``programs`` has the same shape as for
    :func:`repro.runtime.run_programs`: one callable per rank, each
    receiving a :class:`~repro.runtime.program.Rank` handle and
    returning a generator.
    """
    p = len(programs)
    comms = CommRegistry(p)
    drivers: List[_RankDriver] = []
    for i, prog in enumerate(programs):
        handle = Rank(i, comms.world)
        drivers.append(_RankDriver(rank=i, gen=prog(handle)))
    ext = Extraction(sequences=[d.ops for d in drivers], comms=comms,
                     exact=True)
    # Side table for wave resolution (not part of the public result).
    ext._drivers = drivers  # type: ignore[attr-defined]
    waves: Dict[int, _WaveState] = {}

    progressed = True
    while progressed:
        progressed = False
        for driver in drivers:
            if driver.done or driver.parked:
                continue
            if _drive_until_park(driver, ext, waves, max_ops_per_rank):
                progressed = True

    # Ranks still parked sit in a comm-management wave that can never
    # complete (some member diverged or hung before arriving).
    for driver in drivers:
        if driver.parked:
            ext.truncated.add(driver.rank)
            ext.exact = False
            ext.wildcard_exact = False
            ext.notes.append(
                CheckFinding(
                    check="static-extraction",
                    severity=Severity.WARNING,
                    rank=driver.rank,
                    message=(
                        "comm-management collective never completed "
                        "during extraction (some group member diverged); "
                        "sequence truncated"
                    ),
                    op=driver.ops[-1].ref if driver.ops else None,
                    location=driver.ops[-1].location if driver.ops else "",
                )
            )
    return ext


def _drive_until_park(
    driver: _RankDriver,
    ext: Extraction,
    waves: Dict[int, _WaveState],
    max_ops: int,
) -> bool:
    """Advance one rank until it parks, finishes, or errors.

    Returns True when at least one step was taken (progress).
    """
    progressed = False
    while not (driver.done or driver.parked):
        if len(driver.ops) >= max_ops:
            _truncate(
                driver, ext,
                f"extraction stopped after {max_ops} operations "
                "(non-terminating program?)",
            )
            return progressed
        try:
            if driver.started:
                result, driver.inbox = driver.inbox, None
                call = driver.gen.send(result)
            else:
                driver.started = True
                call = next(driver.gen)
        except StopIteration:
            driver.done = True
            return True
        except Exception as exc:  # program bug: report, keep analyzing
            _truncate(
                driver, ext,
                f"program raised during extraction: {exc!r}",
            )
            return progressed
        progressed = True
        if not isinstance(call, Call):
            _truncate(
                driver, ext,
                f"program yielded {type(call).__name__}, not an MPI call",
            )
            return progressed
        try:
            _step(driver, call, ext, waves)
        except Exception as exc:  # malformed call (e.g. empty waitall)
            _truncate(driver, ext, f"invalid MPI call: {exc}")
    return progressed


def _truncate(driver: _RankDriver, ext: Extraction, message: str) -> None:
    driver.done = True
    ext.truncated.add(driver.rank)
    ext.exact = False
    ext.wildcard_exact = False
    ext.notes.append(
        CheckFinding(
            check="static-extraction",
            severity=Severity.WARNING,
            rank=driver.rank,
            message=message,
            op=driver.ops[-1].ref if driver.ops else None,
            location=driver.ops[-1].location if driver.ops else "",
        )
    )


def _step(
    driver: _RankDriver,
    call: Call,
    ext: Extraction,
    waves: Dict[int, _WaveState],
) -> None:
    """Record one call and stub its result (mirrors the engine)."""
    kind = call.kind
    if kind in (OpKind.SEND_INIT, OpKind.RECV_INIT):
        _record_init(driver, call)
        return
    if kind in (OpKind.PSTART_SEND, OpKind.PSTART_RECV):
        _record_start(driver, call, ext)
        return
    op = _record(driver, call)
    if runtime_steered(kind):
        # The stubbed result may diverge from a real execution.
        ext.exact = False
        ext.wildcard_exact = False
    if op.is_recv() or op.is_probe():
        if op.peer == ANY_SOURCE or op.tag == ANY_TAG:
            # Wildcard statuses are fabricated markers (below); the
            # sequences stay usable for wildcard-aware exploration.
            ext.exact = False

    if op.is_p2p() and op.peer == PROC_NULL:
        driver.inbox = _proc_null_result(driver, op)
        return
    if kind in (OpKind.SEND, OpKind.SSEND, OpKind.BSEND, OpKind.RSEND):
        driver.inbox = None
    elif kind in (OpKind.RECV, OpKind.PROBE):
        # Wildcard envelopes keep their ANY_SOURCE/ANY_TAG markers: the
        # true source/tag is a runtime matching decision, and silently
        # pinning it (to, say, source 0) would fabricate a plausible but
        # wrong value that programs could branch on undetected.
        driver.inbox = Status(op.peer, op.tag, op.nbytes)
    elif kind is OpKind.IPROBE:
        driver.inbox = (False, None)
    elif kind in _ISEND_KINDS:
        driver.inbox = op.request
    elif kind is OpKind.IRECV:
        if op.peer != ANY_SOURCE and op.tag != ANY_TAG:
            driver.recv_requests[op.request] = (op.peer, op.tag)
        driver.inbox = op.request
    elif kind is OpKind.REQUEST_FREE:
        for handle in op.requests:
            info = driver.persistent.get(handle)
            if info is not None and info.active_instance is None:
                del driver.persistent[handle]
        driver.inbox = None
    elif is_completion_kind(kind):
        driver.inbox = _completion_result(driver, op)
    elif kind in _COMM_MGMT:
        _arrive_comm_mgmt(driver, call, op, ext, waves)
    elif is_collective_kind(kind) or kind is OpKind.FINALIZE:
        driver.inbox = None
    else:
        _truncate(driver, ext, f"cannot extract {kind.value}")


def _record(driver: _RankDriver, call: Call) -> Operation:
    request: Optional[int] = None
    if call.kind in _ISEND_KINDS or call.kind is OpKind.IRECV:
        request = driver.next_req
        driver.next_req += 1
    requests = call.requests
    if is_completion_kind(call.kind) and requests:
        requests = _translate_requests(driver, requests)
    op = Operation(
        kind=call.kind,
        rank=driver.rank,
        ts=len(driver.ops),
        comm_id=call.comm.comm_id,
        peer=call.peer,
        tag=call.tag,
        root=call.root,
        request=request,
        requests=requests,
        nbytes=call.nbytes,
        sendrecv_group=call.sendrecv_group,
        location=call.location,
    )
    driver.ops.append(op)
    return op


def _translate_requests(
    driver: _RankDriver, requests: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Map persistent handles to active Start instances (engine rule)."""
    translated = []
    for req in requests:
        info = driver.persistent.get(req)
        if info is not None and info.active_instance is not None:
            translated.append(info.active_instance)
        else:
            translated.append(req)
    return tuple(translated)


def _record_init(driver: _RankDriver, call: Call) -> None:
    handle = driver.next_req
    driver.next_req += 1
    op = Operation(
        kind=call.kind,
        rank=driver.rank,
        ts=len(driver.ops),
        comm_id=call.comm.comm_id,
        peer=call.peer,
        tag=call.tag,
        nbytes=call.nbytes,
        request=handle,
        location=call.location,
    )
    driver.ops.append(op)
    driver.persistent[handle] = _PersistentInfo(
        is_send=call.kind is OpKind.SEND_INIT,
        peer=call.peer,  # type: ignore[arg-type]
        tag=call.tag,
        comm_id=call.comm.comm_id,
        nbytes=call.nbytes,
    )
    driver.inbox = handle


def _record_start(
    driver: _RankDriver, call: Call, ext: Extraction
) -> None:
    handle = call.requests[0] if call.requests else None
    info = driver.persistent.get(handle)
    if info is None:
        _truncate(
            driver, ext,
            f"MPI_Start on unknown persistent request {handle}",
        )
        return
    instance = driver.next_req
    driver.next_req += 1
    kind = OpKind.PSTART_SEND if info.is_send else OpKind.PSTART_RECV
    op = Operation(
        kind=kind,
        rank=driver.rank,
        ts=len(driver.ops),
        comm_id=info.comm_id,
        peer=info.peer,
        tag=info.tag,
        nbytes=info.nbytes,
        request=instance,
        requests=(handle,),
        location=call.location,
    )
    driver.ops.append(op)
    info.active_instance = instance
    if not info.is_send and info.peer not in (ANY_SOURCE, PROC_NULL):
        driver.recv_requests[instance] = (info.peer, info.tag)
    driver.inbox = None


def _proc_null_result(driver: _RankDriver, op: Operation) -> object:
    status = Status(PROC_NULL, ANY_TAG, 0)
    if op.kind is OpKind.IPROBE:
        return (True, status)
    if op.request is not None:
        return op.request
    if op.is_recv() or op.is_probe():
        return status
    return None


def _request_status(driver: _RankDriver, req: int) -> Optional[Status]:
    info = driver.recv_requests.get(req)
    if info is None:
        return None
    peer, tag = info
    return Status(peer, tag, 0)


def _completion_result(driver: _RankDriver, op: Operation) -> object:
    kind = op.kind
    statuses = tuple(_request_status(driver, r) for r in op.requests)
    for req in op.requests:
        for info in driver.persistent.values():
            if info.active_instance == req:
                info.active_instance = None
    if kind is OpKind.WAIT:
        return statuses[0]
    if kind is OpKind.WAITALL:
        return statuses
    if kind is OpKind.WAITANY:
        return (0, statuses[0])
    if kind is OpKind.WAITSOME:
        return (tuple(range(len(statuses))), statuses)
    if kind is OpKind.TEST:
        return (False, None)
    if kind is OpKind.TESTALL:
        return (False, None)
    if kind is OpKind.TESTANY:
        return (False, None, None)
    if kind is OpKind.TESTSOME:
        return ((), ())
    raise AssertionError(kind)


def _arrive_comm_mgmt(
    driver: _RankDriver,
    call: Call,
    op: Operation,
    ext: Extraction,
    waves: Dict[int, _WaveState],
) -> None:
    comm_id = call.comm.comm_id
    wave = waves.get(comm_id)
    if wave is None:
        wave = _WaveState(comm_id)
        waves[comm_id] = wave
    wave.arrived[driver.rank] = call
    driver.parked = True
    group = set(call.comm.group)
    if set(wave.arrived) != group:
        return
    del waves[comm_id]
    _resolve_wave(wave, ext)


def _resolve_wave(wave: _WaveState, ext: Extraction) -> None:
    """All members arrived: compute real communicator results."""
    kinds = {c.kind for c in wave.arrived.values()}
    results: Dict[int, object]
    if len(kinds) != 1:
        # Mismatched wave — the consistency checker reports it; feed
        # None so extraction can continue past the error.
        ext.exact = False
        ext.wildcard_exact = False
        results = {r: None for r in wave.arrived}
    else:
        (kind,) = kinds
        if kind is OpKind.COMM_DUP:
            newcomm = ext.comms.dup(wave.comm_id)
            results = {r: newcomm for r in wave.arrived}
        elif kind is OpKind.COMM_SPLIT:
            colors = {r: c.color for r, c in wave.arrived.items()}
            results = dict(ext.comms.split(wave.comm_id, colors))
        else:  # COMM_CREATE
            groups = {tuple(c.group or ()) for c in wave.arrived.values()}
            if len(groups) != 1:
                ext.exact = False
                ext.wildcard_exact = False
                results = {r: None for r in wave.arrived}
            else:
                (new_group,) = groups
                newcomm = (
                    ext.comms.create(new_group) if new_group else None
                )
                results = {
                    r: (
                        newcomm
                        if newcomm is not None and r in newcomm.group
                        else None
                    )
                    for r in wave.arrived
                }
    # Unpark every member with its result; they resume on the next
    # scheduler pass.
    for rank in wave.arrived:
        drv = _driver_of(ext, rank)
        drv.parked = False
        drv.inbox = results.get(rank)


def _driver_of(ext: Extraction, rank: int) -> _RankDriver:
    # The Extraction's sequences list aliases each driver's op list, so
    # drivers are reachable via a side table kept on the object.
    return ext._drivers[rank]  # type: ignore[attr-defined]
