"""Static extraction of per-rank operation sequences.

Rank programs are generators, so their operation sequences can be
obtained *without* the engine by driving each generator with stubbed
call results. Each call is recorded by the same
:class:`~repro.runtime.recording.CallRecorder` the engine records
with, so for deterministic programs (no wildcard receives, no
probes/tests whose outcome steers control flow) the extracted
sequences are the sequences the engine records; the
:class:`Extraction` tracks whether that guarantee holds (``exact``).
What is this module's own is the driving: the stubbed results, and
telling the recorder a request completed only where the stub said so.

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
from typing import Any, Callable, Dict, Generator, List, Mapping, Sequence
from typing import Set, Tuple

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
from repro.runtime.recording import (
    NOT_DONE,
    CallRecorder,
    RequestMisuse,
    comm_results,
    proc_null_result,
    request_result,
)
from repro.util.errors import MpiUsageError

#: Comm-management collectives whose results matter structurally.
_COMM_MGMT = frozenset(
    {OpKind.COMM_DUP, OpKind.COMM_SPLIT, OpKind.COMM_CREATE}
)


@dataclass
class Extraction:
    """Result of statically unrolling a program set."""

    sequences: List[List[Operation]]
    comms: CommRegistry
    #: Whether the sequences provably equal what the engine records (no
    #: fabricated result could have steered control flow) — for the
    #: programs the engine runs. One that misuses a persistent request
    #: is refused there (``MpiUsageError``) and extracted here anyway:
    #: ``check_request_typestate`` reports the misuse from the sequence.
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
class _RankDriver:
    recorder: CallRecorder
    gen: Generator[Call, object, object]
    #: Pending result for the next ``gen.send`` (None before first step).
    inbox: object = None
    started: bool = False
    done: bool = False
    parked: bool = False
    #: Receive request id -> the status a Wait on it will fabricate.
    recv_statuses: Dict[int, Status] = field(default_factory=dict)


#: Per parent communicator, the members parked at its pending
#: comm-management wave and the call each arrived with.
_Waves = Dict[int, Dict[int, Tuple[_RankDriver, Call]]]


def extract_programs(
    programs: Sequence[Callable[[Rank], Generator[Call, Any, Any]]],
    *,
    max_ops_per_rank: int = 50_000,
) -> Extraction:
    """Drive ``programs`` with stub results and collect their sequences.

    ``programs`` has the same shape as for
    :func:`repro.runtime.run_programs`: one callable per rank, each
    receiving a :class:`~repro.runtime.program.Rank` handle and
    returning a generator.
    """
    p = len(programs)
    comms = CommRegistry(p)
    drivers = [
        _RankDriver(CallRecorder(i), prog(Rank(i, comms.world)))
        for i, prog in enumerate(programs)
    ]
    ext = Extraction(sequences=[d.recorder.ops for d in drivers],
                     comms=comms, exact=True)
    waves: _Waves = {}

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
            _truncate(
                driver, ext,
                "comm-management collective never completed "
                "during extraction (some group member diverged); "
                "sequence truncated",
            )
    return ext


def _drive_until_park(
    driver: _RankDriver,
    ext: Extraction,
    waves: _Waves,
    max_ops: int,
) -> bool:
    """Advance one rank until it parks, finishes, or errors.

    Returns True when at least one step was taken (progress).
    """
    progressed = False
    ops = driver.recorder.ops
    while not (driver.done or driver.parked):
        if len(ops) >= max_ops:
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
    rank, ops = driver.recorder.rank, driver.recorder.ops
    ext.truncated.add(rank)
    ext.exact = False
    ext.wildcard_exact = False
    ext.notes.append(
        CheckFinding(
            check="static-extraction",
            severity=Severity.WARNING,
            rank=rank,
            message=message,
            op=ops[-1].ref if ops else None,
            location=ops[-1].location if ops else "",
        )
    )


def _step(
    driver: _RankDriver,
    call: Call,
    ext: Extraction,
    waves: _Waves,
) -> None:
    """Record one call and stub the result the program resumes with."""
    try:
        op = driver.recorder.record(call)
    except RequestMisuse as misuse:
        # ``check_request_typestate`` is what tells the user, from the
        # sequence: keep recording while there is something to record.
        if misuse.op is None:
            _truncate(
                driver, ext,
                f"MPI_Start on unknown persistent request "
                f"{call.requests[0]}",
            )
            return
        op = misuse.op
    kind = op.kind
    if runtime_steered(kind):
        # The stubbed result may diverge from a real execution.
        ext.exact = False
        ext.wildcard_exact = False
    if kind.p2p:
        peer, request = op.peer, op.request
        assert peer is not None  # Operation refuses a p2p kind without
        if (kind.recv or kind.probe) and (
            peer == ANY_SOURCE or op.tag == ANY_TAG
        ):
            # Wildcard statuses are fabricated markers (below); the
            # sequences stay usable for wildcard-aware exploration.
            ext.exact = False
        if peer == PROC_NULL:
            driver.inbox = proc_null_result(op)
        elif kind is OpKind.RECV or kind is OpKind.PROBE:
            # Wildcard envelopes keep their ANY_SOURCE/ANY_TAG markers:
            # the true source/tag is a runtime matching decision, and
            # silently pinning it (to, say, source 0) would fabricate a
            # plausible but wrong value that programs could branch on
            # undetected.
            driver.inbox = Status(peer, op.tag, op.nbytes)
        elif kind is OpKind.IPROBE:
            driver.inbox = (False, None)
        elif request is not None:
            # A directed receive request gets a status at its Wait (as
            # found: a started Recv_init with ANY_TAG does, an Irecv
            # with ANY_TAG does not).
            if kind.recv and peer != ANY_SOURCE and (
                kind is OpKind.PSTART_RECV or op.tag != ANY_TAG
            ):
                driver.recv_statuses[request] = Status(peer, op.tag, 0)
            driver.inbox = request_result(op)
    elif kind is OpKind.SEND_INIT or kind is OpKind.RECV_INIT:
        driver.inbox = op.request
    elif is_completion_kind(kind):
        driver.inbox = _completion_result(driver, op)
    elif kind in _COMM_MGMT:
        _arrive_comm_mgmt(driver, call, ext, waves)
    elif not (
        is_collective_kind(kind)
        or kind is OpKind.REQUEST_FREE
        or kind is OpKind.FINALIZE
    ):
        _truncate(driver, ext, f"cannot extract {kind.value}")


def _completion_result(driver: _RankDriver, op: Operation) -> object:
    """The stubbed result, and the requests it reports as done — those
    and no others are completed, or the sequence would name requests
    no run of the program names."""
    kind = op.kind
    if kind.test:
        return NOT_DONE[kind]
    done = op.requests[:1] if kind is OpKind.WAITANY else op.requests
    for req in done:
        driver.recorder.complete(req)
    statuses = tuple(driver.recv_statuses.get(r) for r in op.requests)
    if kind is OpKind.WAIT:
        return statuses[0]
    if kind is OpKind.WAITALL:
        return statuses
    if kind is OpKind.WAITANY:
        return (0, statuses[0])
    return (tuple(range(len(statuses))), statuses)  # WAITSOME


def _arrive_comm_mgmt(
    driver: _RankDriver, call: Call, ext: Extraction, waves: _Waves
) -> None:
    comm_id = call.comm.comm_id
    arrived = waves.setdefault(comm_id, {})
    arrived[driver.recorder.rank] = (driver, call)
    driver.parked = True
    if set(arrived) != set(call.comm.group):
        return
    del waves[comm_id]
    # All members arrived: hand out real communicators. A wave of mixed
    # kinds or of differing Comm_create groups is the consistency
    # checker's to report; everyone gets None so extraction can
    # continue past the error.
    results: Mapping[int, object] = {}
    if len({c.kind for _, c in arrived.values()}) == 1:
        try:
            results = comm_results(
                ext.comms, call.kind, comm_id,
                {
                    r: c.color if c.kind is OpKind.COMM_SPLIT
                    else c.group or ()
                    for r, (_, c) in arrived.items()
                },
            )
        except MpiUsageError:
            pass
    if not results:
        ext.exact = False
        ext.wildcard_exact = False
    # Unpark every member with its result; they resume on the next
    # scheduler pass.
    for rank, (member, _) in arrived.items():
        member.parked = False
        member.inbox = results.get(rank)
