"""Job model and execution for the analysis service.

A :class:`Job` moves through ``queued -> running -> done`` (or
``failed``/``cancelled``). Its :class:`JobSpec` names what to analyze —
a built-in workload, an uploaded rank-program source, or an uploaded
matched-trace document — and which analysis to run (``analyze``,
``verify``, or ``blame``). :func:`execute_job` performs the spec on a
worker process's long-lived :class:`~repro.api.Session`; the session is
reset by ``Session.record``/``reset`` between jobs so nothing leaks
across tenants (pinned by ``tests/unit/test_session_reuse.py``).
"""
from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

# Everything a job runs loads with this module, when the daemon starts
# and before it forks its workers: ``Session.record``/``.verify``/
# ``.blame`` import the runtime and their analyses on first use, a
# worker's session its live monitor, and that import would otherwise sit
# inside the first job of each kind, once per worker process.
import repro.analysis  # noqa: F401
import repro.obs.live  # noqa: F401
from repro.mpi.serialize import matched_trace_from_dict
from repro.obs.blame import blame_document, load_programs
from repro.util.errors import ReproError, TraceError
from repro.workloads.named import NAMED_WORKLOADS

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States from which no further transition happens.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class JobError(ReproError):
    """A job spec the service cannot execute."""


@dataclass(frozen=True)
class JobSpec:
    """What one job analyzes and how.

    ``kind``: ``workload`` (built-in, by name), ``program`` (uploaded
    Python rank-program source, read by :mod:`repro.programfile` like
    any rank-program file), or ``trace``
    (uploaded matched-trace JSON document). ``op``: ``analyze`` runs
    record + distributed detection, ``verify`` the bounded
    wildcard-aware verifier, ``blame`` the wait-state blame analysis
    (both only for program specs).
    """

    kind: str
    op: str = "analyze"
    workload: Optional[str] = None
    ranks: int = 4
    source: Optional[str] = None
    trace: Optional[Dict[str, Any]] = None

    @classmethod
    def from_request(cls, fields: Dict[str, Any]) -> "JobSpec":
        if fields.get("workload"):
            kind = "workload"
        elif fields.get("source") is not None:
            kind = "program"
        elif fields.get("trace") is not None:
            kind = "trace"
        else:
            raise JobError(
                "submit needs one of 'workload', 'source', or 'trace'"
            )
        # The analysis kind travels as "analysis" on the wire; "op" is
        # the envelope operation ("submit").
        op = fields.get("analysis", "analyze")
        if op not in ("analyze", "verify", "blame"):
            raise JobError(f"unknown analysis {op!r}")
        if op != "analyze" and kind != "program":
            raise JobError(f"op {op!r} needs an uploaded program source")
        ranks = fields.get("ranks", 4)
        if not isinstance(ranks, int) or ranks < 1:
            raise JobError("'ranks' must be a positive integer")
        return cls(
            kind=kind,
            op=op,
            workload=fields.get("workload"),
            ranks=ranks,
            source=fields.get("source"),
            trace=fields.get("trace"),
        )

    def describe(self) -> str:
        if self.kind == "workload":
            return f"workload:{self.workload}"
        return f"{self.kind}:{self.op}"


@dataclass
class Job:
    """One unit of service work, with its lifecycle timestamps."""

    id: str
    tenant: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Live-window callbacks registered by ``watch`` subscriptions;
    #: invoked from the slot's thread with each ``repro-live/1`` doc.
    watchers: List[Callable[[Dict[str, Any]], None]] = field(
        default_factory=list
    )
    #: Set when the job reaches a terminal state.
    done: threading.Event = field(default_factory=threading.Event)
    #: Guards state transitions: the slot's queued -> running and
    #: running -> done/failed steps race the event loop's cancel of a
    #: queued or running job and the deadline's kill.
    lock: threading.Lock = field(default_factory=threading.Lock)

    def release_payload(self) -> None:
        """Drop the uploaded source/trace of a terminal job.

        The table keeps every job for ``jobs``/``status``/``result``;
        none of those read the payload, and a daemon that kept it would
        grow by one upload per job served.
        """
        self.spec = replace(self.spec, source=None, trace=None)

    def status_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "job": self.id,
            "tenant": self.tenant,
            "spec": self.spec.describe(),
            "state": self.state,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            doc["started_at"] = self.started_at
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobTable:
    """Thread-safe id -> :class:`Job` registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._next = 0

    def create(self, tenant: str, spec: JobSpec) -> Job:
        with self._lock:
            self._next += 1
            job = Job(id=f"job-{self._next:04d}", tenant=tenant, spec=spec)
            self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def all(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {state: 0 for state in STATES}
            for job in self._jobs.values():
                out[job.state] += 1
        return out


# -- execution ---------------------------------------------------------


def _outcome_doc(outcome: Any) -> Dict[str, Any]:
    deadlocked = list(outcome.deadlocked)
    return {
        "verdict": "deadlock" if outcome.has_deadlock else "clean",
        "deadlocked": deadlocked,
        "num_ranks": outcome.topology.num_ranks,
        "messages_sent": outcome.messages_sent,
        "exit_code": 1 if outcome.has_deadlock else 0,
    }


def _run_program_source(session: Any, spec: JobSpec) -> Dict[str, Any]:
    with tempfile.NamedTemporaryFile(
        "w", suffix=".py", prefix="repro_serve_", encoding="utf-8"
    ) as handle:
        handle.write(spec.source or "")
        handle.flush()
        if spec.op == "verify":
            report = session.verify(handle.name, ranks=spec.ranks)
            verdicts = {
                prog.label: prog.verdict_name for prog in report.programs
            }
            has_deadlock = report.has_deadlock or bool(report.errors())
            return {
                "verdict": "deadlock" if has_deadlock else "clean",
                "programs": verdicts,
                "inconclusive": report.inconclusive,
                "exit_code": (
                    1 if has_deadlock else 2 if report.inconclusive else 0
                ),
            }
        try:
            programs = load_programs(handle.name, spec.ranks)
        except TraceError as exc:
            raise JobError(str(exc)) from exc
        if spec.op == "blame":
            report, outcome = session.blame(programs)
            doc = blame_document(report, source="serve")
            doc["verdict"] = (
                "deadlock" if outcome is not None and outcome.has_deadlock
                else "clean"
            )
            doc["exit_code"] = 1 if doc["root_causes"] else 0
            return doc
        return _outcome_doc(session.run(programs))


def execute_job(session: Any, job: Job) -> Dict[str, Any]:
    """Run ``job`` on a worker's session and return its result doc.

    The session is reset first so the previous job's observability
    state never reaches this job's artifacts or watchers, and the
    live feed is finalized afterwards so every ``watch`` subscription
    receives at least the terminal health window. The caller owns
    state transitions and error recording. A program that calls
    ``sys.exit()`` ends its job, not the worker every later job needs.
    """
    session.reset()
    try:
        return _execute_spec(session, job.spec)
    except SystemExit as exc:
        raise JobError(f"program exited (exit code {exc.code!r})") from None
    finally:
        session.finalize_live()


def _execute_spec(session: Any, spec: JobSpec) -> Dict[str, Any]:
    if spec.kind == "workload":
        build = NAMED_WORKLOADS.get(spec.workload or "")
        if build is None:
            raise JobError(
                f"unknown workload {spec.workload!r} "
                f"(known: {', '.join(sorted(NAMED_WORKLOADS))})"
            )
        return _outcome_doc(session.run(build(spec.ranks)))
    if spec.kind == "program":
        return _run_program_source(session, spec)
    if spec.kind == "trace":
        matched = matched_trace_from_dict(dict(spec.trace or {}))
        return _outcome_doc(session.analyze(matched))
    raise JobError(f"unknown job kind {spec.kind!r}")
