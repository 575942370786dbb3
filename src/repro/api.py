"""The one driver: :class:`AnalysisConfig` + :class:`Session`.

One object carries the knobs that used to be scattered across
``run_programs`` / ``analyze_trace`` / ``detect_deadlocks_distributed``
keyword lists, and one session object runs the whole pipeline with
them::

    from repro import AnalysisConfig, Session

    config = AnalysisConfig(backend="sharded", shards=4, fan_in=8)
    with Session(config) as session:
        run = session.record(programs)        # virtual-runtime execution
        outcome = session.analyze(run)        # distributed detection
        if outcome.has_deadlock:
            print(outcome.detection.blame)

Everything that runs the tool goes through it: ``repro record``,
``analyze``, ``demo``, ``watch`` and live-mode ``blame`` build a session
from their flags and every ``repro serve`` job runs on its worker's
(DESIGN.md §12 lists what deliberately stays outside, and why).

The session owns the observer (one metrics registry + tracer across
record, analyze, verify, and blame calls) and exports the configured
observability sinks once, on :meth:`Session.export` (or on leaving the
``with`` block). Sessions are reusable: starting a new record/analyze
cycle resets the per-run observability state (fresh tracer, metrics,
and flight-recorder rings) so back-to-back jobs — the ``repro serve``
worker pool runs many jobs through one session per worker — never see
each other's events. :meth:`Session.close` releases backend resources
on teardown.

Importing this module loads the inline tool only: the virtual runtime
comes with the first :meth:`Session.record`, the sharded backend and
the live monitor when the config asks for them.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple, Union

from repro.backend.base import AnalysisBackend, DEFAULT_SHARDS, make_backend
from repro.core.detector import DistributedOutcome
from repro.mpi.blocking import BlockingSemantics
from repro.mpi.trace import MatchedTrace
from repro.obs.flight import NULL_FLIGHT_RECORDER, FlightRecorder
from repro.obs.observer import Observer, make_observer

if TYPE_CHECKING:
    from repro.obs.causal import BlameReport
    from repro.obs.health import HealthVerdict
    from repro.obs.live import LiveMonitor
    from repro.runtime import RunResult


def _run_programs(programs: Sequence[Any], **options: Any) -> "RunResult":
    """:func:`repro.runtime.run_programs`, loaded with the first run."""
    from repro.runtime import run_programs

    return run_programs(programs, **options)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a :class:`Session` needs, in one value object.

    Execution: ``semantics`` (None = the runtime's relaxed default),
    ``seed``, ``max_steps``. Analysis: ``fan_in``, ``window_limit``,
    ``backend`` (``"inline"`` or ``"sharded"``) with ``shards``,
    ``detect_at`` (mid-run detection timeouts in simulated seconds —
    inline backend only) and ``detect_at_end``. Observability:
    ``observe`` turns on metrics + tracing, ``trace_out`` /
    ``jsonl_out`` name export sinks (either implies ``observe``),
    ``trace_limit`` caps recorded events (None = tracer default;
    sharded workers inherit the cap), and ``flight`` keeps the
    always-on flight recorder. Live telemetry: ``live`` attaches a
    :class:`~repro.obs.live.LiveMonitor` (implies ``observe``) with
    snapshot cadences ``live_every_steps`` (engine) and
    ``live_every_rounds`` (sharded BSP rounds); ``live_out`` streams
    the ``repro-live/1`` JSONL feed to a file (implies ``live``).
    """

    semantics: Optional[BlockingSemantics] = None
    seed: int = 0
    max_steps: int = 10_000_000
    fan_in: int = 4
    window_limit: int = 1_000_000
    generate_outputs: bool = True
    backend: str = "inline"
    shards: int = DEFAULT_SHARDS
    detect_at: Tuple[float, ...] = ()
    detect_at_end: bool = True
    observe: bool = False
    trace_out: Optional[str] = None
    jsonl_out: Optional[str] = None
    trace_limit: Optional[int] = None
    flight: bool = True
    live: bool = False
    live_every_steps: int = 2048
    live_every_rounds: int = 8
    live_out: Optional[str] = None

    def replace(self, **changes: Any) -> "AnalysisConfig":
        return dataclasses.replace(self, **changes)

    @property
    def live_wanted(self) -> bool:
        return bool(self.live or self.live_out)

    @property
    def observability_wanted(self) -> bool:
        return bool(
            self.observe or self.trace_out or self.jsonl_out
            or self.live_wanted
        )

    def build_backend(self) -> AnalysisBackend:
        return make_backend(self.backend, shards=self.shards)


class Session:
    """A configured analysis pipeline: record, analyze, verify, blame.

    Construct with an :class:`AnalysisConfig`, keyword overrides, or
    both (overrides win)::

        Session(AnalysisConfig(fan_in=8), backend="sharded")

    All methods share the session's observer and flight recorder, so a
    record + analyze pair lands in one unified trace artifact.
    """

    def __init__(
        self, config: Optional[AnalysisConfig] = None, **overrides: Any
    ) -> None:
        # on_snapshot is a callable, not config state: pulled out before
        # the (frozen, comparable) config absorbs the overrides.
        on_snapshot = overrides.pop("on_snapshot", None)
        config = config or AnalysisConfig()
        if overrides:
            config = config.replace(**overrides)
        self.config = config
        self.backend = config.build_backend()
        self._on_snapshot = on_snapshot
        self.observer: Observer
        self.flight: FlightRecorder
        self.live: Optional[LiveMonitor]
        self._build_observability()
        self.last_run: Optional[RunResult] = None
        self.last_outcome: Optional[DistributedOutcome] = None
        self.last_verdict: Optional[HealthVerdict] = None
        self._exported = False

    def _build_observability(self) -> None:
        """(Re)create the per-run observer, flight recorder, and live
        monitor from the session config."""
        config = self.config
        if config.observability_wanted and config.trace_limit is not None:
            from repro.obs.tracer import Tracer

            self.observer = Observer(tracer=Tracer(limit=config.trace_limit))
        else:
            self.observer = make_observer(config.observability_wanted)
        self.flight = (
            FlightRecorder() if config.flight else NULL_FLIGHT_RECORDER
        )
        self.live = None
        if config.live_wanted:
            from repro.obs.live import LiveMonitor

            self.live = LiveMonitor(
                observer=self.observer,
                every_steps=config.live_every_steps,
                every_rounds=config.live_every_rounds,
                feed_path=config.live_out,
                on_snapshot=self._on_snapshot,
            )

    def reset(self) -> "Session":
        """Drop per-run state so the session can take a fresh job.

        A fresh tracer, metrics registry, and flight-recorder rings
        replace the previous run's (pin counters return to zero);
        ``last_run``/``last_outcome``/``last_verdict`` clear and
        :meth:`export` re-arms. A configured ``live_out`` feed is
        closed and restarts on the next run. Called automatically when
        :meth:`record` (or :meth:`analyze` on an unrelated trace)
        starts a new cycle; the ``repro serve`` worker pool calls it
        between jobs.
        """
        if self.live is not None:
            self.live.close()
        self._build_observability()
        self.last_run = None
        self.last_outcome = None
        self.last_verdict = None
        self._exported = False
        return self

    def _starts_new_cycle(
        self, trace: Union[MatchedTrace, RunResult, None]
    ) -> bool:
        """Does analyzing ``trace`` begin a new job on a used session?

        Re-analysis of the session's own current run (``trace is None``,
        the last :class:`RunResult`, or its matched trace) continues the
        current cycle and keeps its observability state.
        """
        if self.last_outcome is None or trace is None:
            return False
        if trace is self.last_run:
            return False
        return self.last_run is None or trace is not self.last_run.matched

    # -- pipeline stages -------------------------------------------------

    def record(
        self, programs: Sequence[Any], *, seed: Optional[int] = None
    ) -> RunResult:
        """Execute rank programs on the virtual runtime.

        On a session that already holds a run, this starts a new cycle:
        :meth:`reset` runs first so the previous job's events never
        bleed into this one's artifacts.
        """
        if self.last_run is not None or self.last_outcome is not None:
            self.reset()
        result = _run_programs(
            programs,
            semantics=self.config.semantics,
            seed=self.config.seed if seed is None else seed,
            max_steps=self.config.max_steps,
            observer=self.observer,
            flight=self.flight,
            live=self.live,
        )
        self.last_run = result
        return result

    def analyze(
        self, trace: Union[MatchedTrace, RunResult, None] = None
    ) -> DistributedOutcome:
        """Run distributed deadlock detection on a matched trace.

        Accepts a :class:`MatchedTrace`, a :class:`RunResult` (its
        matched trace is used), or nothing (the most recent
        :meth:`record` result). Handing a trace unrelated to the
        session's current run to a session that already produced an
        outcome starts a new cycle (see :meth:`reset`); re-analyzing
        the current run keeps its observability state.
        """
        if self._starts_new_cycle(trace):
            self.reset()
        if trace is None:
            if self.last_run is None:
                raise ValueError("nothing to analyze: record a run first")
            trace = self.last_run
        matched = trace if isinstance(trace, MatchedTrace) else trace.matched
        outcome = self.backend.run(
            matched,
            fan_in=self.config.fan_in,
            seed=self.config.seed,
            window_limit=self.config.window_limit,
            generate_outputs=self.config.generate_outputs,
            observer=self.observer,
            flight=self.flight,
            detect_at=self.config.detect_at,
            detect_at_end=self.config.detect_at_end,
            live=self.live,
        )
        self.last_outcome = outcome
        return outcome

    def run(self, programs: Sequence[Any]) -> DistributedOutcome:
        """Record + analyze in one call."""
        return self.analyze(self.record(programs))

    def verify(
        self,
        path: str,
        *,
        ranks: int = 4,
        max_states: int = 200_000,
        max_depth: int = 1_000_000,
        por: bool = True,
        replay: bool = False,
    ):
        """Bounded wildcard-aware verification of a rank-program file
        (see :func:`repro.analysis.verify_path`); exploration counters
        land in the session's metrics."""
        from repro.analysis import verify_path

        return verify_path(
            path,
            ranks=ranks,
            max_states=max_states,
            max_depth=max_depth,
            por=por,
            replay=replay,
            metrics=self.observer.metrics if self.observer.enabled else None,
        )

    def blame(
        self, run: Union[str, Sequence[Any]], *, ranks: int = 4
    ) -> Tuple["BlameReport", Optional[DistributedOutcome]]:
        """Wait-state blame analysis. Returns ``(report, outcome)``.

        ``run`` is a recorded artifact (``outcome`` is None), a
        rank-program ``.py`` file (its one job, as ``repro lint`` reads
        it: :mod:`repro.programfile`; ``ranks`` is its default world
        size) or what :meth:`run` accepts. Programs go through
        :meth:`run` and are blamed from what this session's tracer saw;
        a session that does not observe runs them on a sibling that
        does, on the same backend.
        """
        from repro.obs.blame import blame_artifact, load_programs
        from repro.obs.causal import analyze_events

        if isinstance(run, str):
            if not run.endswith(".py"):
                return blame_artifact(run), None
            run = load_programs(run, ranks)
        session = self
        if not self.observer.enabled:
            session = Session(self.config, observe=True)
            session.backend = self.backend
        outcome = self.last_outcome = session.run(run)
        report = analyze_events(
            list(session.observer.tracer.events), num_ranks=len(run)
        )
        return report, outcome

    # -- observability export --------------------------------------------

    def metrics_snapshot(self) -> dict:
        return self.observer.metrics.snapshot()

    def finalize_live(self) -> Optional[HealthVerdict]:
        """Close the live feed with the terminal health verdict.

        ``DEADLOCK-CONFIRMED`` can only come out of here — it requires
        the detector outcome's wait-for graph. Idempotent; returns None
        when the session has no live monitor.
        """
        if self.live is None:
            return None
        verdict = self.live.finalize(
            run=self.last_run, outcome=self.last_outcome
        )
        self.last_verdict = verdict
        return verdict

    def export(self, **metadata: Any) -> None:
        """Write the configured observability sinks (idempotent).

        The run metadata of :func:`repro.obs.exporters.export_run` is
        read off the last outcome and run; ``metadata`` adds what the
        session cannot know: the ``workload`` name, and ``deadlocked``
        and ``ranks`` of a verdict reached outside it (the CLI's
        centralized reference).
        """
        if self._exported or not self.observer.enabled:
            return
        self._exported = True
        self.finalize_live()
        from repro.obs.exporters import export_run

        outcome, run = self.last_outcome, self.last_run
        if outcome is not None:
            metadata.setdefault("deadlocked", outcome.has_deadlock)
            metadata.setdefault("ranks", outcome.topology.num_ranks)
        elif run is not None:
            metadata.setdefault("ranks", run.trace.num_processes)
        export_run(
            self.observer,
            trace_out=self.config.trace_out,
            jsonl_out=self.config.jsonl_out,
            profile=self.backend.last_profile,
            **metadata,
        )

    def close(self) -> None:
        """Export the configured sinks and release backend resources.

        Idempotent; after closing, the session can still be reused
        (:meth:`record` rebuilds its per-run state) because both
        built-in backends start their workers per run.
        """
        self.export()
        if self.live is not None:
            self.live.close()
        self.backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.backend.close()
