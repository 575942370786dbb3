"""Execution backends for the distributed analysis.

A backend takes a matched trace and produces a
:class:`~repro.core.detector.DistributedOutcome` by running the
first-layer wait-state trackers, the TBON aggregation layers, and the
Section 5 detection protocol. Two implementations exist:

* :class:`InlineBackend` — everything on one deterministic simulated
  network in the calling process (the default; byte-for-byte the
  behaviour of :class:`repro.core.detector.DistributedDeadlockDetector`);
* :class:`~repro.backend.sharded.ShardedBackend` — first-layer nodes
  partitioned across ``multiprocessing`` workers, exchanging batched
  protocol messages, with WFG construction still centralized at the
  coordinator's root node.

Both yield identical verdicts, wait-for graphs, and blame roots for
the same trace (pinned by ``tests/property/test_backend_equivalence``);
they differ only in wall-clock behaviour and in which clock stamps the
observability events.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.detector import (
    DistributedDeadlockDetector,
    DistributedOutcome,
)
from repro.mpi.trace import MatchedTrace
from repro.obs.flight import FlightRecorder
from repro.obs.observer import Observer
from repro.tbon.network import LatencyModel

if TYPE_CHECKING:
    from repro.obs.live import LiveMonitor

#: Default shard count for the sharded backend.
DEFAULT_SHARDS = 2


class AnalysisBackend:
    """Common interface of the analysis execution backends."""

    name = "abstract"

    #: The ``repro-profile/1`` document of the last observed run, when
    #: the backend profiles itself (the sharded backend populates this
    #: on every run with an enabled observer; inline runs leave None).
    last_profile: Optional[dict] = None

    def run(
        self,
        matched: MatchedTrace,
        *,
        fan_in: int = 4,
        seed: int = 0,
        window_limit: int = 1_000_000,
        generate_outputs: bool = True,
        observer: Optional[Observer] = None,
        flight: Optional[FlightRecorder] = None,
        latency_model: Optional[LatencyModel] = None,
        detect_at: Sequence[float] = (),
        detect_at_end: bool = True,
        live: Optional[LiveMonitor] = None,
    ) -> DistributedOutcome:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def close(self) -> None:
        """Release resources held across runs (idempotent).

        Both built-in backends start and join their workers inside
        :meth:`run`, so this is a no-op for them; long-lived holders
        (the ``repro serve`` worker pool, ``Session.close``) still
        call it on teardown so backends with persistent state get a
        shutdown point.
        """
        return None


class InlineBackend(AnalysisBackend):
    """The single-process simulated-network backend (default)."""

    name = "inline"

    def run(
        self,
        matched: MatchedTrace,
        *,
        fan_in: int = 4,
        seed: int = 0,
        window_limit: int = 1_000_000,
        generate_outputs: bool = True,
        observer: Optional[Observer] = None,
        flight: Optional[FlightRecorder] = None,
        latency_model: Optional[LatencyModel] = None,
        detect_at: Sequence[float] = (),
        detect_at_end: bool = True,
        live: Optional[LiveMonitor] = None,
    ) -> DistributedOutcome:
        detector = DistributedDeadlockDetector(
            matched,
            fan_in=fan_in,
            seed=seed,
            latency_model=latency_model,
            window_limit=window_limit,
            generate_outputs=generate_outputs,
            observer=observer,
            flight=flight,
        )
        outcome = detector.run(
            detect_at=detect_at, detect_at_end=detect_at_end
        )
        if live is not None:
            # The inline backend has no BSP rounds: one snapshot after
            # the detector run keeps the feed's backend phase populated.
            live.tick_backend(
                {"round": 0, "shards": 1, "pending": [], "skew": None}
            )
        return outcome


def make_backend(
    name: str, *, shards: int = DEFAULT_SHARDS
) -> AnalysisBackend:
    """Backend factory keyed by CLI/config name."""
    if name == "inline":
        return InlineBackend()
    if name == "sharded":
        from repro.backend.sharded import ShardedBackend

        return ShardedBackend(shards=shards)
    raise ValueError(
        f"unknown analysis backend {name!r} (choose 'inline' or 'sharded')"
    )
