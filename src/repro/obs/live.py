"""Live telemetry: streaming snapshots of a run in flight.

Post-mortem observability (``--obs-trace`` + ``repro stats``) only
becomes visible after the run ends — a hung analysis looks identical
to a slow one. :class:`LiveMonitor` closes that gap: hooked into the
engine main loop (every N steps), the sharded coordinator's BSP round
loop (every N rounds), and rate-limited by wall clock, it snapshots

* engine progress — ops issued, resume ("canAdvance") flips, per-rank
  dwell since last progress and the op each parked rank blocks in;
* the sharded backend's round/skew/queue-depth data, folded on the
  coordinator from the profiler rows each shard's round reply carries;
* TBON channel counters (sent/delivered totals, backlog, queue depth)
  and tracer drop counts;
* the full :class:`~repro.obs.metrics.MetricsRegistry` snapshot

and streams them as versioned ``repro-live/1`` JSONL documents plus
``on_snapshot`` callbacks (the seam ``repro watch`` — and eventually
``repro serve`` — consume). A :class:`~repro.obs.health.HealthEngine`
evaluates each window and attaches the PROGRESSING / SOFT-HANG /
DEADLOCK-CONFIRMED verdict to every snapshot; the confirmation path
runs only at :meth:`LiveMonitor.finalize`, against the runtime WFG.

Feed layout (one JSON document per line)::

    {"format": "repro-live/1", "kind": "header", ...}
    {"format": "repro-live/1", "kind": "snapshot", "seq": 0, ...}
    ...
    {"format": "repro-live/1", "kind": "final", "verdict": {...}}
"""
from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, IO, List, Mapping, Optional, Sequence, Tuple

from repro.docs import format_tag, parse_format, validate_doc
from repro.obs.health import (
    DEADLOCK_CONFIRMED,
    PROGRESSING,
    SOFT_HANG,
    HealthEngine,
    HealthVerdict,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.util.errors import TraceError

#: Version tag of the live feed documents (registry-owned).
LIVE_FORMAT = format_tag("live")

#: Default engine-step cadence between snapshots.
DEFAULT_EVERY_STEPS = 2048

#: Default BSP-round cadence between backend snapshots.
DEFAULT_EVERY_ROUNDS = 8

#: CLI exit codes per final verdict state (``repro watch``).
EXIT_CODE_OF = {PROGRESSING: 0, SOFT_HANG: 1, DEADLOCK_CONFIRMED: 2}


def _now_us() -> float:
    return time.time() * 1e6


class LiveMonitor:
    """Periodic snapshots of a run, streamed to sinks as they happen.

    Cadence: the engine calls :meth:`tick_engine` every
    ``every_steps`` scheduler steps, the sharded coordinator calls
    :meth:`tick_backend` every ``every_rounds`` BSP rounds, and
    ``min_interval_us`` (wall clock) rate-limits emission on top, so a
    fast run doesn't flood the feed. Sinks: an optional JSONL feed
    file and any number of ``on_snapshot`` callbacks.
    """

    def __init__(
        self,
        *,
        observer: Optional[Observer] = None,
        every_steps: int = DEFAULT_EVERY_STEPS,
        every_rounds: int = DEFAULT_EVERY_ROUNDS,
        min_interval_us: float = 0.0,
        feed_path: Optional[str] = None,
        on_snapshot: Optional[
            Callable[[Dict[str, Any]], None]
        ] = None,
        health: Optional[HealthEngine] = None,
    ) -> None:
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.every_steps = max(1, int(every_steps))
        self.every_rounds = max(1, int(every_rounds))
        self.min_interval_us = float(min_interval_us)
        self.health = health if health is not None else HealthEngine()
        self.feed_path = feed_path
        self._fh: Optional[IO[str]] = None
        self._callbacks: List[Callable[[Dict[str, Any]], None]] = []
        if on_snapshot is not None:
            self._callbacks.append(on_snapshot)
        self.seq = 0
        self.num_ranks: Optional[int] = None
        self.snapshots: List[Dict[str, Any]] = []
        self.final_verdict: Optional[HealthVerdict] = None
        self._last_emit_us = 0.0
        self._closed = False

    # -- sink management --------------------------------------------------

    def _write_line(self, doc: Mapping[str, Any]) -> None:
        if self.feed_path is None:
            return
        if self._fh is None:
            self._fh = open(self.feed_path, "w", encoding="utf-8")
            header = {
                "format": LIVE_FORMAT,
                "kind": "header",
                "every_steps": self.every_steps,
                "every_rounds": self.every_rounds,
                "ranks": self.num_ranks,
                "ts_us": _now_us(),
            }
            self._fh.write(json.dumps(header) + "\n")
        self._fh.write(json.dumps(doc) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    # -- hook points ------------------------------------------------------

    def attach_engine(self, num_ranks: int) -> None:
        """The engine announces itself before its main loop starts."""
        self.num_ranks = num_ranks

    def tick_engine(self, sample: Mapping[str, Any]) -> None:
        """One engine-phase snapshot (sample from ``Engine``)."""
        self._emit("engine", "engine", dict(sample))

    def tick_backend(self, sample: Mapping[str, Any]) -> None:
        """One backend-phase snapshot (sample from the coordinator)."""
        self._emit("backend", "backend", dict(sample))

    # -- snapshot assembly ------------------------------------------------

    def _tbon_section(self) -> Dict[str, Any]:
        metrics = self.observer.metrics
        sent = metrics.counter("tbon.sent_total").value
        delivered = metrics.counter("tbon.delivered_total").value
        return {
            "sent": sent,
            "delivered": delivered,
            "backlog": max(0, sent - delivered),
            "queue_depth": metrics.gauge("tbon.queue_depth").value,
            "dropped": metrics.counter("tbon.dropped").value,
        }

    def _tracer_section(self) -> Dict[str, Any]:
        tracer = self.observer.tracer
        return {
            "events": len(getattr(tracer, "events", ())),
            "dropped": getattr(tracer, "dropped", 0),
        }

    def _emit(
        self, phase: str, section: str, sample: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if self._closed:
            return None
        now = _now_us()
        if (
            self.min_interval_us > 0.0
            and self.snapshots
            and now - self._last_emit_us < self.min_interval_us
        ):
            return None
        self._last_emit_us = now
        doc: Dict[str, Any] = {
            "format": LIVE_FORMAT,
            "kind": "snapshot",
            "seq": self.seq,
            "ts_us": now,
            "phase": phase,
            section: sample,
            "tbon": self._tbon_section(),
            "tracer": self._tracer_section(),
            "metrics": self.observer.metrics.snapshot(),
        }
        self.seq += 1
        verdict = self.health.evaluate(doc)
        doc["health"] = verdict.to_json()
        self.snapshots.append(doc)
        self._write_line(doc)
        for callback in self._callbacks:
            callback(doc)
        return doc

    # -- finalization -----------------------------------------------------

    def finalize(
        self,
        *,
        run: Optional[Any] = None,
        outcome: Optional[Any] = None,
        events: Optional[Sequence[Any]] = None,
    ) -> HealthVerdict:
        """Compute the terminal verdict, stream the final document,
        and close the feed. Idempotent: a second call returns the
        stored verdict."""
        if self.final_verdict is not None:
            return self.final_verdict
        if events is None and self.observer.enabled:
            events = list(self.observer.tracer.events)
        verdict = self.health.finalize(
            run=run,
            outcome=outcome,
            events=events,
            num_ranks=self.num_ranks,
        )
        self.final_verdict = verdict
        doc = {
            "format": LIVE_FORMAT,
            "kind": "final",
            "seq": self.seq,
            "ts_us": _now_us(),
            "windows": self.health.windows,
            "verdict": verdict.to_json(),
        }
        self._write_line(doc)
        for callback in self._callbacks:
            callback(doc)
        self.close()
        return verdict

    def exit_code(self) -> int:
        """The ``repro watch`` exit code of the final verdict."""
        verdict = self.final_verdict
        if verdict is None:
            return 0
        return EXIT_CODE_OF.get(verdict.state, 0)


# ---------------------------------------------------------------------------
# feed loading (repro watch / repro stats on an artifact)
# ---------------------------------------------------------------------------


def is_live_artifact(path: str) -> bool:
    """Does ``path`` claim to be a ``repro-live/*`` JSONL feed?

    Any version claim counts — including versions this loader does not
    support — so dispatchers route the file here and
    :func:`load_live_feed` diagnoses the unsupported version with a
    ``file:line`` message (exit 2) instead of misparsing the feed as
    some other artifact kind.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    return False
                parsed = parse_format(doc.get("format"))
                return parsed is not None and parsed[0] == "live"
    except (OSError, ValueError):
        return False
    return False


def load_live_feed(
    path: str,
) -> Tuple[
    Dict[str, Any], List[Dict[str, Any]], Optional[Dict[str, Any]]
]:
    """Parse a live feed: ``(header, snapshots, final-or-None)``.

    Raises :class:`~repro.util.errors.TraceError` on malformed lines
    or a non-live document, so the CLI can diagnose the offending
    line (exit 2 for unreadable input, as everywhere else).
    """
    header: Dict[str, Any] = {}
    snapshots: List[Dict[str, Any]] = []
    final: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:
                raise TraceError(
                    f"{path}:{lineno}: malformed feed line: {exc}"
                ) from exc
            # Family + version check with a file:line diagnosis
            # (DocError is a TraceError; unknown versions exit 2).
            validate_doc(doc, "live", path=path, lineno=lineno)
            kind = doc.get("kind")
            if kind == "header":
                header = doc
            elif kind == "snapshot":
                snapshots.append(doc)
            elif kind == "final":
                final = doc
            else:
                raise TraceError(
                    f"{path}:{lineno}: unknown feed record kind {kind!r}"
                )
    if not header and not snapshots and final is None:
        raise TraceError(f"{path}: empty live feed")
    return header, snapshots, final


def feed_exit_code(final: Optional[Mapping[str, Any]]) -> int:
    """Map a loaded feed's final verdict onto the watch exit code."""
    if final is None:
        return 0
    state = (final.get("verdict") or {}).get("state", PROGRESSING)
    return EXIT_CODE_OF.get(state, 0)


# ---------------------------------------------------------------------------
# rendering (repro watch / repro stats)
# ---------------------------------------------------------------------------


def _snapshot_row(doc: Mapping[str, Any]) -> Tuple[str, ...]:
    health = doc.get("health") or {}
    engine = doc.get("engine") or {}
    backend = doc.get("backend") or {}
    if doc.get("phase") == "engine":
        progress = f"step {engine.get('steps', '?')}"
        parked = len(engine.get("dwell_steps") or {})
        dwell = max(
            (engine.get("dwell_steps") or {}).values(), default=0
        )
        detail = f"parked {parked}, max dwell {int(dwell)}"
    else:
        progress = f"round {backend.get('round', '?')}"
        skew = backend.get("skew")
        detail = (
            f"skew {skew:.2f}x" if isinstance(skew, float) else "-"
        )
    suspects = ",".join(str(r) for r in health.get("suspects", ())) or "-"
    return (
        str(doc.get("seq", "?")),
        str(doc.get("phase", "?")),
        progress,
        detail,
        str(health.get("state", "?")),
        suspects,
    )


def render_health_table(doc: Mapping[str, Any]) -> List[str]:
    """One snapshot window as a refreshing-table block (watch mode)."""
    lines: List[str] = []
    if doc.get("kind") == "final":
        verdict = doc.get("verdict") or {}
        lines.append(
            f"final verdict: {verdict.get('state', '?')}"
            + (
                f" (roots {tuple(verdict.get('roots'))})"
                if verdict.get("roots")
                else ""
            )
        )
        for reason in verdict.get("reasons", ()):
            lines.append(f"  {reason}")
        for hop in verdict.get("blame_chain", ()):
            lines.append(f"  chain: {hop}")
        return lines
    seq, phase, progress, detail, state, suspects = _snapshot_row(doc)
    tbon = doc.get("tbon") or {}
    tracer = doc.get("tracer") or {}
    lines.append(
        f"[{seq:>4}] {phase:<8} {progress:<14} {detail:<28} "
        f"{state:<18} suspects: {suspects}"
    )
    health = doc.get("health") or {}
    for reason in health.get("reasons", ()):
        lines.append(f"       {reason}")
    if tbon.get("backlog") or tracer.get("dropped"):
        lines.append(
            f"       tbon backlog {tbon.get('backlog', 0)}, "
            f"tracer dropped {tracer.get('dropped', 0)}"
        )
    return lines


def render_health_timeline(
    snapshots: Sequence[Mapping[str, Any]],
    final: Optional[Mapping[str, Any]] = None,
) -> List[str]:
    """The health timeline table (``repro stats`` on a live feed)."""
    lines: List[str] = []
    lines.append("-- health timeline --")
    if not snapshots:
        lines.append("  (no snapshots recorded)")
    else:
        lines.append(
            f"{'seq':>5} {'phase':<8} {'progress':<14} "
            f"{'detail':<28} {'state':<18} {'suspects':<12}"
        )
        for doc in snapshots:
            seq, phase, progress, detail, state, suspects = (
                _snapshot_row(doc)
            )
            lines.append(
                f"{seq:>5} {phase:<8} {progress:<14} {detail:<28} "
                f"{state:<18} {suspects:<12}"
            )
    if final is not None:
        lines.append("")
        lines += render_health_table(final)
    return lines
