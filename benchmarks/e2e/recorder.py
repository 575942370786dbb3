"""Span recorder for the traced run.

Spans are taken from outside ``src/``: :meth:`Recorder.patched`
rebinds the public functions one layer calls another through (the
names in :data:`PATCH_POINTS`) to wrappers that open a span, and puts
the originals back afterwards. Untraced samples therefore run the
program's own code with nothing in the way. Spans stay in memory;
:func:`write_chrome_trace` writes them out when the benchmark ends.

What the outside view cannot split: the TBON event loop
(``Network.run``) calls the first-layer handlers, so delivery and
tracking time are one span (``core.detector_run``); ``tbon.msgs_per_s``
prices delivery on its own with a bare network.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class or None, attribute, span name). A span's layer is the
#: part of its name before the first dot.
PATCH_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.api", None, "_run_programs", "runtime.run_programs"),
    ("repro.backend.base", "InlineBackend", "run", "backend.inline_run"),
    ("repro.backend.sharded", "ShardedBackend", "run", "backend.sharded_run"),
    ("repro.core.detector", "DistributedDeadlockDetector", "run",
     "core.detector_run"),
    ("repro.core.treenodes", "WaitForGraph", "from_conditions", "wfg.build"),
    ("repro.core.treenodes", None, "detect_deadlock", "wfg.check"),
    ("repro.core.treenodes", None, "render_dot", "wfg.render_dot"),
    ("repro.core.treenodes", None, "render_html_report", "wfg.render_html"),
    ("repro.core.treenodes", None, "render_json_report", "wfg.render_json"),
    ("repro.obs.causal", None, "blame_chain", "obs.blame_chain"),
    ("repro.analysis", None, "verify_path", "analysis.verify_path"),
    ("repro.analysis.driver", None, "extract_programs", "analysis.extract"),
    ("repro.analysis.driver", None, "explore_extraction", "analysis.explore"),
    ("repro.analysis.driver", None, "decide_extraction", "analysis.fastpath"),
    ("repro.analysis.driver", None, "replay_witness",
     "analysis.witness_replay"),
)

#: Name of the span a workload's timed call runs under; its self time
#: is what no layer accounts for.
ROOT_SPAN = "verdict"


class Recorder:
    """In-memory spans with per-thread nesting."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        record: Dict[str, Any] = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "seed": self.seed,
            "thread": threading.get_ident(),
            "args": args,
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter taken at a layer boundary."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self) -> Iterator[None]:
        """Route every :data:`PATCH_POINTS` call through a span."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for module, cls, attr, name in PATCH_POINTS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
            yield
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- reading the spans -------------------------------------------------

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span["end"] - span["start"]

    def children(self, span_id: int) -> List[int]:
        return [s["id"] for s in self.spans if s["parent"] == span_id]

    def self_time(self, span_id: int) -> float:
        """The span's duration minus what its child spans cover."""
        return self.duration(span_id) - sum(
            self.duration(child) for child in self.children(span_id)
        )

    def layer_self_times(self, root_id: int) -> Dict[str, float]:
        """Self time per layer over the subtree under ``root_id``; the
        root's own self time is filed under its own name."""
        totals: Dict[str, float] = {}
        todo = [root_id]
        while todo:
            span_id = todo.pop()
            layer = self.spans[span_id]["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self.self_time(span_id)
            todo.extend(self.children(span_id))
        return totals

    def roots(self, name: str = ROOT_SPAN) -> List[int]:
        return [s["id"] for s in self.spans if s["name"] == name]

    def export(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counts": self.counts}


def chrome_events(exports: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Chrome ``trace_event`` records: one process per workload, one
    complete ("X") event per span, one counter ("C") event per count."""
    events: List[Dict[str, Any]] = []
    for pid, export in enumerate(exports, start=1):
        spans = export["spans"]
        if not spans:
            continue
        origin = min(s["start"] for s in spans)
        events.append({
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": spans[0]["workload"]},
        })
        for span in spans:
            events.append({
                "ph": "X",
                "pid": pid,
                "tid": span["thread"] % 100000,
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "workload": span["workload"],
                    "seed": span["seed"],
                    **span["args"],
                },
            })
        last = max(s["end"] for s in spans)
        for name, value in sorted(export["counts"].items()):
            events.append({
                "ph": "C", "pid": pid, "name": name,
                "ts": (last - origin) * 1e6, "args": {"value": value},
            })
    return events


def write_chrome_trace(path: str, exports: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": chrome_events(exports), "displayTimeUnit": "ms"},
            handle,
        )
        handle.write("\n")
