"""The ``repro serve`` wire protocol: newline-delimited JSON envelopes.

Every line on the socket is one JSON object tagged with the
``repro-serve/1`` format from the :mod:`repro.docs` registry, in one of
three kinds::

    {"format": "repro-serve/1", "kind": "request",  "id": "c1", "op": "submit", ...}
    {"format": "repro-serve/1", "kind": "response", "id": "c1", "ok": true,  "result": {...}}
    {"format": "repro-serve/1", "kind": "event",    "id": "c1", "event": {...}}

Requests carry a client-chosen ``id`` echoed on every response and
event, so one connection can interleave operations. ``watch`` streams
``event`` envelopes (each wrapping a ``repro-live/1`` window) and ends
with a normal ``response``. Failures come back as
``{"ok": false, "error": {code, message, retryable, retry_after}}`` —
``retryable`` distinguishes backpressure (over-quota, queue-full,
draining: try again after ``retry_after`` seconds) from caller errors.
"""
from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.docs import DocError, format_tag, validate_doc
from repro.util.errors import ReproError

SERVE_FORMAT = format_tag("serve")

#: Longest request line a connection may send. An uploaded trace is one
#: line: a recorded stress ring costs about 8 KB per rank, so asyncio's
#: 64 KiB default refused anything over 7 ranks; this admits thousands.
#: A longer line is answered with a fatal ``bad-request`` under id ``-``.
MAX_REQUEST_BYTES = 64 * 1024 * 1024

#: Operations the service dispatches.
OPS = (
    "submit",
    "status",
    "result",
    "cancel",
    "jobs",
    "stats",
    "metrics",
    "watch",
    "ping",
    "shutdown",
)

#: Error codes and whether a client should retry them later.
RETRYABLE_CODES = frozenset({"over-quota", "queue-full", "draining"})
#: ``connection-closed`` is raised by the client, never sent: the peer
#: went away before answering, so the request may or may not have been
#: admitted and a blind retry could run it twice.
FATAL_CODES = frozenset(
    {
        "bad-request",
        "unknown-op",
        "not-found",
        "not-done",
        "job-failed",
        "connection-closed",
    }
)
ERROR_CODES = RETRYABLE_CODES | FATAL_CODES


class ProtocolError(ReproError):
    """A malformed envelope (bad JSON, wrong format tag, unknown op)."""


def make_request(op: str, req_id: str, **fields: Any) -> Dict[str, Any]:
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (known: {', '.join(OPS)})")
    return {
        "format": SERVE_FORMAT,
        "kind": "request",
        "id": req_id,
        "op": op,
        **fields,
    }


def make_response(req_id: str, result: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "format": SERVE_FORMAT,
        "kind": "response",
        "id": req_id,
        "ok": True,
        "result": dict(result),
    }


def make_error(
    req_id: str,
    code: str,
    message: str,
    *,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    error: Dict[str, Any] = {
        "code": code,
        "message": message,
        "retryable": code in RETRYABLE_CODES,
    }
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {
        "format": SERVE_FORMAT,
        "kind": "response",
        "id": req_id,
        "ok": False,
        "error": error,
    }


def make_event(req_id: str, event: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "format": SERVE_FORMAT,
        "kind": "event",
        "id": req_id,
        "event": dict(event),
    }


def encode(envelope: Mapping[str, Any]) -> bytes:
    """One envelope as a newline-terminated JSON line."""
    return (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8")


def parse_envelope(
    line: str, *, lineno: Optional[int] = None
) -> Dict[str, Any]:
    """Decode and validate one wire line into an envelope dict."""
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("envelope must be a JSON object")
    try:
        validate_doc(doc, "serve", lineno=lineno)
    except DocError as exc:
        raise ProtocolError(str(exc)) from exc
    kind = doc.get("kind")
    if kind not in ("request", "response", "event"):
        raise ProtocolError(f"unknown envelope kind {kind!r}")
    if not isinstance(doc.get("id"), str) or not doc["id"]:
        raise ProtocolError("envelope needs a non-empty string 'id'")
    if kind == "request":
        op = doc.get("op")
        if op not in OPS:
            raise ProtocolError(
                f"unknown op {op!r} (known: {', '.join(OPS)})"
            )
    return doc
