"""Blocking socket client for the ``repro serve`` daemon.

``repro submit`` / ``repro jobs`` and the integration tests speak the
NDJSON protocol through this class; it owns one connection, allocates
request ids, and raises :class:`ServeError` (carrying the protocol
error code and retry hint) on ``ok: false`` responses. ``watch``
yields the streamed ``repro-live/1`` windows as they arrive and
returns the final job document.
"""
from __future__ import annotations

import socket
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.serve import protocol
from repro.util.errors import ReproError


class ServeError(ReproError):
    """An ``ok: false`` response from the daemon, or the connection
    closing before one arrived (code ``connection-closed``)."""

    def __init__(self, error: Dict[str, Any]) -> None:
        super().__init__(error.get("message", "request failed"))
        self.code = error.get("code", "bad-request")
        self.retryable = bool(error.get("retryable"))
        self.retry_after: Optional[float] = error.get("retry_after")


class ServeClient:
    """One connection to a daemon, usable as a context manager."""

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        timeout: Optional[float] = 60.0,
    ) -> None:
        if isinstance(address, str) and "/" in address:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address)
        else:
            if isinstance(address, str):
                host, _, port_text = address.rpartition(":")
                if not _:
                    raise ValueError(
                        f"address {address!r} is neither host:port nor a "
                        "unix socket path"
                    )
                address = (host or "127.0.0.1", int(port_text))
            sock = socket.create_connection(address, timeout=timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0

    # -- plumbing --------------------------------------------------------

    def _read_envelope(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ServeError(
                {
                    "code": "connection-closed",
                    "message": "connection closed before the reply",
                }
            )
        return protocol.parse_envelope(line.decode("utf-8").strip())

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One round trip; returns the ``result`` object."""
        envelope, rid = self._send(op, fields)
        while True:
            reply = self._read_envelope()
            if reply["kind"] == "response" and reply["id"] == "-":
                # The daemon could not read our line at all (not JSON,
                # over its size limit): no id to echo, but it is ours.
                return self._unwrap(reply)
            if reply["id"] != rid or reply["kind"] != "response":
                continue  # stale event from an earlier watch
            return self._unwrap(reply)

    def _send(
        self, op: str, fields: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], str]:
        self._next_id += 1
        rid = f"c{self._next_id}"
        envelope = protocol.make_request(op, rid, **fields)
        self._file.write(protocol.encode(envelope))
        self._file.flush()
        return envelope, rid

    @staticmethod
    def _unwrap(reply: Dict[str, Any]) -> Dict[str, Any]:
        if not reply.get("ok"):
            raise ServeError(reply.get("error", {}))
        return reply.get("result", {})

    # -- operations ------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def submit(
        self,
        *,
        tenant: str = "default",
        workload: Optional[str] = None,
        source: Optional[str] = None,
        trace: Optional[Dict[str, Any]] = None,
        op: str = "analyze",
        ranks: int = 4,
    ) -> str:
        fields: Dict[str, Any] = {
            "tenant": tenant,
            "analysis": op,
            "ranks": ranks,
        }
        if workload is not None:
            fields["workload"] = workload
        if source is not None:
            fields["source"] = source
        if trace is not None:
            fields["trace"] = trace
        return str(self.request("submit", **fields)["job"])

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.request("status", job=job_id)

    def result(
        self, job_id: str, *, wait: bool = True, timeout: float = 300.0
    ) -> Dict[str, Any]:
        return self.request("result", job=job_id, wait=wait, timeout=timeout)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("cancel", job=job_id)

    def jobs(self, *, tenant: Optional[str] = None) -> Dict[str, Any]:
        fields = {} if tenant is None else {"tenant": tenant}
        return self.request("jobs", **fields)

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def metrics(self) -> str:
        return str(self.request("metrics")["text"])

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def watch(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield live windows for a job; the final job document comes
        last under the ``"final"`` key of a one-entry dict."""
        _, rid = self._send("watch", {"job": job_id})
        while True:
            reply = self._read_envelope()
            if reply["id"] != rid:
                continue
            if reply["kind"] == "event":
                yield reply["event"]
                continue
            yield {"final": self._unwrap(reply)}
            return

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
