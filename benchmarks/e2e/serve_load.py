"""A real ``repro serve`` child and the closed-loop two-tenant load.

Closed loop: each tenant thread submits its next job only after the
previous one returned its result, so a slow daemon receives less load
and no queue builds beyond one job per tenant.
"""
from __future__ import annotations

import contextlib
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.client import ServeClient, ServeError

import oracle
from harness import CHILD_TIMEOUT, ROOT, Context
from recorder import ROOT_SPAN, Recorder

_TICK = os.sysconf("SC_CLK_TCK")


class ServeDaemon:
    """``python -m repro serve --no-tcp --unix <sock> --workers 2`` as a
    child process that is always reaped: :meth:`stop` sends SIGTERM
    (the daemon drains and exits), falls back to SIGKILL, and waits."""

    def __init__(self, ctx: Context, workers: int = 2) -> None:
        self.ctx = ctx
        self.workers = workers
        #: Relative to the checkout, which is the cwd of daemon and
        #: clients alike: a Unix socket path is at most 107 bytes.
        self.address = "./" + ctx.rel(ctx.tmp / "serve.sock")
        self.proc: Optional[subprocess.Popen] = None
        self.start_s = 0.0

    def start(self) -> "ServeDaemon":
        """Spawn the daemon; returns once a ``ping`` round-trips."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(ROOT / self.address)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--no-tcp",
                "--unix", self.address, "--workers", str(self.workers),
            ],
            cwd=ROOT,
            env=self.ctx.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited with {self.proc.returncode}"
                    )
                if time.perf_counter() - t0 > CHILD_TIMEOUT:
                    raise RuntimeError("repro serve did not come up")
                try:
                    with self.client() as client:
                        client.ping()
                    break
                except (OSError, ServeError):
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0
        return self

    def client(self) -> ServeClient:
        return ServeClient(self.address, timeout=CHILD_TIMEOUT)

    def cpu_seconds(self) -> float:
        """User + system CPU the daemon has used so far."""
        assert self.proc is not None
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's status")

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass(frozen=True)
class JobKind:
    """One entry of the mix."""

    label: str
    workload: str  # built-in name; also names the known answer
    ranks: int
    ops: int  # operations in the job's matched trace
    trace: Optional[Dict[str, Any]] = None  # uploaded instead of `workload`

    def submit(self, client: ServeClient, tenant: str) -> str:
        if self.trace is not None:
            return client.submit(tenant=tenant, trace=self.trace)
        return client.submit(
            tenant=tenant, workload=self.workload, ranks=self.ranks
        )


@dataclass
class Round:
    """What one pass of both tenants through their job lists gave."""

    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    execs: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    rejected: int = 0
    failures: List[str] = field(default_factory=list)
    ops: int = 0

    @property
    def jobs(self) -> int:
        return len(self.latencies) + len(self.failures)


def job_order(
    kinds: Sequence[JobKind], per_tenant: int, seed: int, tenant: int
) -> List[JobKind]:
    """Equal shares of every kind, in an order the seed fixes."""
    order = [kinds[i % len(kinds)] for i in range(per_tenant)]
    random.Random(seed * 2 + tenant).shuffle(order)
    return order


def _no_span(name: str, **args: Any) -> Any:
    return contextlib.nullcontext()


def run_round(
    clients: Sequence[ServeClient],
    orders: Sequence[Sequence[JobKind]],
    rec: Optional[Recorder] = None,
) -> Round:
    """Both tenants run their lists concurrently, one job in flight
    each. With a recorder, every job is a span with the submit round
    trip and the wait for the result as children."""
    out = Round()
    lock = threading.Lock()
    gate = threading.Barrier(len(clients) + 1)
    spans = rec.span if rec is not None else _no_span

    def tenant_loop(index: int) -> None:
        client, tenant = clients[index], f"tenant{index}"
        gate.wait()
        for kind in orders[index]:
            t0 = time.perf_counter()
            try:
                with spans(ROOT_SPAN, kind=kind.label, tenant=tenant):
                    with spans("serve.submit"):
                        job = kind.submit(client, tenant)
                    with spans("serve.result_wait"):
                        doc = client.result(job)
            except ServeError as exc:
                with lock:
                    out.rejected += exc.retryable
                    out.failures.append(f"{kind.label}: {exc.code}: {exc}")
                continue
            except OSError as exc:  # timed out or lost the daemon
                with lock:
                    out.failures.append(f"{kind.label}: {exc!r}")
                return
            latency = time.perf_counter() - t0
            wrong = oracle.check_job(
                oracle.serve_job(kind.workload, kind.ranks),
                kind.ranks,
                doc.get("result") or {},
            )
            with lock:
                if wrong:
                    out.failures.append(f"{kind.label}: " + "; ".join(wrong))
                    continue
                out.latencies.append(latency)
                out.queue_waits.append(doc["started_at"] - doc["submitted_at"])
                out.execs.append(doc["finished_at"] - doc["started_at"])
                out.kinds.append(kind.label)
                out.ops += kind.ops

    threads = [
        threading.Thread(target=tenant_loop, args=(i,), daemon=True)
        for i in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    out.wall = time.perf_counter() - t0
    return out
