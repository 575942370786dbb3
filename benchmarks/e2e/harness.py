"""Run context and the sampling primitives every workload shares."""
from __future__ import annotations

import gc
import heapq
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

#: The checkout: benchmarks/e2e/harness.py -> two levels up.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PROGRAMS = Path(__file__).resolve().parent / "programs"

#: Scratch space inside the checkout (reports, traces, sockets); the
#: root .gitignore names it.
SCRATCH = ROOT / ".bench_tmp"

#: Longest a single child process (a CLI run, the daemon's start) may
#: take before it counts as failed.
CHILD_TIMEOUT = 120.0

#: Loop steps of the calibration kernel, and what the kernel takes on
#: the 2-core reference box when nothing else runs on it (fastest of
#: 300 calls, 2026-09-28).
KERNEL_STEPS = 50_000
REFERENCE_S = 0.0385

#: A probe call shorter than this is repeated :data:`QUICK_REPS` times.
QUICK_S = 0.25
QUICK_REPS = 3

Samples = Dict[str, List[float]]


@dataclass
class Context:
    """What one invocation fixes for the workload it measures."""

    seed: int
    seconds: float
    smoke: bool
    tmp: Path = field(init=False)

    def __post_init__(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        # A smoke run checks plumbing, not speed: it skips calibration
        # and the repeats of quick probes.
        self.kernel_steps = 0 if self.smoke else KERNEL_STEPS
        self.quick_reps = 1 if self.smoke else QUICK_REPS

    def rel(self, path: Path) -> str:
        """``path`` relative to the checkout -- short enough for a Unix
        socket address wherever the checkout lives."""
        return os.path.relpath(path, ROOT)

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
        env["TMPDIR"] = str(self.tmp)
        return env

    def calibrated(self) -> "Calibrated":
        return Calibrated(self.kernel_steps)

    def timed(self, fn: Callable[[], Any]) -> "Timing":
        """``fn()`` with its wall and CPU time, the latter over this
        process and every child it reaped meanwhile (shard workers)."""
        with self.calibrated() as cal:
            kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu += kids1.ru_utime - kids0.ru_utime
        cpu += kids1.ru_stime - kids0.ru_stime
        return Timing(result, wall * cal.factor, cpu * cal.factor, wall)

    def repeat(self, fn: Callable[[], Any]) -> Tuple[Any, List[float]]:
        """Calibrated wall times of a probe and its last result: one
        call, or three when a call is quick enough to be cheap and
        noisy."""
        took = self.timed(fn)
        walls = [took.wall]
        if took.raw < QUICK_S:
            for _ in range(self.quick_reps - 1):
                took = self.timed(fn)
                walls.append(took.wall)
        return took.result, walls

    def run_repro(self, args: Sequence[str]) -> Tuple[int, str, "Timing"]:
        """A cold ``python -m repro ...`` from spawn to exit."""
        done = self.timed(lambda: subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT,
            env=self.child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=CHILD_TIMEOUT,
        ))
        return done.result.returncode, done.result.stdout, done

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's scratch is still there


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: int, seq: int, payload: Tuple[int, int]) -> None:
        self.time = time
        self.seq = seq
        self.payload = payload


def calibrate(steps: int = KERNEL_STEPS) -> float:
    """Seconds a fixed kernel takes right now: heap pushes and pops of
    small objects plus dictionary updates, the mix the simulator's event
    loop is made of. It belongs to the benchmark, so no change to the
    program under test can move it. The collector is off meanwhile:
    a collection's cost grows with the heap of the process around the
    kernel, which is the workload's, not the machine's."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: List[Tuple[int, int, _Event]] = []
        table: Dict[Tuple[int, int], int] = {}
        x = 12345
        for i in range(steps):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x, i, _Event(x, i, (i, x))))
            key = (i & 1023, x & 7)
            table[key] = table.get(key, 0) + 1
            if i & 3 == 3:
                heapq.heappop(heap)
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Calibrated:
    """Bracket a block with the calibration kernel. ``factor`` scales a
    time measured inside the block to what it would have been with the
    kernel running at :data:`REFERENCE_S` (see metrics.py)."""

    factor = 1.0

    def __init__(self, steps: int) -> None:
        self.steps = steps

    def __enter__(self) -> "Calibrated":
        gc.collect()
        if self.steps:
            self._before = calibrate(self.steps)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.steps:
            mean = (self._before + calibrate(self.steps)) / 2
            self.factor = REFERENCE_S / mean


class Timing(NamedTuple):
    result: Any
    wall: float  # calibrated seconds
    cpu: float  # calibrated; this process plus the children it reaped
    raw: float  # wall seconds as the clock read them


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def extend(into: Samples, more: Samples) -> None:
    for name, values in more.items():
        into.setdefault(name, []).extend(values)
