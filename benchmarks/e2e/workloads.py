"""The six workloads: inputs, the timed call, the CLI cell, the probes.

A workload builds its inputs and its known answer in :meth:`setup`
(from the seed alone), offers one warm timed unit (:meth:`sample`) and
one cold CLI run (:meth:`cli_sample`), and in the traced run adds the
per-layer probes its path goes through (:meth:`probes`). ``why`` is
printed, stored in ``BENCHMARK.json`` and explained in the README.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.extract import extract_programs
from repro.api import Session
from repro.mpi.serialize import matched_trace_to_dict, save_trace
from repro.mpi.trace import MatchedTrace
from repro.obs.blame import load_programs
from repro.runtime import run_programs
from repro.workloads import (
    build_stress_trace,
    lammps_skeleton_programs,
    stress_programs,
    wildcard_deadlock_programs,
)

import layers
import oracle
from harness import (
    PROGRAMS,
    Context,
    Samples,
    Timing,
    extend,
    peak_rss_mb,
)
from programs.straggler import straggler_programs
from recorder import ROOT_SPAN, Recorder
from serve_load import JobKind, ServeDaemon, job_order, run_round

#: Iterations of the stress ring; `repro demo stress` fixes the same.
STRESS_ITERATIONS = 20

#: Timeout-driven detections spread over the straggler's simulated span.
EPOCHS = 16


def _verdict_samples(took: Timing, ops: int) -> Samples:
    return {
        "verdict_wall_s": [took.wall],
        "verdict_cpu_s": [took.cpu],
        "ops_per_s": [ops / took.wall],
        "raw.verdict_wall_s": [took.raw],
    }


def _raw_seconds(fn: Any) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _cli_samples(took: Timing) -> Samples:
    return {"cli_wall_s": [took.wall], "raw.cli_wall_s": [took.raw]}


@dataclass
class Unit:
    """One timed unit: samples by metric name, what was checked."""

    samples: Samples = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


class Workload:
    name = ""
    why = ""
    #: Ranks of the full and of the ``--smoke`` size.
    sizes = (0, 0)

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.p = self.sizes[1] if ctx.smoke else self.sizes[0]
        self.warm_p = self.sizes[1]

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` opened (idempotent)."""

    def sample(self, rec: Optional[Recorder] = None) -> Unit:
        raise NotImplementedError

    def cli_sample(self) -> Unit:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def timed_unit(
        self, call: Callable[[], Any], rec: Optional[Recorder]
    ) -> Timing:
        """Time ``call``; in the traced run, under the root span."""
        if rec is None:
            return self.ctx.timed(call)

        def spanned() -> Any:
            with rec.span(ROOT_SPAN):
                return call()

        return self.ctx.timed(spanned)

    def interleaved(self) -> Samples:
        """Samples the traced run takes next to each untraced one."""
        return {}

    def probes(self, verdict_wall: float) -> Samples:
        return {}

    def describe(self) -> Dict[str, Any]:
        return {"ranks": self.p}


class _Detection(Workload):
    """Shared by the workloads that run the distributed detector: one
    reused :class:`Session`, one matched trace, one expected answer."""

    session: Session
    expected: oracle.Expected
    #: Rank programs, when the timed call records them itself.
    programs: Optional[Sequence[Any]] = None
    #: The trace analyzed; for recording workloads, the last recorded.
    matched: Optional[MatchedTrace] = None
    detect_at: Tuple[float, ...] = ()
    outcome: Any = None

    def verdict(self) -> Any:
        if self.programs is not None and self.matched is None:
            return self.session.run(self.programs)
        return self.session.analyze(self.matched)

    def trace(self) -> MatchedTrace:
        if self.matched is not None:
            return self.matched
        assert self.session.last_run is not None
        return self.session.last_run.matched

    def sample(self, rec: Optional[Recorder] = None) -> Unit:
        took = self.timed_unit(self.verdict, rec)
        if rec is not None:
            outcome = took.result
            rec.count("core.tool_msgs", outcome.messages_sent)
            rec.count("core.epochs", len(outcome.detections))
            rec.count("wfg.arcs", sum(
                d.graph.arc_count() for d in outcome.detections
            ))
        self.outcome = took.result
        return Unit(
            samples=_verdict_samples(took, self.trace().trace.total_ops()),
            attempted=1,
            failures=oracle.check_outcome(self.expected, took.result),
        )

    def cli_args(self) -> List[str]:
        raise NotImplementedError

    def cli_sample(self) -> Unit:
        code, out, took = self.ctx.run_repro(self.cli_args())
        return Unit(
            samples=_cli_samples(took),
            attempted=1,
            failures=[
                f"cli: {w}"
                for w in oracle.check_cli(self.expected, code, out, self.p)
            ],
        )

    def probes(self, verdict_wall: float) -> Samples:
        out: Samples = {}
        matched = self.trace()
        if self.programs is not None:
            extend(out, layers.runtime(self.ctx, self.programs))
        extend(out, layers.mpi(self.ctx, matched))
        extend(out, self.core_probe(matched, verdict_wall))
        extend(out, layers.tbon(self.ctx, self.p))
        busiest = max(
            self.outcome.detections, key=lambda d: d.graph.arc_count()
        )
        extend(out, layers.wfg(self.ctx, busiest))
        return out

    def core_probe(self, matched: MatchedTrace, verdict_wall: float) -> Samples:
        return layers.core(
            self.ctx, matched, self.detect_at, self.outcome, verdict_wall
        )

    def describe(self) -> Dict[str, Any]:
        return {"ranks": self.p, "ops": self.trace().trace.total_ops()}


class StressRing(_Detection):
    name = "stress_ring_p512"
    why = (
        "Fig. 9 shape: recording, matching, first-layer handlers and "
        "TBON delivery do the work, the wait-for graph none"
    )
    sizes = (512, 32)

    def setup(self) -> None:
        seed = self.ctx.seed
        self.programs = stress_programs(self.p, STRESS_ITERATIONS)
        self.expected = oracle.clean_run(
            build_stress_trace(self.p, STRESS_ITERATIONS)
        )
        self.session = Session(seed=seed)
        self.observed = Session(seed=seed, observe=True)
        self.session.run(stress_programs(self.warm_p, STRESS_ITERATIONS))

    def cli_args(self) -> List[str]:
        return [
            "demo", "stress", "-n", str(self.p), "--seed", str(self.ctx.seed),
        ]

    def interleaved(self) -> Samples:
        """The same verdict with the program's own observer on."""
        took = self.ctx.timed(lambda: self.observed.run(self.programs))
        if oracle.check_outcome(self.expected, took.result):
            raise RuntimeError("observed run reached another verdict")
        return {
            "obs.on_s": [took.wall],
            "obs.events": [len(self.observed.observer.tracer.events)],
        }


class WildcardStorm(_Detection):
    name = "wildcard_storm_p1024"
    why = (
        "Fig. 10 shape: p*(p-1) arcs, so graph build, fixpoint and "
        "report rendering dominate and tracking is one op per rank"
    )
    sizes = (1024, 64)

    def setup(self) -> None:
        self.programs = wildcard_deadlock_programs(self.p)
        self.expected = oracle.wildcard_storm(self.p)
        self.session = Session(seed=self.ctx.seed)
        self.session.run(wildcard_deadlock_programs(self.warm_p))

    def cli_args(self) -> List[str]:
        # The CLI renders the full DOT, HTML and JSON in memory whatever
        # it is asked to write. Writing the 115 MB of them to this box's
        # disk costs 0.1 s and triples the cell's sample-to-sample
        # spread (4% to 10-14%), so the cell asks for the aggregated DOT.
        return [
            "demo", "wildcard", "-n", str(self.p),
            "--seed", str(self.ctx.seed),
            "--dot", str(self.ctx.tmp / "storm.dot"), "--simplify",
        ]

    def cli_sample(self) -> Unit:
        unit = super().cli_sample()
        path = self.ctx.tmp / "storm.dot"
        if not path.is_file() or path.stat().st_size == 0:
            unit.failures.append("cli: storm.dot was not written")
        path.unlink(missing_ok=True)
        return unit


class StragglerEpochs(_Detection):
    name = "straggler_epochs_p512"
    why = (
        "16 timeout detections over a live OR-graph of about p*p/2 "
        "arcs, no report: per-epoch conditions and fixpoint cost"
    )
    sizes = (512, 32)

    def setup(self) -> None:
        seed = self.ctx.seed
        self.programs = straggler_programs(self.p)
        self.matched = run_programs(self.programs, seed=seed).matched
        self.expected = oracle.clean_run(self.matched, detections=EPOCHS + 1)
        # The warm-up doubles as the measurement of the simulated span
        # the timeouts are spread over.
        span = Session(seed=seed).analyze(self.matched).simulated_seconds
        self.detect_at = tuple(
            span * (i + 0.5) / EPOCHS for i in range(EPOCHS)
        )
        self.session = Session(seed=seed, detect_at=self.detect_at)
        self.trace_path = self.ctx.tmp / "straggler.json"
        save_trace(self.matched, str(self.trace_path))

    def cli_args(self) -> List[str]:
        # The CLI has no --detect-at: its cell is load + one detection.
        return ["analyze", str(self.trace_path), "--seed", str(self.ctx.seed)]


class ShardedStress(_Detection):
    name = "sharded_stress_p1024_s2"
    why = (
        "the stress trace through ShardedBackend(shards=2): codec, IPC "
        "and BSP rounds in wall clock and CPU, inline as the yardstick"
    )
    sizes = (1024, 64)
    shards = 2

    def setup(self) -> None:
        self.matched = build_stress_trace(self.p, STRESS_ITERATIONS)
        self.expected = oracle.clean_run(self.matched)
        self.session = Session(
            seed=self.ctx.seed, backend="sharded", shards=self.shards
        )
        self.trace_path = self.ctx.tmp / "sharded.json"
        save_trace(self.matched, str(self.trace_path))
        self.session.analyze(
            build_stress_trace(self.warm_p, STRESS_ITERATIONS)
        )

    def cli_args(self) -> List[str]:
        return [
            "analyze", str(self.trace_path), "--backend", "sharded",
            "--shards", str(self.shards), "--seed", str(self.ctx.seed),
        ]

    def core_probe(self, matched: MatchedTrace, verdict_wall: float) -> Samples:
        # One inline run of this trace costs several sharded ones: the
        # backend probe's inline run serves as core's full run too.
        out = layers.backend(self.ctx, matched, self.shards)
        extend(out, layers.core(
            self.ctx, matched, (), self.outcome, verdict_wall,
            full_walls=out["backend.inline_run_s"],
        ))
        return out


class VerifyWildcard(Workload):
    name = "verify_wildcard_p8"
    why = (
        "the static deciders only: explorer with POR, linear fast path, "
        "witness replay; no runtime, core, tbon or wfg on the path"
    )
    sizes = (8, 4)
    files = (
        "wildcard_pingpong.py",
        "directed_pingpong.py",
        "wildcard_master_worker.py",
    )

    def setup(self) -> None:
        names = list(self.files)
        if self.ctx.smoke:
            names[0] = "wildcard_pingpong_smoke.py"
        self.names = names
        self.paths = [str(PROGRAMS / name) for name in names]
        self.program_sets = [load_programs(path, 4) for path in self.paths]
        self.ops = sum(
            len(seq)
            for programs in self.program_sets
            for seq in extract_programs(programs).sequences
        )
        self.session = Session(seed=self.ctx.seed)
        self.session.verify(str(PROGRAMS / "wildcard_pingpong_smoke.py"))

    def sample(self, rec: Optional[Recorder] = None) -> Unit:
        def verdict() -> List[Any]:
            return [
                self.session.verify(path, replay=True) for path in self.paths
            ]

        took = self.timed_unit(verdict, rec)
        reports = took.result
        failures: List[str] = []
        for name, report in zip(self.names, reports):
            failures.extend(oracle.check_verify(name, report))
        if rec is not None:
            rec.count("analysis.states", sum(
                prog.result.stats.states_explored
                for report in reports for prog in report.programs
            ))
        return Unit(
            samples=_verdict_samples(took, self.ops),
            attempted=1,
            failures=failures,
        )

    def cli_sample(self) -> Unit:
        code, out, took = self.ctx.run_repro(
            ["verify", *self.paths, "--replay"]
        )
        return Unit(
            samples=_cli_samples(took),
            attempted=1,
            failures=[
                f"cli: {w}"
                for w in oracle.check_verify_cli(self.names, code, out)
            ],
        )

    def probes(self, verdict_wall: float) -> Samples:
        return layers.analysis(self.ctx, self.program_sets)

    def describe(self) -> Dict[str, Any]:
        return {"ranks": self.p, "ops": self.ops, "files": self.names}


class ServeMixed(Workload):
    name = "serve_mixed_2tenants"
    why = (
        "a live daemon under a closed loop of 2 tenants over 4 job "
        "kinds: queue, parse, dispatch and Session reuse are on the path"
    )
    sizes = (128, 16)
    tenants = 2
    #: (label, built-in workload, full ranks, smoke ranks). The uploaded
    #: trace is a recorded stress ring of 6 ranks (49 KB of JSON): the
    #: daemon drops a connection that sends a request line over 64 KiB.
    mix = (
        ("stress", "stress", 48, 8),
        ("wildcard", "wildcard", 128, 16),
        ("lammps", "lammps", 64, 8),
        ("trace", "stress", 6, 4),
    )
    #: Jobs each tenant runs per timed round (full, smoke).
    round_jobs = (12, 4)

    daemon: Optional[ServeDaemon] = None

    def setup(self) -> None:
        self.close()
        seed, smoke = self.ctx.seed, self.ctx.smoke
        builders = {
            "stress": lambda n: stress_programs(n, STRESS_ITERATIONS),
            "wildcard": wildcard_deadlock_programs,
            "lammps": lammps_skeleton_programs,
        }
        self.kinds: List[JobKind] = []
        self.local: Dict[str, Any] = {}
        for label, workload, full, small in self.mix:
            ranks = small if smoke else full
            programs = builders[workload](ranks)
            matched = run_programs(programs, seed=seed).matched
            self.local[label] = matched if label == "trace" else programs
            self.kinds.append(JobKind(
                label=label,
                workload=workload,
                ranks=ranks,
                ops=matched.trace.total_ops(),
                trace=(
                    matched_trace_to_dict(matched) if label == "trace"
                    else None
                ),
            ))
        per_tenant = self.round_jobs[1 if smoke else 0]
        self.orders = [
            job_order(self.kinds, per_tenant, seed, tenant)
            for tenant in range(self.tenants)
        ]
        self.daemon = ServeDaemon(self.ctx, workers=self.tenants).start()
        self.clients = [self.daemon.client() for _ in range(self.tenants)]
        # Both workers' sessions see every kind once before timing.
        warm = run_round(self.clients, [self.kinds] * self.tenants)
        if warm.failures:
            raise RuntimeError(f"serve warm-up failed: {warm.failures}")

    def close(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            for client in self.clients:
                client.close()
        finally:
            daemon.stop()

    def sample(self, rec: Optional[Recorder] = None) -> Unit:
        assert self.daemon is not None
        cpu0 = self.daemon.cpu_seconds()
        with self.ctx.calibrated() as cal:
            done = run_round(self.clients, self.orders, rec)
        cpu = (self.daemon.cpu_seconds() - cpu0) * cal.factor
        self.last_round = done
        self.last_factor = cal.factor
        wall = done.wall * cal.factor
        latencies = [seconds * cal.factor for seconds in done.latencies]
        samples: Samples = {"serve.rejected": [done.rejected]}
        if latencies:
            samples.update({
                # The mean: the mix is bimodal, so its median hops
                # between modes from round to round.
                "verdict_wall_s": [statistics.mean(latencies)],
                "verdict_cpu_s": [cpu / len(latencies)],
                "ops_per_s": [done.ops / wall],
                "jobs_per_s": [len(latencies) / wall],
                "job_p50_s": latencies,
                "job_p95_s": latencies,
                "raw.verdict_wall_s": [statistics.mean(done.latencies)],
                "serve.queue_wait_s": [
                    seconds * cal.factor for seconds in done.queue_waits
                ],
                "serve.exec_s": [
                    seconds * cal.factor for seconds in done.execs
                ],
            })
        if rec is not None:
            rec.count("serve.jobs", done.jobs)
            rec.count("serve.rejected", done.rejected)
        return Unit(samples, attempted=done.jobs, failures=done.failures)

    def cli_sample(self) -> Unit:
        assert self.daemon is not None
        kind = self.kinds[0]
        code, out, took = self.ctx.run_repro([
            "submit", kind.workload, "-n", str(kind.ranks),
            "--server", self.daemon.address, "--tenant", "cli",
        ])
        failures = []
        if code != 0 or ": clean" not in out:
            failures.append(f"cli: submit exited {code}: {out.strip()[-200:]}")
        return Unit(_cli_samples(took), attempted=1, failures=failures)

    def peak_rss_mb(self) -> float:
        assert self.daemon is not None
        return self.daemon.peak_rss_mb()

    def probes(self, verdict_wall: float) -> Samples:
        """Round trips that carry no analysis, and each job's latency
        minus the same spec on a local warm Session."""
        assert self.daemon is not None
        client = self.clients[0]
        with self.ctx.calibrated() as cal:
            pings = [_raw_seconds(client.ping) for _ in range(40)]
            submits = []
            for kind in self.kinds * 2:
                t0 = time.perf_counter()
                job = kind.submit(client, "probe")
                submits.append(time.perf_counter() - t0)
                client.result(job)
        session = Session(seed=self.ctx.seed)
        local: Dict[str, float] = {}
        for label, spec in self.local.items():
            run = session.analyze if label == "trace" else session.run
            local[label] = statistics.median(
                self.ctx.timed(lambda: run(spec)).wall for _ in range(3)
            )
        done = self.last_round
        out: Samples = {
            "serve.ping_rtt_s": [seconds * cal.factor for seconds in pings],
            "serve.submit_rtt_s": [
                seconds * cal.factor for seconds in submits
            ],
            "serve.overhead_s": [
                latency * self.last_factor - local[label]
                for latency, label in zip(done.latencies, done.kinds)
            ],
            "serve.start_s": [self.daemon.start_s],
        }
        extend(out, layers.mpi(self.ctx, self.local["trace"]))
        return out

    def describe(self) -> Dict[str, Any]:
        return {
            "tenants": self.tenants,
            "jobs_per_round": sum(len(order) for order in self.orders),
            "mix": {kind.label: kind.ranks for kind in self.kinds},
        }


WORKLOADS = (
    StressRing,
    WildcardStorm,
    StragglerEpochs,
    ShardedStress,
    VerifyWildcard,
    ServeMixed,
)

BY_NAME = {cls.name: cls for cls in WORKLOADS}
