"""The sharded backend: first-layer nodes across worker processes.

The first tool layer does the heavy lifting of the analysis — p2p
matching, wait-state tracking, the Figure 8 freeze handshake — and its
nodes only talk to each other and to their tree parent. That makes the
layer the natural unit of parallelism: this backend partitions the
first-layer :class:`~repro.core.distributed.FirstLayerNode`s across
supervised worker processes (:class:`repro.backend.worker.Worker`, one
pipe each; one shard = one or more nodes, cut along
:mod:`repro.backend.plan`'s placement-aligned contiguous groups) while
the root and interior nodes — WFG construction, collective matching,
report generation — stay centralized in the coordinator process: the
same :class:`~repro.core.detector.ToolTree` the inline tool is, with
proxies attached where its first layer would be, driven by the round
loop below and read off from the workers' finish payloads.

Execution is a bulk-synchronous round loop:

* the coordinator ships each shard the batch of protocol messages
  addressed to its nodes, and every worker delivers them, pumps its
  local queue to quiescence, and replies with the messages it produced
  for other shards or for the tree;
* inside a worker, intra-shard traffic is a plain deque append —
  cross-process hops are paid only on shard boundaries — and outbound
  messages are coalesced into batches that flush on a size limit or at
  the round watermark (the BSP round end, this backend's stand-in for
  a virtual-time watermark);
* batches are built and routed in send order, so the per-(sender,
  receiver) FIFO guarantee the Section 5 protocol needs survives the
  process boundary end to end; and the coordinator reads the workers'
  pipes in shard-id order, so what it does with them (its latency
  draws, hence ``tbon.sim_seconds``) does not depend on scheduling.

Correctness leans on the protocol's confluence (the terminal
distributed state is independent of message interleaving given FIFO
channels — property-tested in ``tests/property/test_confluence.py``)
and on the deterministic receiver-side matcher: detections run after
global quiescence, so the sharded execution reaches the same verdicts,
wait-for graphs, and blame roots as the inline backend even though no
global virtual clock is replicated. Mid-run detections (``detect_at``)
would need exactly that clock and are rejected.

Cross-process messages travel through the wire codec of
:mod:`repro.mpi.serialize`; observed runs attach a trace context
(:class:`repro.obs.dist.TraceContext`) as the wire tuple's optional
third element. Per-worker metrics and flight-recorder rings are
shipped back at join; tracer events stream back once per BSP round as
``("obs", shard_id, frame)`` replies together with the
:mod:`repro.obs.prof` round records, and the coordinator's
:class:`~repro.obs.dist.TraceMerger` rebases them onto its wall clock
before folding them into the session trace. Observed runs also leave
the ``repro-profile/1`` document on ``backend.last_profile`` for
``repro profile``.
"""
from __future__ import annotations

import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.backend import worker as worker_mod
from repro.backend.base import DEFAULT_SHARDS, AnalysisBackend
from repro.backend.plan import describe_plan, plan_shards, shard_of_node
from repro.backend.worker import Worker, WorkerDied, WorkerTimeout
from repro.core.detector import (
    DistributedOutcome,
    NodeReading,
    ToolTree,
    build_first_layer,
    read_first_layer,
)
from repro.core.distributed import FirstLayerNode
from repro.core.messages import NewOpMsg, RankDoneMsg
from repro.mpi.serialize import (
    decode_message,
    encode_message,
    message_context,
)
from repro.mpi.trace import MatchedTrace
from repro.obs.dist import (
    COORDINATOR_SHARD,
    TraceMerger,
    WorkerObsSpec,
    events_to_wire,
    make_worker_observer,
    next_run_id,
)
from repro.obs.events import PID_COORD
from repro.obs.flight import NULL_FLIGHT_RECORDER, FlightRecorder
from repro.obs.live import LiveMonitor
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.prof import (
    ShardRoundProfiler,
    build_profile,
    row_anchor,
    row_busy_seconds,
    rows_to_records,
    spans_from_records,
)
from repro.perf.placement import Placement
from repro.tbon.network import LatencyModel, count_sent
from repro.tbon.topology import TbonTopology
from repro.util.errors import ProtocolError, ReproError
from repro.util.gcpause import collector_paused

#: Outbox size at which a worker flushes mid-round.
DEFAULT_FLUSH_LIMIT = 64

#: BSP rounds a worker batches into one ``("obs", ...)`` stream frame.
#: Each frame costs both sides a pipe transfer inside their timed
#: busy windows; batching keeps the distributed tracer inside its <5%
#: overhead bound while the final flush (before the finish payload)
#: bounds the loss on crash to the last few rounds.
_OBS_FLUSH_EVERY = 16

#: A batched wire entry: (src, dst, wire tuple, size). The wire tuple
#: is whatever :func:`encode_message` produced — ``(tag, payload)``
#: bare or ``(tag, payload, context)`` when distributed tracing rides
#: along.
_WireEntry = Tuple[int, int, tuple, int]


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


@dataclass
class _ShardSpec:
    """Everything a worker needs to rebuild its slice of the tool."""

    shard_id: int
    node_ids: Tuple[int, ...]
    matched: MatchedTrace
    topology: TbonTopology
    window_limit: int
    flush_limit: int
    #: Observer settings the worker honors (session ``--obs`` plumbed
    #: through; the disabled spec keeps NULL_OBSERVER's zero cost).
    obs: WorkerObsSpec
    #: Ring capacity for the worker's flight recorder; 0 disables it.
    flight_capacity: int


class ShardNetwork:
    """The :class:`~repro.tbon.network.Transport` of one shard worker.

    Satisfies the same contract the simulated ``Network`` gives node
    handlers — FIFO ``send``, monotonic ``now``, an observer — but
    delivers differently: messages for nodes in this shard go onto a
    local deque (drained by :meth:`pump`), everything else is encoded
    into the outbox and flushed to the coordinator in ordered batches.
    ``now`` is a per-worker delivery counter; it orders this worker's
    flight/trace events but is not a global clock.
    """

    def __init__(
        self,
        local_nodes: Dict[int, FirstLayerNode],
        emit,
        observer: Observer,
        flush_limit: int = DEFAULT_FLUSH_LIMIT,
        prof: Optional[ShardRoundProfiler] = None,
        run_id: int = 0,
    ) -> None:
        self.obs = observer
        self._local = local_nodes
        self._emit = emit
        self._flush_limit = max(1, flush_limit)
        self._prof = prof
        self._run_id = run_id
        self._queue: deque = deque()
        self._outbox: List[_WireEntry] = []
        self._now = 0.0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.flushes = 0
        self.peak_queue = 0

    @property
    def now(self) -> float:
        return self._now

    def send(self, src: int, dst: int, msg: object, size: int = 64) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        if self.obs.enabled:
            count_sent(self.obs.metrics, msg, size)
        if dst in self._local:
            self._queue.append((src, dst, msg))
            if len(self._queue) > self.peak_queue:
                self.peak_queue = len(self._queue)
            return
        prof = self._prof
        if prof is not None:
            t0 = time.perf_counter()
            wire = encode_message(msg, prof.wire_context(self._run_id))
            prof.note_out(time.perf_counter() - t0, size)
        else:
            wire = encode_message(msg)
        self._outbox.append((src, dst, wire, size))
        if len(self._outbox) >= self._flush_limit:
            self.flush()

    def deliver(self, src: int, dst: int, msg: object) -> None:
        """Queue an inbound (already-sent) message; no send accounting."""
        if dst not in self._local:
            raise ProtocolError(f"message for node {dst} routed to wrong shard")
        self._queue.append((src, dst, msg))
        if len(self._queue) > self.peak_queue:
            self.peak_queue = len(self._queue)

    def flush(self) -> None:
        """Release the coalesced outbox (size limit or round watermark)."""
        if self._outbox:
            self._emit(self._outbox)
            self._outbox = []
            self.flushes += 1

    def pump(self) -> None:
        """Drain the local queue, handling each message in FIFO order."""
        q = self._queue
        while q:
            src, dst, msg = q.popleft()
            self._now += 1e-6
            self._local[dst].handle(msg, self, src)


def _inject_app_events(spec: _ShardSpec, net: ShardNetwork) -> None:
    """Stream the hosted ranks' traces into the shard's nodes.

    Rank-major order differs from the inline backend's seeded
    interleaving; the protocol's confluence makes the terminal state
    (and hence every detection) identical regardless. Injection goes
    through ``send`` so the rank-to-tool hop is counted, as it is on
    the inline network.
    """
    trace = spec.matched.trace
    for node_id in spec.node_ids:
        for rank in spec.topology.ranks_of_host(node_id):
            for op in trace.sequence(rank):
                net.send(rank, node_id, NewOpMsg(op), NewOpMsg.wire_size)
            net.send(rank, node_id, RankDoneMsg(rank), RankDoneMsg.wire_size)


def _flush_obs(spec: _ShardSpec, observer, prof, conn: Connection) -> None:
    """Stream the pending observability frame to the coordinator.

    Everything on the frame is kept in its cheapest-to-pickle form
    (packed event columns, flat profiler rows): the worker's send and
    the coordinator's reply loop both sit inside the busy-time
    accounting the <5% tracing bound is scored on.
    """
    rows = prof.take_rows()
    conn.send(
        ("obs", spec.shard_id, {
            "events": events_to_wire(observer.tracer.drain()),
            "rows": rows,
            "rounds": [row_anchor(row) for row in rows],
            "dropped": observer.tracer.dropped,
        })
    )


def _shard_worker(conn: Connection, spec: _ShardSpec) -> None:
    """Worker entry point (a :class:`~repro.backend.worker.Worker`
    target): host ``spec.node_ids`` until the finish payload is sent or
    the coordinator closes the pipe.

    Commands: ``("run", batch)`` — deliver, pump to quiescence, flush,
    reply ``("done", shard_id, stats)`` (partial flushes emit
    ``("msgs", shard_id, batch)`` first, and observed runs an
    ``("obs", shard_id, frame)`` stream frame every
    ``_OBS_FLUSH_EVERY`` rounds plus a final one before the finish
    payload — per-round frames would double the coordinator's reply
    traffic, and that receive/unpickle cost lands in the busy-time
    accounting the <5% tracing bound is scored on); ``("flight",
    ranks)`` — reply the flight tails; ``("finish",)`` — reply the
    final state payload and exit.
    """
    try:
        observer = make_worker_observer(spec.obs)
        # run_id == 0 means the coordinator did not start a distributed
        # trace (observability off, or distributed_tracing disabled):
        # the worker still observes locally but stays dark on the wire.
        prof = (
            ShardRoundProfiler(spec.shard_id, observer)
            if observer.enabled and spec.obs.run_id
            else None
        )
        flight = (
            FlightRecorder(spec.flight_capacity)
            if spec.flight_capacity > 0
            else NULL_FLIGHT_RECORDER
        )
        local = build_first_layer(
            spec.topology,
            spec.matched.comms,
            spec.node_ids,
            window_limit=spec.window_limit,
            flight=flight,
        )
        net = ShardNetwork(
            local,
            emit=lambda batch: conn.send(("msgs", spec.shard_id, batch)),
            observer=observer,
            flush_limit=spec.flush_limit,
            prof=prof,
            run_id=spec.obs.run_id,
        )
        with collector_paused():
            # CPU time, not wall: concurrent shards time-slicing a core
            # must not count each other's work as their own.
            t0 = time.process_time()
            _inject_app_events(spec, net)
            busy = time.process_time() - t0
            round_no = 0
            while True:
                cmd = conn.recv()
                kind = cmd[0]
                if kind == "run":
                    t0 = time.process_time()
                    if prof is None:
                        for src, dst, wire, _size in cmd[1]:
                            net.deliver(src, dst, decode_message(wire))
                        net.pump()
                        net.flush()
                        busy += time.process_time() - t0
                    else:
                        round_no += 1
                        prof.begin_round(round_no)
                        prof.begin_section("decode")
                        inbound = [
                            (src, dst, decode_message(wire),
                             message_context(wire), size)
                            for src, dst, wire, size in cmd[1]
                        ]
                        prof.end_section()
                        prof.begin_section("recv")
                        for src, dst, msg, ctx, size in inbound:
                            net.deliver(src, dst, msg)
                            prof.note_in(ctx, size)
                        prof.end_section()
                        prof.begin_section("step")
                        net.pump()
                        prof.end_section()
                        prof.begin_section("flush")
                        net.flush()
                        prof.end_section()
                        prof.end_round()
                        busy += time.process_time() - t0
                        if round_no % _OBS_FLUSH_EVERY == 0:
                            _flush_obs(spec, observer, prof, conn)
                    conn.send(("done", spec.shard_id))
                elif kind == "flight":
                    conn.send(
                        ("flight", spec.shard_id, flight.snapshot(cmd[1]))
                    )
                elif kind == "finish":
                    if prof is not None:
                        # Drains the tracer: no event outlives this frame.
                        _flush_obs(spec, observer, prof, conn)
                    conn.send(
                        ("finish", spec.shard_id, _finish_payload(
                            spec, local, net, observer, busy
                        ))
                    )
                    return
                else:
                    raise ProtocolError(f"unknown shard command {kind!r}")
    except (EOFError, OSError):
        raise  # the coordinator is gone: nobody to tell
    except Exception as exc:
        # A tool error travels as itself; anything else may not pickle.
        conn.send((
            "error",
            spec.shard_id,
            exc if isinstance(exc, ReproError) else None,
            traceback.format_exc(),
        ))


def _finish_payload(
    spec: _ShardSpec,
    local: Dict[int, FirstLayerNode],
    net: ShardNetwork,
    observer: Observer,
    busy: float,
) -> Dict[str, Any]:
    if observer.enabled:
        sid = spec.shard_id
        metrics = observer.metrics
        metrics.set_gauge(f"backend.shard{sid}.queue_depth", net.peak_queue)
        residues = [node.matcher.stats() for node in local.values()]
        for name in ("pending_receives", "stored_sends"):
            metrics.set_gauge(
                f"backend.shard{sid}.{name}", sum(r[name] for r in residues)
            )
        metrics.inc(f"backend.shard{sid}.outbox_flushes", net.flushes)
    return {
        "first_layer": read_first_layer(local.values()),
        "sent": (net.messages_sent, net.bytes_sent),
        "busy_seconds": busy,
        "metrics": observer.metrics.dump_state() if observer.enabled else None,
    }


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class _ShardProxy:
    """Coordinator-side stand-in for a first-layer node.

    Attached to the coordinator network under the real node id, so the
    root's broadcasts and the interiors' relays need no special casing:
    whatever reaches the proxy is encoded into the owning shard's
    pending batch and shipped next round.
    """

    __slots__ = ("node_id", "_pending", "_context")

    def __init__(
        self,
        node_id: int,
        pending: List[_WireEntry],
        context=None,
    ) -> None:
        self.node_id = node_id
        self._pending = pending
        self._context = context

    def handle(self, msg: Any, net, src: int) -> None:
        ctx = self._context() if self._context is not None else None
        wire = encode_message(msg, ctx)
        self._pending.append((src, self.node_id, wire, msg.wire_size))


class _FlightGather:
    """The root's flight handle when the rings live in the workers.

    Only the snapshot path is needed — first-layer nodes record into
    their worker-local rings, the root merely embeds tails into
    reports. Snapshotting does synchronous per-shard round trips, which
    is safe because the root builds reports between rounds, when every
    worker is idle-blocked on its pipe. The run holds the root, so the
    handle holds the run weakly: a finished run is freed by reference
    counting alone.
    """

    enabled = True

    def __init__(self, run: "_ShardedRun") -> None:
        self._run = weakref.ref(run)

    def snapshot(self, ranks: Sequence[int]) -> Dict[int, List[dict]]:
        run = self._run()
        assert run is not None, "flight tails read after the run ended"
        return run.gather_flight(ranks)


class _ShardedRun(ToolTree):
    """One sharded analysis: the tool tree with its first layer behind
    proxies, plus what sharding adds — plan, workers, the round loop,
    the observability merge and the timing."""

    def __init__(
        self,
        backend: "ShardedBackend",
        matched: MatchedTrace,
        *,
        window_limit: int,
        flight: FlightRecorder,
        detect_at_end: bool,
        live: Optional[LiveMonitor],
        **tree: Any,
    ) -> None:
        # ``tree``: what ToolTree takes, bar the root's flight handle.
        super().__init__(
            matched,
            flight=(
                _FlightGather(self) if flight.enabled
                else NULL_FLIGHT_RECORDER
            ),
            **tree,
        )
        self.backend = backend
        self.flight = flight
        self.live = live
        #: Cumulative per-shard busy seconds folded from streamed
        #: profiler rows (live skew attribution; empty when the
        #: distributed tracer is off — skew then reports None).
        self._live_busy: Dict[int, float] = {}
        self.detect_at_end = detect_at_end
        self.window_limit = window_limit
        self.plan = plan_shards(
            self.topology, backend.shards, backend.placement
        )
        self.shard_of = shard_of_node(self.plan)
        self.num_shards = len(self.plan)
        #: Per-shard batches awaiting the next round. The lists are
        #: shared with the proxies and must stay identity-stable.
        self.pending: List[List[_WireEntry]] = [
            [] for _ in range(self.num_shards)
        ]
        # Distributed-tracing state: coordinator-origin messages carry
        # a trace context (shard COORDINATOR_SHARD, the round they will
        # ship in) and worker event frames fold through the merger.
        tracing = self.observer.enabled and backend.distributed_tracing
        self.run_id = next_run_id() if tracing else 0
        self.merger = TraceMerger() if tracing else None
        self.round_rows: Dict[int, List[list]] = {}
        self.coord_rounds: List[Dict[str, Any]] = []
        self._round_route_s = 0.0
        # Weak for the same reason as _FlightGather: the proxies hang
        # off this run's network.
        run_id, me = self.run_id, weakref.ref(self)
        context = (
            (lambda: (run_id, COORDINATOR_SHARD, me().rounds + 1, 0))
            if tracing
            else None
        )
        self.host_first_layer(
            _ShardProxy(node_id, self.pending[self.shard_of[node_id]], context)
            for node_id in self.topology.first_layer
        )
        self.relayed = 0
        self.cross_shard = 0
        self.rounds = 0
        self._workers: List[Worker] = []

    # -- worker lifecycle ------------------------------------------------

    def _start_workers(self) -> None:
        for sid, node_ids in enumerate(self.plan):
            spec = _ShardSpec(
                shard_id=sid,
                node_ids=node_ids,
                matched=self.matched,
                topology=self.topology,
                window_limit=self.window_limit,
                flush_limit=self.backend.flush_limit,
                obs=WorkerObsSpec.from_observer(self.observer, self.run_id),
                flight_capacity=(
                    self.flight.capacity if self.flight.enabled else 0
                ),
            )
            self._workers.append(
                Worker(_shard_worker, spec, name=f"shard worker {sid}")
            )

    def _replies(self, kind: str, shards: Iterable[int]) -> Iterator[tuple]:
        """One reply of ``kind`` from each of ``shards``, in that order.

        Each worker's pipe is read until its reply arrives; the message
        batches and obs frames it sent first are routed and absorbed in
        the order it sent them, so what the coordinator does follows
        shard order, never scheduling. A worker's error reply is raised
        here — a tool error as itself, anything else as a
        ``ProtocolError`` carrying the worker's traceback; a dead or
        hung worker is a ``WorkerDied``/``WorkerTimeout``.
        """
        for sid in shards:
            while True:
                reply = self._workers[sid].recv(worker_mod.DEADLINE_S)
                if reply[0] == kind:
                    yield reply
                    break
                if reply[0] == "msgs":
                    self._route(reply[2])
                elif reply[0] == "obs":
                    self._absorb_obs(reply[1], reply[2])
                elif reply[0] == "error":
                    _, _sid, error, worker_traceback = reply
                    failed = ProtocolError(
                        f"shard {sid} failed:\n{worker_traceback}"
                    )
                    if error is None:
                        raise failed
                    raise error from failed
                else:
                    raise ProtocolError(
                        f"unexpected shard reply {reply[0]!r}"
                    )

    # -- the BSP round loop ----------------------------------------------

    def _exchange_round(self) -> None:
        """Ship pending batches, collect every shard's output, route it."""
        self.rounds += 1
        merger = self.merger
        if merger is not None:
            span_start = self.observer.tracer.now_us()
            self._round_route_s = 0.0
        for sid, worker in enumerate(self._workers):
            batch = list(self.pending[sid])
            self.pending[sid].clear()
            if merger is not None:
                # Clock anchor: the send stamp pairs with the worker's
                # round-start stamp to estimate the per-shard offset.
                # span_start serves for every shard: the puts are
                # microseconds apart and the median over rounds eats
                # the residual.
                merger.note_round_sent(sid, self.rounds, span_start)
            worker.send(("run", batch))
        for _done in self._replies("done", range(self.num_shards)):
            pass
        if merger is not None:
            end = self.observer.tracer.now_us()
            self.observer.tracer.complete(
                "round %d" % self.rounds,
                cat="coord.round",
                ts=span_start,
                dur=max(end - span_start, 0.0),
                pid=PID_COORD,
                tid=0,
                args={"round": self.rounds},
            )
            self.coord_rounds.append(
                {
                    "round": self.rounds,
                    "span_s": (end - span_start) / 1e6,
                    "route_s": self._round_route_s,
                }
            )
        live = self.live
        if live is not None and self.rounds % live.every_rounds == 0:
            live.tick_backend(self._live_sample())

    def _live_sample(self) -> Dict[str, Any]:
        """Coordinator-side backend progress for one live window.

        Skew is the slowest shard's cumulative busy time over the mean
        (from the streamed profiler rows); ``pending`` is the batch
        depth already routed toward each shard for the next round —
        the backpressure signal."""
        busy = self._live_busy
        skew: Optional[float] = None
        if busy:
            values = list(busy.values())
            mean = sum(values) / len(values)
            if mean > 0.0:
                skew = max(values) / mean
        return {
            "round": self.rounds,
            "shards": self.num_shards,
            "pending": [len(batch) for batch in self.pending],
            "cross_shard": self.cross_shard,
            "busy_by_shard": {
                str(sid): seconds for sid, seconds in sorted(busy.items())
            },
            "skew": skew,
        }

    def _absorb_obs(self, shard_id: int, frame: Dict[str, Any]) -> None:
        """Fold one worker obs frame: merger (events, clock anchors,
        drop counts) plus the raw profiler rows the profile doc needs
        (materialized into records in ``_assemble``, off the timed
        reply loop)."""
        assert self.merger is not None
        self.merger.add_frame(shard_id, frame)
        rows = frame.get("rows") or ()
        if rows:
            self.round_rows.setdefault(shard_id, []).extend(rows)
            if self.live is not None:
                self._live_busy[shard_id] = self._live_busy.get(
                    shard_id, 0.0
                ) + sum(row_busy_seconds(row) for row in rows)

    def _route(self, batch: List[_WireEntry]) -> None:
        """Route one worker batch, preserving its (send) order.

        First-layer destinations go to the owning shard's pending
        batch; tree destinations are decoded and continue on the
        coordinator network (``deliver``, not ``send``: the worker's
        transport already counted them).
        """
        obs_on = self.merger is not None
        t0 = time.perf_counter() if obs_on else 0.0
        for entry in batch:
            src, dst, wire, size = entry
            if self.topology.is_first_layer(dst):
                # Forwarded verbatim: the wire tuple keeps its original
                # trace context, so the receiving shard attributes the
                # message to the shard that produced it.
                self.pending[self.shard_of[dst]].append(entry)
                self.cross_shard += 1
            else:
                self.net.deliver(src, dst, decode_message(wire), size)
                self.relayed += 1
        if obs_on:
            self._round_route_s += time.perf_counter() - t0

    def _settle(self) -> None:
        """Alternate coordinator processing and shard rounds until no
        messages remain anywhere."""
        while True:
            self.net.run()
            if not any(self.pending):
                return
            self._exchange_round()

    def gather_flight(self, ranks: Sequence[int]) -> Dict[int, List[dict]]:
        by_shard: Dict[int, List[int]] = {}
        for rank in ranks:
            node = self.topology.host_of_rank(rank)
            by_shard.setdefault(self.shard_of[node], []).append(rank)
        for sid, shard_ranks in by_shard.items():
            self._workers[sid].send(("flight", tuple(shard_ranks)))
        tails: Dict[int, List[dict]] = {}
        for _kind, _sid, shard_tails in self._replies("flight", by_shard):
            tails.update(shard_tails)
        return {rank: tails.get(rank, []) for rank in ranks}

    # -- driving ---------------------------------------------------------

    def execute(self) -> DistributedOutcome:
        wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        grace = 0.0  # after an error, whatever still runs is killed
        try:
            self._start_workers()
            # Kick-off round: batches are empty, but the first "run"
            # makes every worker pump the traces it injected at start.
            self._exchange_round()
            self.drive(self._settle, detect_at_end=self.detect_at_end)
            payloads = self._collect_payloads()
            grace = 10.0  # they return after their finish payload
        except (WorkerDied, WorkerTimeout) as exc:
            raise ProtocolError(str(exc)) from None
        finally:
            for worker in self._workers:
                worker.stop(grace)
        return self._assemble(payloads, wall0)

    def _collect_payloads(self) -> Dict[int, Dict[str, Any]]:
        for worker in self._workers:
            worker.send(("finish",))
        # Each worker's final obs frame precedes its finish payload.
        return {
            sid: payload
            for _kind, sid, payload in self._replies(
                "finish", range(self.num_shards)
            )
        }

    def _assemble(
        self, payloads: Dict[int, Dict[str, Any]], wall0: float
    ) -> DistributedOutcome:
        first_layer: Dict[int, NodeReading] = {}
        worker_msgs = 0
        worker_bytes = 0
        shard_busy: List[float] = []
        for sid in range(self.num_shards):
            payload = payloads[sid]
            first_layer.update(payload["first_layer"])
            worker_msgs += payload["sent"][0]
            worker_bytes += payload["sent"][1]
            shard_busy.append(payload["busy_seconds"])
            if self.observer.enabled and payload["metrics"]:
                self.observer.metrics.merge_state(payload["metrics"])
        outcome = self.read_off(first_layer, (worker_msgs, worker_bytes))
        wall = time.perf_counter() - wall0
        # CPU time for the same reason as in the workers: on a machine
        # with fewer free cores than shards the coordinator's wall clock
        # absorbs time-sliced worker work, its own CPU seconds do not.
        coordinator_busy = time.process_time() - self._cpu0
        self.backend.last_timing = {
            "shards": self.num_shards,
            "rounds": self.rounds,
            "wall_seconds": wall,
            "coordinator_busy_seconds": coordinator_busy,
            "shard_busy_seconds": shard_busy,
            # Per-core critical path: the coordinator plus the slowest
            # shard. On a machine with >= shards+1 free cores this is
            # the detection latency; on fewer cores the wall clock
            # degrades towards the busy-time sum but the model holds.
            "modeled_latency_seconds": coordinator_busy + max(
                shard_busy, default=0.0
            ),
            "cross_shard_messages": self.cross_shard,
        }
        if self.observer.enabled:
            metrics = self.observer.metrics
            metrics.set_gauge("backend.shards", self.num_shards)
            metrics.set_gauge("backend.rounds", self.rounds)
            metrics.inc("backend.cross_shard_msgs", self.cross_shard)
            metrics.inc("backend.relayed_msgs", self.relayed)
            for sid, busy in enumerate(shard_busy):
                metrics.set_gauge(f"backend.shard{sid}.busy_seconds", busy)
        if self.merger is not None:
            offsets = self.merger.merge_into(self.observer)
            round_records = {
                sid: rows_to_records(sid, rows)
                for sid, rows in sorted(self.round_rows.items())
            }
            # The workers never emit round/section spans (that would
            # put trace-event construction on the scored busy path);
            # rebuild them here from the streamed records, clock-rebased
            # like the workers' own events.
            for sid, records in round_records.items():
                self.observer.tracer.absorb(
                    spans_from_records(sid, records, offsets.get(sid, 0.0))
                )
            profile = build_profile(
                round_records=round_records,
                coord_rounds=self.coord_rounds,
                plan=describe_plan(self.topology, self.plan),
                timing=self.backend.last_timing,
                ranks=self.topology.num_ranks,
                fan_in=self.topology.fan_in,
                dropped=self.merger.dropped,
                events=self.merger.event_counts(),
                observer=self.observer,
            )
            profile["clock_offsets_us"] = {
                str(sid): offset for sid, offset in sorted(offsets.items())
            }
            self.backend.last_profile = profile
        else:
            self.backend.last_profile = None
        if self.live is not None:
            # Terminal backend snapshot: the final round count and the
            # settled (empty) pending depths reach the feed even when
            # the run ends between cadence ticks.
            self.live.tick_backend(self._live_sample())
        return outcome


class ShardedBackend(AnalysisBackend):
    """Partition the first layer across worker processes.

    ``shards`` is clamped to the number of first-layer nodes;
    ``flush_limit`` bounds how many outbound messages a worker coalesces
    before flushing mid-round; ``placement`` aligns shard cuts with the
    modeled cluster layout (defaults to :class:`Placement()`).
    ``distributed_tracing`` (default on) controls the cross-shard trace
    machinery of observed runs: context propagation on the wire, the
    per-worker round profiler, per-round ``("obs", ...)`` frames, and
    the coordinator-side merge. With it off, observed workers still
    record locally (metrics merge at join, as before PR 7) but their
    trace events stay dark — the knob exists so the overhead benchmark
    can price the distributed machinery itself, and as an escape hatch
    if a workload ever trips on it.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        *,
        flush_limit: int = DEFAULT_FLUSH_LIMIT,
        placement: Optional[Placement] = None,
        distributed_tracing: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self.flush_limit = flush_limit
        self.placement = placement
        self.distributed_tracing = distributed_tracing
        #: Timing of the most recent run (set by :meth:`run`); the
        #: shard-scaling benchmark reads this.
        self.last_timing: Optional[Dict[str, Any]] = None

    def describe(self) -> str:
        return f"sharded(shards={self.shards})"

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
        if detect_at:
            raise ValueError(
                "the sharded backend has no global virtual clock; mid-run "
                "detections (detect_at) need the inline backend"
            )
        run = _ShardedRun(
            self,
            matched,
            fan_in=fan_in,
            seed=seed,
            window_limit=window_limit,
            generate_outputs=generate_outputs,
            observer=observer if observer is not None else NULL_OBSERVER,
            flight=flight if flight is not None else FlightRecorder(),
            latency_model=latency_model,
            detect_at_end=detect_at_end,
            live=live,
        )
        return run.execute()
