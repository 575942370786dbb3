"""Matrix: the distributed tool on both backends (``PYTHONPATH=src``).

A change to what assembles, drives or reads off the tool
(``core/detector``, ``backend/``, ``tbon/network``, the first-layer
matcher, the wire codec) must leave every verdict and every count where
it was, on both backends, observed or not. Per trace — 520
`safe_program_set`/`mutate_program_set` sets at fan-in 2 (so 2..5 ranks
give 1..3 first-layer nodes) plus ``stress``, ``wildcard``, ``lammps``
and ``straggler`` at 16 ranks — x {inline, sharded s=2, sharded s=3} x
{obs off, obs on}: deadlocked set, WFG arcs, blame chain,
``stable_state``, ``messages_sent``, ``bytes_sent``, ``node_stats``, the
JSON report hashed apart from its flight tails, and when observed the
metrics snapshot; plus ``stress`` under ``window_limit=5`` (the error a
caller sees; its class alone when sharded). A program set the runtime rejects is recorded as its
error.

What the sharded backend reads off worker clocks and reply order is not
a function of the trace, so there the entry keeps less: inline alone
has ``simulated_seconds`` (exact), ``peak_window`` and hashed flight
tails with their timestamps masked (sharded: the ranks that have one);
a sharded snapshot keeps its counters outside ``UNSTABLE`` exactly,
gauges and histograms of the ``tbon.``/``detection.`` families with
fractions masked, and of everything else the names.
"""
import json

import harness

SEEDS = range(260)
NAMED = ("stress", "wildcard", "lammps", "straggler")
BACKENDS = (("inline", 1), ("sharded", 2), ("sharded", 3))

#: Sharded counters that follow cross-worker arrival order.
UNSTABLE = ("waitstate.", "obs.tracer.", "obs.shard", "backend.shard")


def _traces():
    from repro.runtime import run_programs
    from repro.util.errors import ReproError
    from repro.workloads.named import NAMED_WORKLOADS

    for label, generated in harness.random_program_sets(SEEDS):
        seed = int(label.split("-")[1])
        try:
            matched = run_programs(generated.programs(), seed=seed).matched
        except ReproError as exc:
            matched = f"{harness.public_error(exc)}: {exc}"
        yield label, matched, seed, 2
    for name in NAMED:
        programs = NAMED_WORKLOADS[name](16)
        yield name, run_programs(programs, seed=0).matched, 0, 4


def _masked(doc):
    """``doc`` with every float ``#`` (what ``harness.MASK`` does to
    text: clock readings go, integer counts stay)."""
    if isinstance(doc, dict):
        return {name: _masked(value) for name, value in doc.items()}
    return "#" if isinstance(doc, float) else doc


def _snapshot(observer, inline):
    snapshot = observer.metrics.snapshot()
    if inline:
        return _masked(snapshot)
    kept = {}
    for kind, instruments in snapshot.items():
        stable = {
            name: value for name, value in instruments.items()
            if name.startswith(("tbon.", "detection."))
            or kind == "counters" and not name.startswith(UNSTABLE)
        }
        kept[kind] = _masked(stable)
        kept[kind + "_names"] = sorted(instruments)
    return kept


def _run(backend, matched, seed, fan_in, observed, **limits):
    from repro.obs.observer import make_observer
    from repro.util.errors import ReproError

    observer = make_observer(observed)
    inline = backend.name == "inline"
    try:
        outcome = backend.run(
            matched, seed=seed, fan_in=fan_in, observer=observer, **limits
        )
    except ReproError as exc:
        # Which worker fails first is a race: sharded keeps the class.
        name = harness.public_error(exc)
        return {"error": f"{name}: {exc}" if inline else name}
    record = outcome.detection
    report = record.json_report or {}
    tails = report.pop("flight_tails", {})
    entry = {
        "deadlocked": list(outcome.deadlocked),
        "arcs": sorted(map(list, record.graph.arcs())),
        "blame": list(record.blame),
        "stable_state": list(outcome.stable_state),
        "messages_sent": outcome.messages_sent,
        "bytes_sent": outcome.bytes_sent,
        "node_stats": {str(k): v for k, v in outcome.node_stats.items()},
        "report": harness.sha(json.dumps(report, sort_keys=True)),
        "flight_tails": harness.sha(
            harness.mask(json.dumps(tails, sort_keys=True))
        ) if inline else sorted(tails),
    }
    if inline:
        entry["simulated_seconds"] = repr(outcome.simulated_seconds)
        entry["peak_window"] = outcome.peak_window
    if observed:
        entry["metrics"] = _snapshot(observer, inline)
    return entry


def entries():
    from repro.backend import make_backend

    backends = [
        (f"{name}-s{shards}", make_backend(name, shards=shards))
        for name, shards in BACKENDS
    ]
    for label, matched, seed, fan_in in _traces():
        if isinstance(matched, str):
            yield label, {"error": matched}
            continue
        for where, backend in backends:
            for observed in (False, True):
                yield (
                    f"{label}/{where}/{'obs' if observed else 'plain'}",
                    _run(backend, matched, seed, fan_in, observed),
                )
            if label == "stress":
                yield f"{label}/{where}/window-limit-5", _run(
                    backend, matched, seed, fan_in, False, window_limit=5
                )


#: The by-type ledger, and what else the sharded ledger fix adds to a
#: sharded snapshot.
COUNTERS = ("tbon.sent.", "tbon.sent_bytes.", "tbon.recv.")
LEDGER = COUNTERS + (
    "tbon.messages_total", "tbon.bytes_total", "tbon.simulated_seconds",
)


def check(out):
    """One ledger: per observed trace, the by-type counters are equal on
    every backend and sum to ``messages_sent``/``bytes_sent``."""
    traces, broken = 0, []
    for key in out:
        if not key.endswith("/inline-s1/obs"):
            continue
        traces += 1
        reference = None
        for name, shards in BACKENDS:  # inline first
            other = key.replace("inline-s1", f"{name}-s{shards}")
            entry = out[other]
            by_type = {
                n: v for n, v in entry["metrics"]["counters"].items()
                if n.startswith(COUNTERS)
            }
            reference = by_type if reference is None else reference
            totals = [
                sum(v for n, v in by_type.items() if n.startswith(prefix))
                for prefix in COUNTERS
            ]
            sent = entry["messages_sent"]
            if by_type != reference or totals != [
                sent, entry["bytes_sent"], sent
            ]:
                broken.append(other)
    return [f"one ledger: {traces} traces, {len(broken)} broken", *broken[:9]]


def tolerate(where, left, right):
    """The two fixes a parent at or before 2060291 differs by: the
    sharded ledger (per-type counters of worker-sent messages, the three
    gauges inline always had) and the worker's error arriving as
    itself."""
    _trace, backend, how = where[0].split("/")
    if backend == "inline-s1":
        return None
    if how == "window-limit-5" and where[1:] == ("error",):
        return "worker error as itself"
    if how != "obs" or where[1] != "metrics":
        return None
    if where[2] in ("counters", "gauges") and where[3].startswith(LEDGER):
        return "sharded ledger"
    if where[2] in ("counters_names", "gauges_names"):
        names = [doc[where[0]]["metrics"][where[2]] for doc in (left, right)]
        moved = set(names[0]) ^ set(names[1])
        if all(name.startswith(LEDGER) for name in moved):
            return "sharded ledger"
    return None

