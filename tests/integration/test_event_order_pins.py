"""Event-order pins recorded before the event loop was rebuilt.

Every value below was produced by the commit that still kept one
``@dataclass(order=True)`` event per heap entry and pre-pushed one
closure per operation (eaf19e2). Tuple events, one re-arming injector
per rank, the per-kind flag tables and the handler table must change
none of them: the simulated clock is compared as an exact float, so a
single reordered delivery or latency draw anywhere in a run shows.
"""
import hashlib
import json

import pytest

from repro.api import Session
from repro.core.detector import DistributedDeadlockDetector
from repro.runtime import run_programs
from repro.workloads import build_stress_trace
from tests.integration.test_wildcard_pins import _straggler_programs


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _pin(outcome):
    stats = json.dumps(
        {str(k): v for k, v in sorted(outcome.node_stats.items())},
        sort_keys=True,
    )
    return (
        outcome.simulated_seconds,
        outcome.messages_sent,
        outcome.bytes_sent,
        _sha(repr(outcome.stable_state)),
        outcome.peak_window,
        _sha(stats),
    )


def _delivery_log(detector, **run_args):
    """(count, digest) of every delivery to a first-layer node or the
    root: simulated time, destination, source and message type."""
    log = []
    for node in [*detector.first_layer.values(), detector.root]:
        def tap(msg, net, src, _handle=node.handle, _id=node.node_id):
            log.append((net.now, _id, src, type(msg).__name__))
            _handle(msg, net, src)

        node.handle = tap
    detector.run(**run_args)
    return len(log), _sha(repr(log))


#: (simulated_seconds, messages_sent, bytes_sent, stable_state digest,
#: peak_window, per-node stats digest)
PINS = {
    ("stress", 0): (0.000260364794645925, 8108, 396224, "bd28f8720e5826f0", 48, "893b0e5b2e2238a6"),
    ("stress", 1): (0.00026237583536914974, 8108, 396224, "bd28f8720e5826f0", 50, "893b0e5b2e2238a6"),
    ("stress", 2): (0.0002645519485137625, 8108, 396224, "bd28f8720e5826f0", 48, "893b0e5b2e2238a6"),
    ("straggler", 0): (0.00031477345289888746, 1480, 65056, "45335184ed3582f5", 14, "6c7de4b50caf4f49"),
    ("straggler", 1): (0.0003073745482595474, 1480, 65056, "45335184ed3582f5", 14, "6c7de4b50caf4f49"),
    ("straggler", 2): (0.0003047354725310648, 1480, 65056, "45335184ed3582f5", 15, "6c7de4b50caf4f49"),
    ("straggler-epochs", 0): (0.0004412241540472625, 2308, 175056, "45335184ed3582f5", 48, "b2fb85e01daa0c13"),
    ("straggler-epochs", 1): (0.00043002203870665085, 2308, 165456, "45335184ed3582f5", 53, "3d33427e479984a2"),
    ("straggler-epochs", 2): (0.0004344266926117146, 2316, 168944, "45335184ed3582f5", 47, "0075e17dee4d4d07"),
}

DELIVERY_PINS = {
    ("stress", 0): (8028, "d626bb67c73cc2fa"),
    ("stress", 1): (8028, "43ac3ffac7538fee"),
    ("stress", 2): (8028, "524ebfd493ff8165"),
    ("straggler", 0): (1580, "75ebd6f0f14e2604"),
    ("straggler", 1): (1572, "1a95b7fdfade4ba8"),
    ("straggler", 2): (1572, "1cad3f8a4df1081a"),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stress_ring_repeats_the_parent_run(seed):
    matched = build_stress_trace(64, 20)
    outcome = DistributedDeadlockDetector(matched, seed=seed).run()
    assert _pin(outcome) == PINS["stress", seed]
    log = _delivery_log(DistributedDeadlockDetector(matched, seed=seed))
    assert log == DELIVERY_PINS["stress", seed]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_straggler_repeats_the_parent_run(seed):
    matched = run_programs(_straggler_programs(64), seed=seed).matched
    end = Session(seed=seed).analyze(matched)
    assert _pin(end) == PINS["straggler", seed]
    # Eight timeout detections spread over the run: freezes, ping-pongs
    # and wait gathers interleave with the injections.
    span = end.simulated_seconds
    detect_at = tuple(span * (i + 0.5) / 8 for i in range(8))
    epochs = Session(seed=seed, detect_at=detect_at).analyze(matched)
    assert len(epochs.detections) == 9
    assert _pin(epochs) == PINS["straggler-epochs", seed]
    log = _delivery_log(
        DistributedDeadlockDetector(matched, seed=seed),
        detect_at=(1e-4, 2e-4),
    )
    assert log == DELIVERY_PINS["straggler", seed]


#: The coordinator's simulated clock under ``ShardedBackend(shards=2)``.
#: The coordinator reads its workers' pipes in shard-id order, so its
#: latency draws — and this float — do not depend on which worker the
#: scheduler ran first (before, four runs of one seed gave four values).
SHARDED_SIM_SECONDS = {
    ("stress", 0): 0.00014937402417232598,
    ("stress", 1): 0.0001463459055151185,
    ("stress", 2): 0.00015148953437770277,
    ("straggler", 0): 4.25172963991598e-05,
    ("straggler", 1): 4.028158796498096e-05,
    ("straggler", 2): 4.5910420816838284e-05,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharded_simulated_seconds_is_an_exact_count(seed):
    traces = {
        "stress": build_stress_trace(64, 20),
        "straggler": run_programs(_straggler_programs(64), seed=seed).matched,
    }
    for name, matched in traces.items():
        inline = Session(seed=seed).analyze(matched)
        for _repeat in range(3):
            session = Session(seed=seed, backend="sharded", shards=2)
            outcome = session.analyze(matched)
            assert outcome.simulated_seconds == SHARDED_SIM_SECONDS[name, seed]
            assert outcome.messages_sent == inline.messages_sent
            assert outcome.stable_state == inline.stable_state
