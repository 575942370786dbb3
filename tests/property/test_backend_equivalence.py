"""Property: the sharded backend is observationally equivalent to the
inline one.

The distributed protocol is confluent (``test_confluence``): given
per-channel FIFO delivery — which the batched cross-process transport
preserves — the terminal wait states, and therefore the root's
wait-for graph, do not depend on message interleaving. So running the
first-layer nodes in worker processes must yield the *identical*
verdict, WFG arc set, blame chain, and even tool-message count as the
single-process simulated network, for any trace and any shard count.
"""
import pytest

from repro.backend import InlineBackend, ShardedBackend
from repro.mpi.blocking import BlockingSemantics
from repro.runtime import run_programs
from repro.util.errors import MpiUsageError
from repro.workloads.randomgen import mutate_program_set, safe_program_set


def _random_matched_trace(seed: int):
    """A random 3-rank trace; every third one is mutated (may deadlock)."""
    gen = safe_program_set(
        p=3, events=8, seed=seed, allow_wildcards=True,
        allow_collectives=True,
    )
    if seed % 3 == 0:
        gen = mutate_program_set(gen, seed=seed + 999, mutations=1)
    try:
        res = run_programs(
            gen.programs(),
            semantics=BlockingSemantics.relaxed(),
            seed=seed,
        )
    except MpiUsageError:
        return None
    return res.matched


def _fingerprint(outcome):
    """Everything the analysis is *about*, interleaving-independent."""
    record = outcome.detection
    graph = record.graph
    nodes = frozenset(
        (rank, tuple(sorted(tuple(sorted(c)) for c in node.clauses)))
        for rank, node in (graph.nodes.items() if graph else ())
    )
    arcs = frozenset(graph.arcs()) if graph else frozenset()
    return {
        "deadlocked": tuple(outcome.deadlocked),
        "stable": outcome.stable_state,
        "wfg_nodes": nodes,
        "wfg_arcs": arcs,
        "blame": record.blame,
        "messages": outcome.messages_sent,
        "bytes": outcome.bytes_sent,
    }


@pytest.mark.parametrize("batch", range(6))
def test_sharded_matches_inline_on_random_programs(batch):
    """60 random programs (10 per batch), shards 2 and 4."""
    checked = 0
    seed = batch * 1000
    while checked < 10:
        seed += 1
        matched = _random_matched_trace(seed)
        if matched is None:
            continue
        checked += 1
        reference = _fingerprint(
            InlineBackend().run(matched, seed=seed, generate_outputs=False)
        )
        for shards in (2, 4):
            got = _fingerprint(
                ShardedBackend(shards=shards).run(
                    matched, seed=seed, generate_outputs=False
                )
            )
            assert got == reference, (
                f"seed {seed}, shards {shards}: sharded analysis "
                f"diverged from inline"
            )


def test_sharded_matches_inline_on_figure_8_symmetric_ping():
    """The paper's FIFO-sensitive case: symmetric wildcard pings.

    Cross-shard batching must not reorder per-channel traffic, or the
    wildcard matcher would pin different sources than inline.
    """
    from repro.workloads import wildcard_deadlock_programs

    res = run_programs(
        wildcard_deadlock_programs(8),
        semantics=BlockingSemantics.relaxed(),
        seed=7,
    )
    reference = _fingerprint(InlineBackend().run(res.matched, seed=7))
    for shards in (2, 3, 4, 8):
        got = _fingerprint(
            ShardedBackend(shards=shards).run(res.matched, seed=7)
        )
        assert got == reference


_LEDGER_PREFIXES = ("tbon.sent.", "tbon.sent_bytes.", "tbon.recv.")


def _observed_ledger(backend, matched, seed):
    """(outcome, per-type tbon counters, gauges) of an observed run."""
    from repro.obs.observer import make_observer

    observer = make_observer(True)
    outcome = backend.run(
        matched, seed=seed, generate_outputs=False, observer=observer
    )
    snapshot = observer.metrics.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith(_LEDGER_PREFIXES)
    }
    return outcome, counters, snapshot["gauges"]


@pytest.mark.parametrize("batch", range(3))
def test_obs_reports_the_same_traffic_on_both_backends(batch):
    """What ``--obs`` says about tool traffic does not depend on where
    the first layer ran: one ledger, by type, equal to the outcome."""
    checked = 0
    seed = batch * 1000
    while checked < 4:
        seed += 1
        matched = _random_matched_trace(seed)
        if matched is None:
            continue
        checked += 1
        _, reference, _ = _observed_ledger(InlineBackend(), matched, seed)
        for backend in (
            InlineBackend(), ShardedBackend(shards=2), ShardedBackend(shards=3)
        ):
            outcome, counters, gauges = _observed_ledger(
                backend, matched, seed
            )
            where = f"seed {seed}, {backend.describe()}"
            assert counters == reference, where
            for prefix, total in (
                ("tbon.sent.", outcome.messages_sent),
                ("tbon.sent_bytes.", outcome.bytes_sent),
                ("tbon.recv.", outcome.messages_sent),
            ):
                assert total == sum(
                    v for k, v in counters.items() if k.startswith(prefix)
                ), (where, prefix)
            assert gauges["tbon.messages_total"]["value"] == (
                outcome.messages_sent
            ), where
            assert gauges["tbon.bytes_total"]["value"] == outcome.bytes_sent
            assert gauges["tbon.peak_window"]["value"] == outcome.peak_window
