"""Property: blame root causes == the runtime WFG's deadlocked set.

The blame analysis rebuilds wait-for conditions from serialized trace
events and re-runs the liveness fixpoint; on directed deadlock
workloads its root-cause set must equal the set the runtime detector
reported, and all terminal blocked time must land on those ranks.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.obs.blame import check_agreement


def _send_ring(p, members, tag=99):
    """A blocking-send cycle among ``members``; others pair up safely."""
    members = sorted(members)
    nxt = {
        r: members[(i + 1) % len(members)] for i, r in enumerate(members)
    }

    def prog(r):
        if r.rank in nxt:
            # Blocking send before receive: deadlocks under strict
            # semantics (the detector's model), buffered at runtime.
            prev = members[(members.index(r.rank) - 1) % len(members)]
            yield r.send(dest=nxt[r.rank], tag=tag, nbytes=1024)
            yield r.recv(source=prev, tag=tag, nbytes=1024)
        yield r.finalize()

    return [prog] * p


def _crossed_recv_pair(p, a, b):
    """Ranks ``a`` and ``b`` both receive first: a runtime deadlock."""

    def prog(r):
        if r.rank == a:
            yield r.recv(source=b, tag=1, nbytes=16)
            yield r.send(dest=b, tag=1, nbytes=16)
        elif r.rank == b:
            yield r.recv(source=a, tag=1, nbytes=16)
            yield r.send(dest=a, tag=1, nbytes=16)
        yield r.finalize()

    return [prog] * p


@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(3, 8),
    offset=st.integers(0, 7),
    size=st.integers(2, 8),
    seed=st.integers(0, 1000),
)
def test_send_ring_roots_match_runtime(p, offset, size, seed):
    members = sorted({(offset + i) % p for i in range(min(size, p))})
    if len(members) < 2:
        members = [0, 1]
    report, outcome = Session(seed=seed).blame(_send_ring(p, members))
    assert outcome.has_deadlock
    assert check_agreement(report, outcome.deadlocked)
    assert set(report.root_causes) == set(outcome.deadlocked)
    # Every terminally blocked microsecond lands on a root cause.
    roots = set(report.root_causes)
    for iv in report.intervals:
        if iv.terminal:
            assert iv.blamed in roots
    assert report.attributed_ratio >= 0.9


@settings(max_examples=10, deadline=None)
@given(
    p=st.integers(2, 8),
    pair_seed=st.integers(0, 1000),
    seed=st.integers(0, 1000),
)
def test_crossed_receives_roots_match_runtime(p, pair_seed, seed):
    a = pair_seed % p
    b = (pair_seed // 7 + 1 + a) % p
    if a == b:
        b = (a + 1) % p
    report, outcome = Session(seed=seed).blame(_crossed_recv_pair(p, a, b))
    assert outcome.has_deadlock
    assert check_agreement(report, outcome.deadlocked)
    assert {a, b} <= set(report.root_causes)


@settings(max_examples=10, deadline=None)
@given(p=st.integers(2, 6), seed=st.integers(0, 1000))
def test_clean_pairs_report_no_roots(p, seed):
    def prog(r):
        partner = r.rank ^ 1
        if partner < r.size:
            if r.rank % 2 == 0:
                yield r.send(dest=partner, tag=3, nbytes=64)
                yield r.recv(source=partner, tag=3, nbytes=64)
            else:
                yield r.recv(source=partner, tag=3, nbytes=64)
                yield r.send(dest=partner, tag=3, nbytes=64)
        yield r.finalize()

    report, outcome = Session(seed=seed).blame([prog] * p)
    assert not outcome.has_deadlock
    assert not report.has_deadlock
    assert check_agreement(report, outcome.deadlocked)
