"""The verify fast path costs the same per operation at every scale.

``repro verify`` routes wildcard-free program sets through the
decidable-fragment classifier and the linear matcher instead of the
state-graph explorer. The claim that routing rests on is "O(n)": this
bench measures the fast path's cost per operation on three workload
shapes and scores that it does not grow with the input:

* **ping_pong_pairs** — directed pair ping-pong: many short channels.
* **collective_only** — barrier/allreduce waves: arrivals are counted,
  the last one releases the group.
* **deep_channel** — ``isend`` x n and one ``waitall`` against
  ``recv`` x n between two ranks, tags cycling, half the receives
  ``ANY_TAG``: every message is queued before the first receive, and
  one parked wait watches all n requests. (The matcher this replaced
  was quadratic here.)

All three classify SEQ-DETERMINISTIC, and the fast path and the
explorer must agree (deadlock-free) at every scale — the bench asserts
that before timing anything.

Scored claim: fast-path microseconds per operation at the largest
cell of each family <= 1.5x the smallest cell's. The explorer runs
beside it and the ratio between the two is printed, unscored: both
are drivers of one step function (`repro.analysis.matchcore`), so the
ratio prices the explorer's bookkeeping and would punish making the
explorer faster.
"""
import gc
import time

from repro.analysis.explore import explore_sequences
from repro.analysis.extract import extract_programs
from repro.analysis.symbolic import (
    Fragment,
    classify_extraction,
    decide_extraction,
)
from repro.mpi.constants import ANY_TAG
from repro.workloads.wildcard import ping_pong_pairs_programs

from _util import fmt_table, scale_points, write_result

PROCESS_COUNTS = scale_points(default=(16, 32, 64), full=(16, 64, 256))
#: Messages through the one deep channel (the ``p`` of its cells).
CHANNEL_DEPTHS = scale_points(
    default=(500, 2_000, 8_000), full=(2_000, 8_000, 32_000)
)
ROUNDS = 6
SAMPLES = 3
#: Scored bound on (us/op at the largest cell) / (us/op at the
#: smallest), per workload.
PER_OP_GROWTH_BOUND = 1.5


def _collective_only_programs(p, rounds=ROUNDS):
    def program(rank):
        for _ in range(rounds):
            yield rank.barrier()
            yield rank.allreduce()
        yield rank.finalize()

    return [program] * p


def _deep_channel_programs(n):
    def sender(rank):
        requests = []
        for i in range(n):
            requests.append((yield rank.isend(1, tag=i % 4)))
        yield rank.waitall(requests)
        yield rank.finalize()

    def receiver(rank):
        for i in range(n):
            yield rank.recv(source=0, tag=ANY_TAG if i % 2 else i % 4)
        yield rank.finalize()

    return [sender, receiver]


#: (family, program factory, scales).
WORKLOADS = (
    ("ping_pong_pairs", lambda p: ping_pong_pairs_programs(p, ROUNDS),
     PROCESS_COUNTS),
    ("collective_only", _collective_only_programs, PROCESS_COUNTS),
    ("deep_channel", _deep_channel_programs, CHANNEL_DEPTHS),
)


def _best_of(fn):
    best = None
    for _ in range(SAMPLES):
        gc.disable()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        gc.enable()
        if best is None or dt < best[0]:
            best = (dt, out)
    return best


def _measure(name, make, p):
    ext = extract_programs(make(p))
    classification = classify_extraction(ext)
    assert classification.fragment is Fragment.SEQ_DETERMINISTIC, (
        f"{name} p={p} fell out of the fragment: {classification.reason}"
    )
    fast_dt, fast = _best_of(lambda: decide_extraction(ext))
    slow_dt, slow = _best_of(
        lambda: explore_sequences(ext.sequences, ext.comms)
    )
    assert fast is not None
    assert fast.verdict is slow.verdict, (name, p)
    assert not fast.has_deadlock, (name, p)
    assert fast.stats.states_explored == 0
    total_ops = sum(len(s) for s in ext.sequences)
    return {
        "p": p,
        "ops": total_ops,
        "fast_ms": fast_dt * 1e3,
        "fast_us_per_op": fast_dt * 1e6 / total_ops,
        "explore_ms": slow_dt * 1e3,
        "states": slow.stats.states_explored,
        "speedup": slow_dt / fast_dt,
    }


def main():
    series = {}
    rows = []
    for name, make, scales in WORKLOADS:
        cells = [_measure(name, make, p) for p in scales]
        series[name] = cells
        for cell in cells:
            rows.append(
                (
                    name,
                    cell["p"],
                    cell["ops"],
                    f"{cell['fast_ms']:.2f}",
                    f"{cell['fast_us_per_op']:.2f}",
                    f"{cell['explore_ms']:.2f}",
                    cell["states"],
                    f"{cell['speedup']:.1f}x",
                )
            )
    lines = fmt_table(
        ("workload", "p", "ops", "fastpath ms", "us/op", "explore ms",
         "states", "explore/fast"),
        rows,
    )
    claims = []
    for name, cells in series.items():
        low, top = cells[0], cells[-1]
        growth = top["fast_us_per_op"] / low["fast_us_per_op"]
        ok = growth <= PER_OP_GROWTH_BOUND
        claims.append(
            f"{name}: fastpath {low['fast_us_per_op']:.2f} us/op at "
            f"p={low['p']}, {top['fast_us_per_op']:.2f} at p={top['p']}: "
            f"{growth:.2f}x (bound {PER_OP_GROWTH_BOUND}x) — "
            f"{'OK' if ok else 'FAIL'}"
        )
    lines += [""] + claims
    write_result(
        "classify_fastpath",
        lines,
        data={
            "rounds": ROUNDS,
            "samples": SAMPLES,
            "per_op_growth_bound": PER_OP_GROWTH_BOUND,
            "series": series,
        },
    )
    if any("FAIL" in c for c in claims):
        raise SystemExit(f"scored claim failed: {claims}")


if __name__ == "__main__":
    main()
