"""Figure 10: graph-detection time for the wildcard deadlock case.

Every process posts a wildcard receive with no sends: the wait-for
graph has p*(p-1) arcs. The bench runs the full distributed tool
(consistent-state protocol, WFG gather, build, check, and the HTML
report with its embedded DOT graph: MUST writes its report when it
detects, so the timed call reads it) per scale and reports (a) total
detection time and (b) the breakdown into the paper's five activity
groups — the reproduced claims being that total time grows roughly
quadratically and that output generation dominates (~75% in the paper)
at scale while synchronization stays negligible.

Synchronization and WFG-gather phases are simulated-network times;
graph build / deadlock check / output generation are real measured
computation at the root.
"""
import pytest

from repro.core.detector import DistributedDeadlockDetector
from repro.obs import make_observer
from repro.obs.stats import PHASE_PREFIX
from repro.workloads import build_wildcard_trace

from _util import fmt_table, scale_points, write_result

PROCESS_COUNTS = scale_points(
    default=(64, 128, 256, 512, 1024),
    full=(64, 128, 256, 512, 1024, 2048, 4096),
)

_collected = {}


@pytest.mark.parametrize("p", PROCESS_COUNTS)
def test_fig10_detection_time(benchmark, p):
    matched = build_wildcard_trace(p)
    observer = make_observer()

    def detect():
        detector = DistributedDeadlockDetector(
            matched, fan_in=4, seed=0, observer=observer
        )
        out = detector.run()
        # Reports are rendered when read; the figure times a detection
        # that produces its report.
        assert out.detection.html_report
        return out

    out = benchmark.pedantic(detect, rounds=1, iterations=1)
    record = out.detection
    assert record.has_deadlock
    assert record.graph.arc_count() == p * (p - 1)
    # The phase breakdown now comes from the obs metrics registry (the
    # generalization of PhaseTimers) rather than the record's timers.
    snapshot = observer.metrics.snapshot()
    _collected[p] = {
        name[len(PHASE_PREFIX):]: summary["sum"]
        for name, summary in snapshot["histograms"].items()
        if name.startswith(PHASE_PREFIX)
    }

    if p == PROCESS_COUNTS[-1]:
        _emit()


def _emit():
    phases = [
        "synchronization",
        "wfg_gather",
        "graph_build",
        "deadlock_check",
        "output_generation",
    ]
    rows_total = []
    rows_share = []
    for p, breakdown in sorted(_collected.items()):
        total = sum(breakdown.values())
        rows_total.append(
            [p, f"{total:.3f}"]
            + [f"{breakdown.get(ph, 0.0):.4f}" for ph in phases]
        )
        rows_share.append(
            [p]
            + [
                f"{100.0 * breakdown.get(ph, 0.0) / total:.1f}%"
                for ph in phases
            ]
        )
    write_result(
        "fig10a_wildcard_total",
        fmt_table(["procs", "total_s"] + phases, rows_total),
        data={
            "params": {"fan_in": 4, "procs": sorted(_collected)},
            "phase_breakdown_s": {
                str(p): bd for p, bd in sorted(_collected.items())
            },
        },
    )
    write_result(
        "fig10b_wildcard_breakdown",
        fmt_table(["procs"] + phases, rows_share),
        data={
            "params": {"fan_in": 4, "procs": sorted(_collected)},
            "phases": phases,
            "shares_pct": {
                str(p): {
                    ph: 100.0 * bd.get(ph, 0.0) / sum(bd.values())
                    for ph in phases
                }
                for p, bd in sorted(_collected.items())
            },
        },
    )
    # Shape checks at the largest default scale.
    biggest = _collected[max(_collected)]
    total = sum(biggest.values())
    assert biggest["output_generation"] / total > 0.35, (
        "output generation must dominate at scale"
    )
    assert biggest["synchronization"] / total < 0.05, (
        "synchronization must be negligible"
    )
    smallest_total = sum(_collected[min(_collected)].values())
    assert total > smallest_total, "detection time must grow with p"
