"""Self-test of the end-to-end benchmark on ``--smoke`` sizes.

Run as ``pytest benchmarks/e2e`` from the repo root; the tier-1 suite
(``testpaths = ["tests"]``) does not collect it.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
import stats  # noqa: E402
from harness import Context  # noqa: E402
from recorder import ROOT_SPAN, Recorder, chrome_events  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full ``--smoke --trace`` run: (document, trace events)."""
    folder = tmp_path_factory.mktemp("e2e")
    out = folder / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    trace = json.loads((folder / "trace.json").read_text())
    return json.loads(out.read_text()), trace["traceEvents"], proc.stdout


def _driver_line(capsys, *argv):
    code = run.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_metric_table():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    gated = {m["name"]: m for m in BENCH["end_to_end"]}
    assert list(gated) == [m.name for m in metrics.GATED]
    for m in metrics.GATED:
        assert gated[m.name] == {
            "name": m.name, "unit": m.unit, "better": m.better,
            "bound": m.bound,
        }
    layered = {m["name"]: m for m in BENCH["per_layer"]}
    assert list(layered) == [m.name for m in metrics.TRACED]
    for m in metrics.TRACED:
        assert layered[m.name] == {
            "name": m.name, "unit": m.unit, "better": m.better,
        }
    for name in [*gated, *layered, *(w["name"] for w in BENCH["workloads"])]:
        assert NAME.match(name) and len(name) <= 64, name
    assert "setup_s" in gated and all(0 <= m["bound"] <= 0.25
                                      for m in gated.values())


def test_every_workload_and_metric_appears(smoke):
    doc, _events, printed = smoke
    assert set(doc["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    seen = set()
    for name, workload in doc["workloads"].items():
        assert workload["failed"] == 0, workload["failures"]
        assert workload["end_to_end"]["failed_share"]["value"] == 0
        for m in BENCH["end_to_end"]:
            entry = workload["end_to_end"][m["name"]]
            assert entry["unit"] == m["unit"] and entry["value"] > 0, (name, m)
            assert entry["n"] >= 1 and entry["q1"] <= entry["median"] <= entry["q3"]
            assert entry["bound"] == m["bound"]
        seen.update(workload["end_to_end"], workload["per_layer"])
    wanted = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert wanted <= seen, sorted(wanted - seen)
    for name in seen:
        assert NAME.match(name), name
        assert name in printed
    prov = doc["provenance"]
    assert prov["seed"] == 3 and prov["nproc"] >= 1
    assert {"commit", "python", "loadavg_start", "loadavg_end"} <= set(prov)


def test_exact_counts_follow_the_closed_forms(smoke):
    doc, _events, _printed = smoke
    storm = doc["workloads"]["wildcard_storm_p1024"]
    ranks = storm["input"]["ranks"]
    assert storm["per_layer"]["wfg.arcs"]["value"] == ranks * (ranks - 1)
    assert storm["per_layer"]["wfg.agg_arcs"]["value"] == 1
    straggler = doc["workloads"]["straggler_epochs_p512"]
    assert straggler["per_layer"]["core.epochs"]["value"] == 17
    # The static deciders never enter the runtime-side layers.
    verify = doc["workloads"]["verify_wildcard_p8"]["per_layer"]
    assert not any(k.startswith(("core.", "wfg.", "tbon.")) for k in verify)
    assert verify["analysis.states"]["value"] > 0


def test_trace_file_spans_carry_their_context(smoke):
    doc, events, _printed = smoke
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["args"]["workload"] for e in spans} == set(doc["workloads"])
    assert all(e["args"]["seed"] == 3 and e["dur"] >= 0 for e in spans)
    by_id = {(e["pid"], e["args"]["id"]): e for e in spans}
    for e in spans:
        parent = e["args"]["parent"]
        if parent is None:
            continue
        outer = by_id[(e["pid"], parent)]
        assert outer["ts"] <= e["ts"] + 1e-3
        assert e["ts"] + e["dur"] <= outer["ts"] + outer["dur"] + 1e-3
    for workload in doc["workloads"].values():
        layer = workload["per_layer"]
        assert layer["bench.unattributed_share"]["value"] < 0.10
        assert sum(workload["layer_self_s"].values()) > 0


def test_driver_line_has_exactly_the_contract_keys(capsys):
    for traced, wanted in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        code, line = _driver_line(
            capsys, "--workload", "straggler_epochs_p512", "--smoke",
            "--seed", "5", "--seconds", "1", "--trace", str(traced),
        )
        assert code == 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        if not traced:
            assert all(v["value"] > 0 for v in line["metrics"].values())


def test_a_wrong_expected_answer_fails_the_run(capsys, monkeypatch):
    right = oracle.wildcard_storm

    def wrong(p):
        answer = right(p)
        return oracle.Expected(
            deadlocked=answer.deadlocked, arcs=answer.arcs + 1, detections=1
        )

    monkeypatch.setattr(oracle, "wildcard_storm", wrong)
    code, line = _driver_line(
        capsys, "--workload", "wildcard_storm_p1024", "--smoke",
        "--seed", "0", "--seconds", "1", "--trace", "0",
    )
    assert code != 0
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]


def test_spans_nest_and_self_times_sum_to_the_parent():
    from repro.api import Session
    from repro.core import treenodes
    from repro.workloads import wildcard_deadlock_programs

    before = treenodes.detect_deadlock
    rec = Recorder("unit", seed=0)
    with rec.patched():
        assert treenodes.detect_deadlock is not before
        with rec.span(ROOT_SPAN):
            outcome = Session().run(wildcard_deadlock_programs(16))
    assert treenodes.detect_deadlock is before
    assert outcome.has_deadlock
    (root,) = rec.roots()
    names = {s["name"] for s in rec.spans}
    assert {"runtime.run_programs", "backend.inline_run", "core.detector_run",
            "wfg.build", "wfg.check", "wfg.render_dot"} <= names
    for span in rec.spans:
        if span["parent"] is not None:
            outer = rec.spans[span["parent"]]
            assert outer["start"] <= span["start"] <= span["end"] <= outer["end"]
    layers = rec.layer_self_times(root)
    assert sum(layers.values()) == pytest.approx(rec.duration(root), abs=1e-9)
    for span in rec.spans:
        kids = sum(rec.duration(c) for c in rec.children(span["id"]))
        assert rec.self_time(span["id"]) + kids == pytest.approx(
            rec.duration(span["id"]), abs=1e-9
        )
    assert len(chrome_events([rec.export()])) == len(rec.spans) + 1


def _gone(proc: subprocess.Popen) -> bool:
    return proc.poll() is not None


def test_serve_child_is_reaped_on_success_and_on_failure(monkeypatch, capsys):
    ctx = Context(seed=0, seconds=1, smoke=True)
    try:
        with serve_load.ServeDaemon(ctx) as daemon:
            proc = daemon.proc
            with daemon.client() as client:
                assert client.ping()
        assert _gone(proc)
        with pytest.raises(RuntimeError, match="boom"):
            with serve_load.ServeDaemon(ctx) as daemon:
                proc = daemon.proc
                raise RuntimeError("boom")
        assert _gone(proc)
    finally:
        ctx.cleanup()

    # A whole workload whose every job misses its answer still reaps.
    started = []
    start = serve_load.ServeDaemon.start

    def tracking_start(self):
        result = start(self)
        started.append(self.proc)
        return result

    monkeypatch.setattr(serve_load.ServeDaemon, "start", tracking_start)
    monkeypatch.setattr(
        oracle, "serve_job", lambda workload, ranks: oracle.Expected((0,))
    )
    with pytest.raises(RuntimeError, match="warm-up"):
        run.main(["--workload", "serve_mixed_2tenants", "--smoke",
                  "--seconds", "1", "--trace", "0"])
    capsys.readouterr()
    assert started and all(_gone(proc) for proc in started)


def test_stats_quartiles_tail_and_estimators():
    values = [float(v) for v in range(1, 201)]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == (50.25, 100.5, 150.75)
    assert stats.tail(values) == (95.0, 190.0)
    assert stats.tail(values[:100]) == (90.0, 90.0)
    assert stats.tail(values[:39]) is None
    assert stats.estimate(values, "p95") == 190.0
    assert stats.estimate([3.0, 1.0, 2.0], "median") == 2.0
    assert stats.spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert stats.quartiles([2.0, 1.0]) == (1.0, 1.5, 2.0)


def test_compare_tells_ok_worse_and_unresolved():
    import statistics

    import compare

    def entry(runs, better="lower", bound=0.10):
        return {"value": statistics.median(runs), "runs": runs, "better": better, "bound": bound}

    assert compare.judge(entry([1.00, 1.02]), entry([1.05, 1.03])) == "ok"
    assert compare.judge(entry([1.00, 1.02]), entry([1.20, 1.22])) == "worse"
    # Wide spread, overlapping passes: the documents cannot tell.
    assert compare.judge(entry([1.0, 1.3]), entry([1.1, 1.4])) == "unresolved"
    # Wide spread, but every pass of B beats every pass of A.
    assert compare.judge(entry([1.0, 1.3]), entry([0.7, 0.9])) == "ok"
    assert compare.judge(
        entry([100.0, 99.0], "higher"), entry([80.0, 81.0], "higher")
    ) == "worse"
    assert compare.judge(entry([0.0], bound=0.0), entry([0.0], bound=0.0)) == "ok"
    assert compare.judge(entry([0.0], bound=0.0), entry([0.1], bound=0.0)) == "worse"
