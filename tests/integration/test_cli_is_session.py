"""The commands that run the tool are ``repro.api.Session`` with
printing around it: same exit code, verdict line, report and artifact
metadata as the Session a caller builds by hand. Driven in-process."""
import json

import pytest

from repro.api import Session
from repro.cli import main
from repro.wfg.report import render_json_report
from repro.workloads.named import NAMED_WORKLOADS

RANKS = 8


def _canonical(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize(
    "backend,seed", [("inline", 0), ("inline", 7), ("sharded", 0)]
)
@pytest.mark.parametrize("workload", sorted(NAMED_WORKLOADS))
def test_demo_is_session_run(workload, backend, seed, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "demo", workload, "-n", str(RANKS), "--seed", str(seed),
        "--backend", backend, "--shards", "2", "--out", str(report),
    ])
    out = capsys.readouterr().out
    session = Session(seed=seed, backend=backend, shards=2)
    outcome = session.run(NAMED_WORKLOADS[workload](RANKS))
    record = outcome.detection

    assert code == (1 if outcome.has_deadlock else 0)
    assert (
        f"distributed verdict (fan-in 4, backend "
        f"{session.backend.describe()}): deadlocked ranks "
        f"{outcome.deadlocked or '()'}\n"
    ) in out
    # A clean run has no report of its own: the CLI renders the bare one.
    expected = _canonical(record.json_report or render_json_report(
        record.graph, record.result, record.conditions
    ))
    written = json.loads(report.read_text())
    tails = written["flight_tails"]
    assert sorted(tails) == sorted(str(r) for r in outcome.deadlocked)
    if backend == "sharded":
        # The workers' rings stamp their own clocks (PR 17).
        del written["flight_tails"], expected["flight_tails"]
    else:
        # The recorder saw the run and the detection: one ring, not two.
        for tail in tails.values():
            events = {entry["event"] for entry in tail}
            assert {"issue", "newOp"} <= events
    assert written == expected


# -- one metadata block --------------------------------------------------

#: The ``repro`` block of a trace artifact, in the order it is written.
META_KEYS = [
    "version", "dropped_events", "workload", "deadlocked", "ranks", "metrics",
]


def _meta(path):
    return json.loads(path.read_text())["repro"]


def test_every_writer_of_a_trace_artifact_fills_the_same_block(
    tmp_path, capsys
):
    trace = str(tmp_path / "t.json")
    recorded = tmp_path / "record.json"
    assert main(
        ["record", "fig2a", "-o", trace, "--obs-trace", str(recorded)]
    ) == 0
    meta = _meta(recorded)
    assert list(meta) == META_KEYS
    assert (meta["workload"], meta["deadlocked"], meta["ranks"]) == (
        "fig2a", False, 2
    )

    for flags in ([], ["--centralized"]):
        analyzed = tmp_path / "analyze.json"
        assert main(
            ["analyze", trace, "--obs-trace", str(analyzed), *flags]
        ) == 1
        meta = _meta(analyzed)
        assert list(meta) == META_KEYS
        # With --centralized the verdict is the reference's: the
        # session detected nothing.
        assert (meta["workload"], meta["deadlocked"], meta["ranks"]) == (
            None, True, 2
        )

    sharded = tmp_path / "sharded.json"
    assert main([
        "demo", "stress", "-n", "4", "--backend", "sharded",
        "--obs-trace", str(sharded),
    ]) == 0
    meta = _meta(sharded)
    assert list(meta) == META_KEYS + ["profile"]
    assert (meta["workload"], meta["deadlocked"], meta["ranks"]) == (
        "stress", False, 4
    )
    assert meta["profile"]["shards"]
    capsys.readouterr()


def test_a_session_that_only_recorded_knows_its_ranks(tmp_path):
    path = tmp_path / "session.json"
    session = Session(trace_out=str(path))
    session.record(NAMED_WORKLOADS["fig2b"](RANKS))
    session.export()
    meta = _meta(path)
    assert list(meta) == META_KEYS
    assert (meta["workload"], meta["deadlocked"], meta["ranks"]) == (
        None, False, 3
    )


def test_stats_names_the_workload_a_session_was_told(tmp_path, capsys):
    path = tmp_path / "session.json"
    session = Session(trace_out=str(path))
    session.run(NAMED_WORKLOADS["fig2a"](RANKS))
    session.export(workload="fig2a")
    assert main(["stats", str(path)]) == 1
    assert "run: workload=fig2a, " in capsys.readouterr().out
