"""Observability flags and the ``repro stats`` subcommand, in-process.

The deadlocking workload here must exercise the full Figure 7 protocol
(PassSend/RecvActive traffic), so the tests use ``lammps``: fig2a and
wildcard deadlock through receives alone and send no PassSend records.
"""
import json

import pytest

from repro.cli import main
from repro.obs import read_jsonl
from repro.perf.timers import ALL_PHASES


def _counter_rows(out: str) -> dict:
    """Parse the message-traffic table into {type: sent} counts."""
    counts = {}
    for line in out.splitlines():
        tokens = line.split()
        if len(tokens) == 4 and tokens[1].replace(",", "").isdigit():
            counts[tokens[0]] = int(tokens[1].replace(",", ""))
    return counts


def test_demo_obs_deadlock_counters_and_phases(capsys):
    code = main(["demo", "lammps", "-n", "8", "--obs"])
    out = capsys.readouterr().out
    assert code == 1  # deadlock verdict is preserved under --obs
    assert "observability summary" in out

    counts = _counter_rows(out)
    assert counts.get("PassSend", 0) > 0
    assert counts.get("RecvActive", 0) > 0
    assert counts.get("RecvActiveAck", 0) > 0

    # All five canonical Fig. 10(b)/11(b) phases are reported.
    for phase in ALL_PHASES:
        assert phase in out


def test_demo_obs_trace_writes_loadable_chrome_trace(tmp_path, capsys):
    trace = tmp_path / "run.trace.json"
    jsonl = tmp_path / "run.events.jsonl"
    code = main([
        "demo", "lammps", "-n", "8",
        "--obs-trace", str(trace), "--out", str(jsonl), "--format", "jsonl",
    ])
    capsys.readouterr()
    assert code == 1

    with open(trace) as handle:
        doc = json.load(handle)
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    for event in doc["traceEvents"]:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
    meta = doc["repro"]
    assert meta["workload"] == "lammps"
    assert meta["deadlocked"] is True
    assert meta["metrics"]["counters"]["tbon.sent.PassSend"] > 0

    events = read_jsonl(str(jsonl))
    assert events
    assert any(e.cat == "engine.op" for e in events)
    assert any(e.cat == "tbon.deliver" for e in events)


def test_stats_deadlock_run_exit_one(tmp_path, capsys):
    trace = tmp_path / "run.trace.json"
    assert main(["demo", "lammps", "-n", "8", "--obs-trace", str(trace)]) == 1
    capsys.readouterr()

    code = main(["stats", str(trace)])
    out = capsys.readouterr().out
    assert code == 1
    assert "workload=lammps" in out
    assert "deadlock" in out
    assert "PassSend" in out
    for phase in ALL_PHASES:
        assert phase in out


def test_stats_clean_run_exit_zero(tmp_path, capsys):
    trace = tmp_path / "clean.trace.json"
    assert main(["demo", "stress", "-n", "4", "--obs-trace", str(trace)]) == 0
    capsys.readouterr()

    code = main(["stats", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "workload=stress" in out
    assert "verdict: clean" in out


def test_stats_missing_file_exit_two(tmp_path, capsys):
    code = main(["stats", str(tmp_path / "nope.trace.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot load run" in err.lower()


def test_stats_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.trace.json"
    bad.write_text("{not json")
    assert main(["stats", str(bad)]) == 2
    capsys.readouterr()

    no_meta = tmp_path / "nometa.trace.json"
    no_meta.write_text('{"traceEvents": []}')
    assert main(["stats", str(no_meta)]) == 2
    capsys.readouterr()


def test_record_obs_flags(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    obs_trace = tmp_path / "record.trace.json"
    code = main([
        "record", "fig2b", "-o", str(trace), "--obs-trace", str(obs_trace),
    ])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(obs_trace.read_text())
    # Recording runs only the engine: engine events, no TBON traffic.
    assert doc["repro"]["metrics"]["counters"]["engine.steps"] > 0
    assert not any(
        k.startswith("tbon.sent.")
        for k in doc["repro"]["metrics"]["counters"]
    )


def test_obs_disabled_by_default(capsys):
    code = main(["demo", "fig2a", "--fan-in", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "observability summary" not in out


def test_sharded_stats_table_totals_the_tool_messages(tmp_path, capsys):
    """The per-type table of a sharded run covers every tool message:
    its ``total`` row is the ``tool messages:`` line of the run."""
    trace = tmp_path / "sharded.trace.json"
    code = main([
        "demo", "stress", "-n", "16", "--backend", "sharded",
        "--obs-trace", str(trace),
    ])
    out = capsys.readouterr().out
    assert code == 0
    (line,) = [l for l in out.splitlines() if l.startswith("tool messages:")]
    messages = int(line.split()[2].rstrip(";").replace(",", ""))

    assert main(["stats", str(trace)]) == 0
    counts = _counter_rows(capsys.readouterr().out)
    assert counts["total"] == messages == 2016
    for mtype in ("NewOpMsg", "PassSend", "RecvActive", "RecvActiveAck"):
        assert counts.get(mtype, 0) > 0
