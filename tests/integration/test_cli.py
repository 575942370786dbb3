"""The command-line interface, driven in-process."""
import html
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.docs import validate_doc

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_demo_clean_workload_exit_zero(capsys):
    code = main(["demo", "stress", "-n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deadlocked ranks ()" in out


def test_demo_deadlock_exit_one(capsys):
    code = main(["demo", "fig2a", "--fan-in", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "deadlocked ranks (0, 1)" in out


def test_record_then_analyze_roundtrip(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["record", "fig2b", "-o", str(trace)]) == 0
    data = json.loads(trace.read_text())
    assert data["format"] == 1
    code = main(["analyze", str(trace), "--centralized"])
    out = capsys.readouterr().out
    assert code == 1
    assert "deadlocked ranks (0, 1, 2)" in out


def test_adapt_flag_reports_verdict(capsys):
    code = main(["demo", "fig4", "--adapt"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "verdict:" in out


def test_report_and_dot_artifacts(tmp_path, capsys):
    report = tmp_path / "report.html"
    dot = tmp_path / "wfg.dot"
    code = main([
        "demo", "wildcard", "-n", "8",
        "--report", str(report), "--dot", str(dot), "--simplify",
    ])
    assert code == 1
    assert report.read_text().startswith("<!DOCTYPE html>")
    text = dot.read_text()
    assert "except self" in text  # the simplified form

    capsys.readouterr()


@pytest.mark.parametrize("analysis", [[], ["--centralized"], ["--adapt"]])
def test_only_the_requested_reports_are_rendered(
    analysis, tmp_path, capsys, rendered
):
    """Each flag runs its own writer and no other; what a writer puts
    in its file does not depend on what else was asked for."""

    def demo(*flags):
        del rendered[:]
        code = main(["demo", "wildcard", "-n", "8", *analysis, *flags])
        assert code == 1
        assert "wait-for graph: 8 nodes, 56 arcs" in capsys.readouterr().out
        return sorted(set(rendered))

    files = {
        kind: tmp_path / f"all.{kind}"
        for kind in ("html", "dot", "json", "agg")
    }
    # The HTML report embeds the graph's DOT, written by the DOT writer.
    html_with_its_dot = ["write_dot", "write_html_report"]
    assert demo() == []
    assert demo("--dot", str(files["agg"]), "--simplify") == []
    assert "except self" in files["agg"].read_text()
    assert demo(
        "--report", str(files["html"]), "--dot", str(files["dot"])
    ) == html_with_its_dot
    assert demo("--out", str(files["json"]), "--format", "json") == [
        "render_json_report"
    ]
    for kind, flag, writers in (
        ("html", "--report", html_with_its_dot),
        ("dot", "--dot", ["write_dot"]),
    ):
        alone = tmp_path / f"alone.{kind}"
        assert demo(flag, str(alone)) == writers
        assert alone.read_bytes() == files[kind].read_bytes()
    both = tmp_path / "both.dot"
    assert demo(
        "--report", str(tmp_path / "r.html"), "--dot", str(both), "--simplify"
    ) == html_with_its_dot
    assert both.read_bytes() == files["agg"].read_bytes()

    embedded = files["html"].read_text().split("<pre>")[1].split("</pre>")[0]
    assert html.unescape(embedded) == files["dot"].read_text()
    doc = json.loads(files["json"].read_text())
    assert validate_doc(doc, "deadlock-report", check_keys=True) == (
        "deadlock-report", 1
    )


def test_callers_that_read_no_report_render_none(rendered):
    """`Session.blame` in live mode and a serve job take the verdict,
    the blame chain and a few integers from the outcome."""
    from repro.api import Session
    from repro.serve.jobs import Job, JobSpec, execute_job

    session = Session()
    _report, outcome = session.blame(
        str(EXAMPLES / "lammps_potential_deadlock.py"), ranks=12
    )
    assert outcome.deadlocked == tuple(range(12))
    spec = JobSpec(kind="workload", workload="wildcard", ranks=8)
    result = execute_job(session, Job(id="job-0", tenant="t", spec=spec))
    assert result["verdict"] == "deadlock"
    assert result["deadlocked"] == list(range(8))
    assert rendered == []


def test_figures_tables(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Figure 9" in out and "Figure 12" in out
    assert "121.pop2" in out
    assert "paper: 1.34x" in out


def test_unknown_workload_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["demo", "not-a-workload"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err and "fig2a" in err


def test_analyze_missing_trace_exits_two(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    assert "cannot load trace" in capsys.readouterr().err


def test_analyze_corrupt_trace_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": 999}")
    assert main(["analyze", str(bad)]) == 2
    assert "cannot load trace" in capsys.readouterr().err


def test_persistent_ring_workload(capsys):
    code = main(["demo", "persistent-ring", "-n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deadlocked ranks ()" in out


def test_checks_flag(capsys):
    code = main(["demo", "fig2a", "--checks"])
    out = capsys.readouterr().out
    assert code == 1
    assert "correctness checks" in out
    assert "missing-finalize" in out  # the hung ranks never finalize


class TestLint:
    def test_potential_deadlock_found_statically(self, capsys):
        path = str(EXAMPLES / "lammps_potential_deadlock.py")
        code = main(["lint", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "static-deadlock" in out
        assert "lammps_potential_deadlock.py:" in out
        assert "dependency cycle" in out

    def test_clean_example_exits_zero(self, capsys):
        path = str(EXAMPLES / "quickstart.py")
        code = main(["lint", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out

    def test_probe_against_a_blocking_send_is_clean(self, tmp_path, capsys):
        # A posted MPI_Send is what wakes the probe; the replay once
        # missed that and reported a cycle below its own all-p proof.
        src = tmp_path / "probe_send.py"
        src.write_text(
            "def program(rank):\n"
            "    if rank.rank == 0:\n"
            "        yield rank.probe(source=1, tag=3)\n"
            "        yield rank.recv(source=1, tag=3)\n"
            "    elif rank.rank == 1:\n"
            "        yield rank.send(0, tag=3)\n"
            "    yield rank.finalize()\n"
        )
        code = main(["lint", "-n", "2", str(src)])
        out = capsys.readouterr().out
        assert code == 0
        assert "proved-all-p" in out
        assert "static-deadlock" not in out

    def test_failed_test_then_wait_on_a_persistent_request_is_clean(
        self, tmp_path, capsys
    ):
        # The extractor once released the handle at the Test it had
        # just answered "not done" and reported the Start as leaked.
        src = tmp_path / "start_test_wait.py"
        src.write_text(
            "def program(rank):\n"
            "    peer = 1 - rank.rank\n"
            "    if rank.rank == 0:\n"
            "        h = yield rank.send_init(peer, tag=5)\n"
            "    else:\n"
            "        h = yield rank.recv_init(peer, tag=5)\n"
            "    yield rank.start(h)\n"
            "    flag, _ = yield rank.test(h)\n"
            "    if not flag:\n"
            "        yield rank.wait(h)\n"
            "    yield rank.request_free(h)\n"
            "    yield rank.finalize()\n"
        )
        code = main(["lint", "-n", "2", str(src)])
        out = capsys.readouterr().out
        assert code == 0
        assert "static-request-leak" not in out
        assert "0 error(s), 1 warning(s)/note(s)" in out  # the fragment note

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "absent.py")])
        assert code == 2
        assert "cannot analyze" in capsys.readouterr().err

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        code = main(["lint", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "syntax-error" in out

    def test_ast_findings_without_programs(self, tmp_path, capsys):
        src = tmp_path / "dropped.py"
        src.write_text(
            "def prog(rank):\n"
            "    rank.send(1, tag=0)\n"
            "    yield rank.finalize()\n"
        )
        code = main(["lint", str(src)])
        out = capsys.readouterr().out
        assert code == 1
        assert "unyielded-call" in out
        assert f"{src}:2" in out

    def test_recorded_hung_trace_reports_deadlock(self, tmp_path, capsys):
        trace = tmp_path / "fig2a.json"
        assert main(["record", "fig2a", "-o", str(trace)]) == 0
        capsys.readouterr()
        code = main(["lint", str(trace)])
        out = capsys.readouterr().out
        assert code == 1
        assert "static-deadlock" in out
        assert "dependency cycle 0 -> 1 -> 0" in out

    def test_recorded_clean_trace_is_clean(self, tmp_path, capsys):
        trace = tmp_path / "stress.json"
        assert main(["record", "stress", "-n", "4", "-o", str(trace)]) == 0
        capsys.readouterr()
        code = main(["lint", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out

    def test_corrupt_trace_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["lint", str(bad)]) == 2
        assert "cannot analyze" in capsys.readouterr().err

    def test_multiple_paths_worst_exit_wins(self, capsys):
        clean = str(EXAMPLES / "quickstart.py")
        dead = str(EXAMPLES / "lammps_potential_deadlock.py")
        code = main(["lint", clean, dead])
        out = capsys.readouterr().out
        assert code == 1
        assert "clean" in out and "static-deadlock" in out

    def test_verbose_prints_notes(self, tmp_path, capsys):
        src = tmp_path / "noprog.py"
        src.write_text("X = 1\n")
        code = main(["lint", "-v", str(src)])
        out = capsys.readouterr().out
        assert code == 0
        assert "note:" in out and "AST lint only" in out
