"""The ``repro.api`` facade: AnalysisConfig, Session, and the v1
removal of the legacy free-function names."""
import json
from pathlib import Path

import pytest

import repro
from repro.api import AnalysisConfig, Session
from repro.backend import InlineBackend, ShardedBackend
from repro.workloads import (
    fig2a_programs,
    lammps_skeleton_programs,
    stress_programs,
    wildcard_deadlock_programs,
)

LAMMPS = str(
    Path(__file__).resolve().parents[2]
    / "examples" / "lammps_potential_deadlock.py"
)


class TestAnalysisConfig:
    def test_defaults_build_the_inline_backend(self):
        config = AnalysisConfig()
        assert isinstance(config.build_backend(), InlineBackend)
        assert not config.observability_wanted

    def test_backend_selection(self):
        config = AnalysisConfig(backend="sharded", shards=4)
        backend = config.build_backend()
        assert isinstance(backend, ShardedBackend)
        assert backend.shards == 4

    def test_replace_returns_a_new_value(self):
        config = AnalysisConfig()
        other = config.replace(fan_in=8)
        assert other.fan_in == 8 and config.fan_in == 4

    def test_sinks_imply_observability(self):
        assert AnalysisConfig(trace_out="x.json").observability_wanted
        assert AnalysisConfig(jsonl_out="x.jsonl").observability_wanted

    def test_frozen(self):
        with pytest.raises(Exception):
            AnalysisConfig().fan_in = 8

    def test_the_profile_sink_nobody_could_read_is_gone(self):
        import dataclasses

        assert len(dataclasses.fields(AnalysisConfig)) == 19
        with pytest.raises(TypeError):
            AnalysisConfig(profile_out="p.json")


class TestSession:
    def test_record_analyze_pipeline(self):
        session = Session()
        run = session.record(fig2a_programs())
        assert session.last_run is run
        outcome = session.analyze()
        assert outcome.deadlocked == (0, 1)
        assert session.last_outcome is outcome

    def test_run_is_record_plus_analyze(self):
        outcome = Session().run(fig2a_programs())
        assert outcome.has_deadlock

    def test_analyze_without_record_raises(self):
        with pytest.raises(ValueError, match="record a run first"):
            Session().analyze()

    def test_analyze_accepts_a_matched_trace(self):
        session = Session()
        run = session.record(stress_programs(4, iterations=3))
        outcome = session.analyze(run.matched)
        assert not outcome.has_deadlock

    def test_overrides_win_over_config(self):
        session = Session(AnalysisConfig(fan_in=8), backend="sharded")
        assert session.config.fan_in == 8
        assert isinstance(session.backend, ShardedBackend)

    def test_sharded_session_reaches_the_same_verdict(self):
        outcome = Session(backend="sharded", shards=2).run(fig2a_programs())
        assert outcome.deadlocked == (0, 1)

    def test_context_manager_exports_sinks(self, tmp_path):
        trace = tmp_path / "session.trace.json"
        jsonl = tmp_path / "session.jsonl"
        with Session(
            trace_out=str(trace), jsonl_out=str(jsonl)
        ) as session:
            session.run(fig2a_programs())
        doc = json.loads(trace.read_text())
        assert doc["repro"]["deadlocked"] is True
        assert doc["traceEvents"]
        assert jsonl.read_text().strip()

    def test_export_is_idempotent(self, tmp_path):
        trace = tmp_path / "once.trace.json"
        session = Session(trace_out=str(trace))
        session.run(fig2a_programs())
        session.export()
        stamp = trace.stat().st_mtime_ns
        trace.unlink()
        session.export()  # second call must not rewrite
        assert not trace.exists()
        assert stamp


class TestBlameRunsOnTheSession:
    """Live-mode blame is ``Session.run`` on an observing session plus
    the event analysis: backend, seed, fan-in, flight recorder and live
    monitor are the session's."""

    def test_a_sharded_session_blames_on_its_own_backend(self):
        session = Session(backend="sharded", shards=2)
        report, outcome = session.blame(LAMMPS, ranks=8)
        assert session.backend.last_timing is not None
        inline, _ = Session().blame(LAMMPS, ranks=8)
        assert report.root_causes == inline.root_causes == tuple(range(12))
        assert outcome.deadlocked == tuple(report.root_causes)
        assert session.last_outcome is outcome

    def test_a_live_session_sees_the_blame_run(self):
        session = Session(live=True, live_every_steps=16)
        report, outcome = session.blame(lammps_skeleton_programs(8))
        assert report.root_causes == outcome.deadlocked == tuple(range(8))
        assert session.last_run is not None
        names = {event.name for event in session.observer.tracer.events}
        assert {"engine.run", "NewOpMsg"} <= names
        assert session.flight.count(0) > 0
        assert session.live.snapshots

    def test_a_serve_blame_job_runs_on_the_worker_session(self):
        from repro.serve.jobs import Job, JobSpec, execute_job

        session = Session(backend="sharded", shards=2, live=True)
        with open(LAMMPS, encoding="utf-8") as handle:
            spec = JobSpec(
                kind="program", op="blame", source=handle.read(), ranks=8
            )
        result = execute_job(session, Job(id="job-0", tenant="t", spec=spec))
        assert result["verdict"] == "deadlock" and result["exit_code"] == 1
        assert result["root_causes"] == list(range(12))
        assert session.backend.last_timing is not None
        assert session.live.snapshots


class TestReportsRenderWhenRead:
    """A detection's DOT, HTML and JSON cost something only once
    somebody reads them, and then once."""

    def test_run_calls_no_renderer_until_a_report_is_read(self, rendered):
        record = Session().run(wildcard_deadlock_programs(8)).detection
        assert record.has_deadlock and record.blame
        assert rendered == []
        assert record.dot_text.startswith("digraph wfg {")
        assert rendered == ["render_dot", "write_dot"]
        del rendered[:]
        assert record.json_report["deadlocked"] == list(range(8))
        assert rendered == ["render_json_report"]

    def test_a_report_is_rendered_once_and_timed_once(self):
        record = Session().run(wildcard_deadlock_programs(8)).detection

        def output_s():
            return record.timers.breakdown()["output_generation"]

        # A deadlock's breakdown carries the phase before any report.
        before = output_s()
        first = record.html_report
        after = output_s()
        assert after > before >= 0
        assert record.html_report is first
        assert output_s() == after
        assert record.dot_text is not None
        assert output_s() > after

    def test_an_observed_run_sees_late_renders_in_its_phase_histogram(self):
        session = Session(observe=True)
        record = session.run(wildcard_deadlock_programs(8)).detection

        def observed():
            histograms = session.metrics_snapshot()["histograms"]
            return {
                phase: histograms["detection.phase." + phase]
                for phase in record.timers.breakdown()
            }

        # One observation per phase per detection, the output phase's
        # being the flight-tail snapshot ...
        at_detection = observed()
        assert len(at_detection) == 5
        assert {h["count"] for h in at_detection.values()} == {1}
        for _read in range(2):
            assert record.html_report and record.dot_text
        # ... and one more of the output phase per report rendered
        # (a second read renders nothing).
        after = observed()
        output = after.pop("output_generation")
        assert output["count"] == 3
        del at_detection["output_generation"]
        assert after == at_detection
        assert output["sum"] == pytest.approx(
            record.timers.breakdown()["output_generation"]
        )

    def test_clean_runs_and_generate_outputs_false_read_none(self, rendered):
        clean = Session().run(stress_programs(4, iterations=3)).detection
        off = Session(generate_outputs=False).run(
            wildcard_deadlock_programs(8)
        ).detection
        assert off.has_deadlock and not clean.has_deadlock
        for record in (clean, off):
            assert record.dot_text is None
            assert record.html_report is None
            assert record.json_report is None
        assert off.flight_tails == {}
        assert "output_generation" not in clean.timers.breakdown()
        assert rendered == []

    def test_sharded_reports_are_read_after_the_workers_exited(self):
        programs = lammps_skeleton_programs(12)
        inline = Session(seed=3).run(programs).detection
        with Session(seed=3, backend="sharded", shards=2) as session:
            sharded = session.run(programs).detection
        assert sharded.dot_text == inline.dot_text
        # The tails were gathered from the workers' rings while they
        # ran (their clocks and sequence numbers are the workers' own).
        assert sorted(sharded.flight_tails) == list(range(12))
        for rank, tail in sharded.flight_tails.items():
            assert tail[-1]["event"] == "blocked@detection"
            assert f"<h3>Rank {rank} ({len(tail)} event(s))</h3>" in (
                sharded.html_report
            )
        doc, want = dict(sharded.json_report), dict(inline.json_report)
        assert doc.pop("flight_tails") == {
            str(rank): tail for rank, tail in sharded.flight_tails.items()
        }
        del want["flight_tails"]
        assert doc == want

    def test_reports_survive_the_sessions_next_job(self):
        session = Session()
        first = session.run(lammps_skeleton_programs(12)).detection
        expected = Session().run(lammps_skeleton_programs(12)).detection
        session.reset()
        second = session.run(wildcard_deadlock_programs(8)).detection
        assert second.html_report != expected.html_report
        # Rendered only now, with the first job's tails and blame chain.
        assert first.flight_tails == expected.flight_tails != {}
        assert first.html_report == expected.html_report
        assert first.json_report == expected.json_report


class TestRemovedLegacyNames:
    """The 1.1 deprecation shims are gone: importing the legacy free
    functions from ``repro`` raises AttributeError naming the Session
    replacement (pinned by the v1 API consolidation)."""

    @pytest.mark.parametrize(
        "name",
        ["run_programs", "analyze_trace", "detect_deadlocks_distributed"],
    )
    def test_legacy_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match="Session"):
            getattr(repro, name)
        with pytest.raises(AttributeError, match="removed in 1.2"):
            getattr(repro, name)

    @pytest.mark.parametrize(
        "name",
        ["run_programs", "analyze_trace", "detect_deadlocks_distributed"],
    )
    def test_legacy_import_raises(self, name):
        with pytest.raises(ImportError):
            exec(f"from repro import {name}")

    def test_legacy_names_left_all(self):
        assert "run_programs" not in repro.__all__
        assert "analyze_trace" not in repro.__all__
        assert "detect_deadlocks_distributed" not in repro.__all__

    def test_other_unknown_attributes_still_raise_plainly(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_name

    def test_home_modules_keep_the_originals(self):
        from repro.core import analyze_trace, detect_deadlocks_distributed
        from repro.runtime import run_programs

        result = run_programs(fig2a_programs())
        assert result.deadlocked
        assert analyze_trace(result.matched).deadlocked == (0, 1)
        assert detect_deadlocks_distributed(
            result.matched
        ).deadlocked == (0, 1)
