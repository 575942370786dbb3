"""The CLI's public contract, pinned.

* every subcommand accepts the unified ``--out/--format/--backend/
  --shards`` quartet (``--format`` choices vary per command);
* the pre-1.1 spellings (``--json-out``, ``--obs-out``, ``--obs-jsonl``)
  were removed in 1.2 after their one-release alias window: passing
  one is a hard usage error (exit 2) whose message names the
  replacement, and nothing is written;
* the exit-code contract is unchanged: 0 clean, 1 deadlock/error
  finding, 2 usage error.
"""
import json
from pathlib import Path

import pytest

from repro.cli import _FORMATS, build_parser, main

FIG2A = 1  # fig2a always deadlocks -> exit 1


def _parse(argv):
    return build_parser().parse_args(argv)


class TestUnifiedFlags:
    COMMAND_STUBS = {
        "record": ["record", "fig2a", "-o", "x.json"],
        "analyze": ["analyze", "t.json"],
        "demo": ["demo", "fig2a"],
        "lint": ["lint", "x.py"],
        "verify": ["verify", "x.py"],
        "stats": ["stats", "run.json"],
        "blame": ["blame", "run.json"],
        "figures": ["figures"],
    }

    @pytest.mark.parametrize("command", sorted(COMMAND_STUBS))
    def test_every_subcommand_takes_the_quartet(self, command):
        argv = self.COMMAND_STUBS[command] + [
            "--out", "artifact",
            "--format", _FORMATS[command][0],
            "--backend", "sharded",
            "--shards", "4",
        ]
        args = _parse(argv)
        assert args.out == "artifact"
        assert args.backend == "sharded"
        assert args.shards == 4

    @pytest.mark.parametrize("command", sorted(COMMAND_STUBS))
    def test_unsupported_format_is_a_usage_error(self, command):
        unsupported = [
            f for f in ("json", "jsonl", "html", "dot")
            if f not in _FORMATS[command]
        ]
        if not unsupported:
            pytest.skip("command supports every format")
        with pytest.raises(SystemExit) as excinfo:
            _parse(
                self.COMMAND_STUBS[command]
                + ["--out", "x", "--format", unsupported[0]]
            )
        assert excinfo.value.code == 2

    def test_unknown_backend_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            _parse(["demo", "fig2a", "--backend", "turbo"])
        assert excinfo.value.code == 2

    def test_out_json_writes_the_deadlock_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["demo", "fig2a", "--out", str(out), "--format", "json"])
        assert code == FIG2A
        doc = json.loads(out.read_text())
        assert doc["deadlocked"] == [0, 1]

    def test_out_dot_and_html_route_to_the_renderers(self, tmp_path):
        dot = tmp_path / "wfg.dot"
        html = tmp_path / "report.html"
        assert main(
            ["demo", "fig2a", "--out", str(dot), "--format", "dot"]
        ) == FIG2A
        assert "digraph" in dot.read_text()
        assert main(
            ["demo", "fig2a", "--out", str(html), "--format", "html"]
        ) == FIG2A
        assert "<html" in html.read_text().lower()

    def test_out_jsonl_captures_the_event_stream(self, tmp_path):
        jsonl = tmp_path / "events.jsonl"
        assert main(
            ["demo", "fig2a", "--out", str(jsonl), "--format", "jsonl"]
        ) == FIG2A
        lines = jsonl.read_text().strip().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_record_accepts_out_as_the_trace_path(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["record", "fig2a", "--out", str(out)]) == 0
        assert json.loads(out.read_text())

    def test_record_without_any_output_is_a_usage_error(self, capsys):
        assert main(["record", "fig2a"]) == 2
        assert "output path" in capsys.readouterr().err


class TestShardedBackendFlag:
    def test_demo_sharded_reaches_the_inline_verdict(self, capsys):
        code = main(["demo", "fig2a", "--backend", "sharded", "--shards", "2"])
        assert code == FIG2A
        out = capsys.readouterr().out
        assert "deadlocked ranks (0, 1)" in out
        assert "backend sharded" in out

    def test_clean_workload_stays_exit_zero(self):
        assert main(
            ["demo", "stress", "-n", "4", "--backend", "sharded",
             "--shards", "2"]
        ) == 0

    def test_blame_live_accepts_the_backend_flag(self, tmp_path, capsys):
        prog = tmp_path / "dl.py"
        prog.write_text(
            "def worker(rank):\n"
            "    peer = 1 - rank.rank\n"
            "    yield rank.recv(source=peer)\n"
            "    yield rank.send(dest=peer)\n"
            "    yield rank.finalize()\n"
            "LINT_RANKS = 2\n"
        )
        code = main(
            ["blame", str(prog), "-n", "2", "--backend", "sharded",
             "--shards", "2"]
        )
        assert code == 1
        assert "rooted at ranks" in capsys.readouterr().out


class TestRemovedAliases:
    """The pre-1.1 alias spellings are hard errors since 1.2."""

    REPLACEMENTS = {
        "--json-out": "--out FILE --format json",
        "--obs-out": "--obs-trace FILE",
        "--obs-jsonl": "--out FILE --format jsonl",
    }

    @pytest.mark.parametrize("flag", sorted(REPLACEMENTS))
    def test_removed_flag_is_exit_2_and_writes_nothing(
        self, flag, tmp_path, capsys
    ):
        out = tmp_path / "old-artifact"
        code = main(["demo", "fig2a", flag, str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{flag} was removed" in err
        assert self.REPLACEMENTS[flag] in err

    def test_equals_form_is_also_rejected(self, tmp_path, capsys):
        code = main(["demo", "fig2a", f"--json-out={tmp_path / 'x'}"])
        assert code == 2
        assert "--json-out was removed" in capsys.readouterr().err

    def test_new_spellings_work_without_notices(self, tmp_path, capsys):
        trace = tmp_path / "new.trace.json"
        code = main(["demo", "fig2a", "--obs-trace", str(trace)])
        assert code == FIG2A
        err = capsys.readouterr().err
        assert json.loads(trace.read_text())["traceEvents"]
        assert "deprecated" not in err and "removed" not in err


class TestUnknownFeedVersions:
    """``repro stats``/``repro watch`` diagnose a feed with an unknown
    ``repro-*`` version as a file:line usage error (exit 2), never a
    stack trace."""

    def _feed(self, tmp_path, first_line):
        feed = tmp_path / "feed.jsonl"
        feed.write_text(first_line + "\n")
        return str(feed)

    def test_stats_unsupported_version_is_exit_2(self, tmp_path, capsys):
        feed = self._feed(
            tmp_path, '{"format": "repro-live/99", "kind": "header"}'
        )
        assert main(["stats", feed]) == 2
        err = capsys.readouterr().err
        assert f"{feed}:1:" in err
        assert "unsupported repro-live/99" in err
        assert "repro-live/1" in err  # names the supported version

    def test_stats_unknown_family_is_exit_2(self, tmp_path, capsys):
        feed = self._feed(
            tmp_path, '{"format": "repro-zorp/1", "kind": "header"}'
        )
        assert main(["stats", feed]) == 2
        err = capsys.readouterr().err
        assert f"{feed}:1:" in err
        assert "unknown document family repro-zorp/1" in err

    def test_watch_unsupported_version_is_exit_2(self, tmp_path, capsys):
        feed = self._feed(
            tmp_path, '{"format": "repro-live/99", "kind": "header"}'
        )
        assert main(["watch", feed]) == 2
        err = capsys.readouterr().err
        assert f"{feed}:1:" in err
        assert "unsupported repro-live/99" in err


class TestExitCodeContract:
    def test_clean_run_is_zero(self):
        assert main(["demo", "stress", "-n", "4"]) == 0

    def test_deadlock_is_one(self):
        assert main(["demo", "fig2a"]) == 1

    def test_unknown_workload_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["demo", "nope"])
        assert excinfo.value.code == 2

    def test_unreadable_trace_is_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["analyze", str(missing)]) == 2


class TestARankProgramThatRaises:
    """`blame FILE.py` and `watch FILE.py` run the user's code: an
    exception of the program's own is a usage error (one line, exit 2),
    not a traceback with exit 1 — which the contract reads as "deadlock
    found" and `watch` as SOFT-HANG. A bug of the tool keeps its
    traceback."""

    FIXTURES = Path(__file__).resolve().parents[1] / "fixtures/program_files"

    @pytest.mark.parametrize("command", ["blame", "watch"])
    def test_the_programs_own_exception_is_one_line_and_exit_2(
        self, command, capsys
    ):
        path = str(self.FIXTURES / "raising_program.py")
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert "rank program raised ValueError: user bug" in line
        assert line.endswith(f"({path}:6)")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", ["blame", "watch"])
    def test_an_mpi_usage_error_is_one_line_and_exit_2(self, command, capsys):
        path = str(self.FIXTURES / "usage_error_program.py")
        assert main([command, path, "-n", "2"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "reuses already-completed request 0" in line

    @pytest.mark.parametrize("command", ["blame", "watch"])
    def test_an_exception_of_the_tool_still_surfaces(
        self, command, monkeypatch
    ):
        import repro.runtime.engine as engine

        def broken(self, rank):
            raise RuntimeError("tool bug")

        monkeypatch.setattr(engine.Engine, "_step", broken)
        with pytest.raises(RuntimeError, match="tool bug"):
            main([command, str(self.FIXTURES / "one_program.py")])

    def test_a_protocol_error_under_watch_still_surfaces(self, monkeypatch):
        import repro.runtime.engine as engine
        from repro.util.errors import ProtocolError

        def broken(self, rank):
            raise ProtocolError("rank 0 woken twice before stepping")

        monkeypatch.setattr(engine.Engine, "_step", broken)
        with pytest.raises(ProtocolError):
            main(["watch", str(self.FIXTURES / "one_program.py")])

    def test_what_the_tools_own_code_raises_is_not_the_programs(
        self, tmp_path
    ):
        program = tmp_path / "calls_the_tool.py"
        program.write_text(
            "from repro.util.lazy import lazy_exports\n"
            "def meet(rank):\n"
            "    yield rank.barrier()\n"
            "    lazy_exports({}, None)  # KeyError inside util/lazy.py\n"
        )
        with pytest.raises(KeyError):
            main(["watch", str(program), "-n", "2"])
