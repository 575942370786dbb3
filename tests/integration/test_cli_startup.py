"""A cold ``repro <command>`` imports what that command runs, pinned as
module sets rather than timings.

Each case is a child interpreter that calls ``repro.cli.main`` and
prints ``sys.modules``. The ``startup-smoke`` CI job greps the same
prefixes out of ``python -X importtime`` logs.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, _FORMATS, build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]
LAMMPS = REPO_ROOT / "examples" / "lammps_potential_deadlock.py"

#: Prefixes no client or listing command may load.
ANALYSIS_STACK = (
    "repro.core", "repro.runtime", "repro.analysis", "repro.backend",
    "repro.tbon", "repro.wfg", "repro.matching", "multiprocessing",
    "asyncio",
)
#: What an inline ``analyze`` without ``--obs`` has no use for.
NOT_FOR_INLINE_ANALYZE = (
    "repro.analysis", "repro.serve", "repro.backend.sharded",
    "multiprocessing", "repro.obs.live", "repro.obs.health",
    "repro.obs.dist", "repro.obs.prof", "repro.obs.stats",
    "repro.obs.exporters", "repro.obs.timeline", "repro.runtime",
)
NOT_FOR_VERIFY = ("repro.serve", "repro.backend.sharded", "multiprocessing")
#: The driver of the commands that run the tool, and what it drives.
#: ``verify`` and ``lint`` check their findings with ``repro.core``'s
#: centralized reference, which brings the detector module along.
DRIVER = ("repro.api", "repro.backend", "repro.core.detector")

_CHILD = """
import contextlib, io, json, sys
from repro.cli import main
out = io.StringIO()
try:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "out": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""


def _cold(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *map(str, argv)],
        capture_output=True, text=True, timeout=120, cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded(run, prefixes):
    return [
        m for m in run["modules"]
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


@pytest.mark.parametrize(
    "argv", [["--help"], ["submit", "--help"], ["jobs", "--help"]]
)
def test_help_and_the_clients_load_no_analysis_stack(argv):
    run = _cold(*argv)
    assert run["code"] == 0 and "usage: repro" in run["out"]
    assert _loaded(run, ANALYSIS_STACK) == []
    ours = _loaded(run, ("repro",))
    assert len(ours) <= 8, ours


def test_top_level_help_lists_every_command_without_importing_any():
    run = _cold("--help")
    for name, _module, help_line in COMMANDS:
        assert name in run["out"]
        assert " ".join(help_line.split()[:3]) in " ".join(run["out"].split())
    assert _loaded(run, {module for _, module, _ in COMMANDS}) == []


@pytest.mark.parametrize("workload", ["stress", "fig2a"])
def test_inline_analyze_loads_only_the_inline_tool(tmp_path, workload):
    trace = tmp_path / "t.json"
    assert _cold("record", workload, "-n", "4", "-o", trace)["code"] == 0
    run = _cold("analyze", trace)
    assert run["code"] == (1 if workload == "fig2a" else 0)
    assert "distributed verdict" in run["out"]
    forbidden = NOT_FOR_INLINE_ANALYZE
    if workload == "fig2a":
        # A deadlock's blame chain comes from obs.causal, whose event
        # analysis (not used here) builds on obs.timeline.
        forbidden = tuple(p for p in forbidden if p != "repro.obs.timeline")
    assert _loaded(run, forbidden) == []


def test_verify_with_replay_loads_no_service_and_no_sharded_backend():
    run = _cold("verify", LAMMPS, "--replay")
    assert run["code"] == 1 and "replay: confirmed" in run["out"]
    assert _loaded(run, NOT_FOR_VERIFY) == []


@pytest.mark.parametrize("command,loads_detector", [
    ("verify", True), ("lint", True), ("prove", False), ("classify", False),
])
def test_the_static_commands_load_no_driver(command, loads_detector):
    flags = ["--obs"] if command in ("verify", "prove") else []
    run = _cold(command, LAMMPS, *flags)
    assert run["code"] == (0 if command == "classify" else 1)
    allowed = ["repro.core.detector"] if loads_detector else []
    assert _loaded(run, DRIVER) == allowed


@pytest.mark.parametrize("command", ["blame", "watch"])
def test_running_a_program_file_loads_no_static_analysis(command):
    """The runners open a ``.py`` file through ``repro.programfile``,
    which is the discovery rule of ``repro lint`` without the package
    that lints."""
    run = _cold(command, LAMMPS, "-n", "4")
    assert run["code"] == (1 if command == "blame" else 2)
    assert "rooted at ranks (0, 1, 2, 3" in run["out"]
    assert "repro.programfile" in run["modules"]
    assert _loaded(run, ("repro.analysis",)) == []


def test_submit_reaches_for_the_client_only_when_it_runs():
    run = _cold("submit", "fig2a", "--server", "127.0.0.1:1")
    assert run["code"] == 2 and "cannot connect" in run["out"]
    assert _loaded(run, ANALYSIS_STACK) == []
    assert "repro.serve.client" in run["modules"]
    assert "repro.serve.service" not in run["modules"]


def test_the_table_the_parser_and_the_formats_agree():
    names = [name for name, _, _ in COMMANDS]
    assert len(names) == len(set(names)) == 15
    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    ]
    assert list(subparsers.choices) == names
    assert set(_FORMATS) == set(names) - {"serve"}
    for name in names:  # every command got its arguments and its run
        assert callable(subparsers.choices[name].get_default("func"))
    # Built for one command, the others stay listed but empty.
    one = build_parser("demo")._actions[-1].choices
    assert list(one) == names
    assert one["demo"].get_default("func") is not None
    assert one["verify"].get_default("func") is None
