"""One reader of rank-program files: every command that takes a ``.py``
file reads the same programs out of it.

The table is fixture files (``tests/fixtures/program_files``) x
commands. What a command *read* is observed where programs leave the
reader, not in what the command happens to print: the program sets that
reach ``repro.analysis.driver.extract_programs`` (``lint``, ``verify``)
or ``repro.api._run_programs`` (``blame``, ``watch``, ``Session.blame``,
the ``analyze`` and ``blame`` ops of ``repro serve``), as lists of
function names, one per rank; for ``classify`` and ``prove``, which run
nothing, the program names they print. ``benchmarks/diff cli`` runs
the same files through the same commands as a differential. The
``bad_call_*`` fixtures hold calls ``Rank`` rejects and have a table of
their own: no command reads such a call as one that would have run.
"""
import ast
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

from repro.api import Session
from repro.cli import main
from repro.serve.jobs import Job, JobError, JobSpec, execute_job
from repro.util.errors import ReproError

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "program_files"

SHIFT4 = ("shift",) * 4


@dataclass(frozen=True)
class Case:
    """One fixture file and what it means, at ``-n 4``."""

    #: Programs the discovery rule finds (``classify``/``prove`` names).
    discovered: Tuple[str, ...]
    #: The file's jobs, each one function name per rank.
    jobs: Tuple[Tuple[str, ...], ...]
    #: Exit codes of lint, classify, prove, verify.
    static_exits: Tuple[int, int, int, int]
    #: What `Session.run` finds deadlocked in the one job, or None when
    #: a runner has no job to run and must refuse with these words.
    deadlocked: Optional[Tuple[int, ...]] = None
    refusal: Tuple[str, ...] = ()
    #: Whether the static commands execute the file at all.
    imports_ok: bool = True


CASES: Dict[str, Case] = {
    "one_program": Case(
        ("shift",), (SHIFT4,), (0, 0, 0, 0), deadlocked=(),
    ),
    "helper_generator": Case(
        ("shift",), (SHIFT4,), (1, 0, 1, 1), deadlocked=(0, 1, 2, 3),
    ),
    "dataclass_annotations": Case(
        ("ring",), (("ring",) * 4,), (0, 0, 0, 0), deadlocked=(),
    ),
    "two_programs": Case(
        ("shift", "ring"), (SHIFT4, ("ring",) * 4), (1, 0, 1, 1),
        refusal=("shift", "ring", "LINT_PROGRAMS"),
    ),
    "lint_programs": Case(
        ("root", "leaf"), (("root", "leaf", "leaf"),), (0, 0, 1, 0),
        deadlocked=(),
    ),
    "no_program": Case(
        (), (), (0, 0, 0, 0), refusal=("no rank programs found",),
    ),
    "exit_at_import": Case(
        ("meet",), (), (0, 0, 0, 2), imports_ok=False,
        refusal=("module exited during import",),
    ),
    "raise_at_import": Case(
        ("meet",), (), (0, 0, 0, 2), imports_ok=False,
        refusal=("broken at import",),
    ),
    "syntax_error": Case(
        (), (), (1, 2, 2, 2), imports_ok=False,
        refusal=("'(' was never closed",),
    ),
}

STATIC = ("lint", "classify", "prove", "verify")


def _path(name: str) -> str:
    return str(FIXTURES / f"{name}.py")


def _jobs(seen) -> Tuple[Tuple[str, ...], ...]:
    """Program sets as the table spells them: one name per rank."""
    return tuple(
        tuple(program.__name__ for program in programs) for programs in seen
    )


@pytest.fixture
def seen(monkeypatch):
    """Every program set a command extracts or runs."""
    import repro.analysis.driver as driver
    import repro.api as api

    sets = []

    def spy(module, attribute):
        original = getattr(module, attribute)

        def wrapper(programs, *args, **kwargs):
            sets.append(list(programs))
            return original(programs, *args, **kwargs)

        monkeypatch.setattr(module, attribute, wrapper)

    spy(driver, "extract_programs")
    spy(api, "_run_programs")
    return sets


@pytest.fixture(autouse=True)
def no_program_file_stays_unexecuted():
    sys.__dict__.pop("no_program_fixture_executed", None)
    yield
    sys.__dict__.pop("no_program_fixture_executed", None)


def _printed_names(out: str) -> Tuple[str, ...]:
    """Program names of a ``classify``/``prove`` listing."""
    return tuple(re.findall(r"^  (\w+): ", out, flags=re.M))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("command", STATIC)
def test_static_commands_read_the_same_programs(
    command, name, seen, capsys
):
    case = CASES[name]
    code = main([command, _path(name), "-v"] if command != "verify"
                else [command, _path(name)])
    captured = capsys.readouterr()
    assert code == case.static_exits[STATIC.index(command)], captured
    assert "Traceback" not in captured.out + captured.err
    if command in ("classify", "prove"):
        if code != 2:
            assert _printed_names(captured.out) == case.discovered
        assert seen == []
    else:
        assert _jobs(seen) == case.jobs
    assert not hasattr(sys, "no_program_fixture_executed")


def _runner_exit(case: Case, command: str) -> int:
    if case.deadlocked is None:
        return 2
    if command == "watch":  # DEADLOCK-CONFIRMED is watch's exit 2
        return 2 if case.deadlocked else 0
    return 1 if case.deadlocked else 0


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("command", ["blame", "watch"])
def test_runner_commands_run_the_job_lint_reads(
    command, name, seen, capsys
):
    case = CASES[name]
    code = main([command, _path(name), "-n", "4"])
    captured = capsys.readouterr()
    assert code == _runner_exit(case, command), captured
    assert "Traceback" not in captured.out + captured.err
    if case.deadlocked is None:
        assert seen == []
        for word in case.refusal:
            assert word in captured.err
    else:
        assert _jobs(seen) == case.jobs
        roots = f"ranks {case.deadlocked}" if case.deadlocked else (
            "no deadlock" if command == "blame" else "PROGRESSING"
        )
        assert roots in captured.out


@pytest.mark.parametrize(
    "name", [n for n in sorted(CASES) if CASES[n].deadlocked is not None]
)
def test_session_blame_and_serve_give_session_runs_verdict(name, seen):
    """The runners' verdict on a file is `Session.run`'s on the set
    `lint` reads out of it: the table's literal and the live answer."""
    from repro.analysis import lint_path

    case = CASES[name]
    lint_path(_path(name), ranks=4)
    (lint_set,) = seen
    expected = Session().run(lint_set).deadlocked
    assert expected == case.deadlocked
    del seen[:]

    report, outcome = Session().blame(_path(name), ranks=4)
    assert outcome.deadlocked == report.root_causes == expected
    assert _jobs(seen) == case.jobs
    del seen[:]

    source = Path(_path(name)).read_text()
    session = Session(live=True)
    for op in ("analyze", "verify", "blame"):
        spec = JobSpec(kind="program", op=op, source=source, ranks=4)
        result = execute_job(session, Job(id="job-0", tenant="t", spec=spec))
        assert _jobs(seen) == case.jobs, op
        del seen[:]
        if op == "verify":
            labels = sorted(result["programs"])
            assert labels == sorted(
                {"LINT_PROGRAMS"} if len(set(case.jobs[0])) > 1
                else set(case.jobs[0])
            )
            continue
        assert result["verdict"] == ("deadlock" if expected else "clean")
        key = "deadlocked" if op == "analyze" else "root_causes"
        assert result[key] == list(expected)
        assert result["num_ranks"] == len(case.jobs[0])


@pytest.mark.parametrize(
    "name", [n for n in sorted(CASES) if CASES[n].deadlocked is None]
)
def test_session_blame_and_serve_refuse_what_is_no_one_job(name, seen):
    case = CASES[name]
    with pytest.raises(ReproError) as refused:
        Session().blame(_path(name), ranks=4)
    source = Path(_path(name)).read_text()
    session = Session(live=True)
    refusals = [str(refused.value)]
    for op in ("analyze", "blame"):
        spec = JobSpec(kind="program", op=op, source=source, ranks=4)
        with pytest.raises(ReproError) as failed:
            execute_job(session, Job(id="job-0", tenant="t", spec=spec))
        if name == "two_programs":
            assert isinstance(failed.value, JobError)
        refusals.append(str(failed.value))
    for said in refusals:
        for word in case.refusal:
            assert word in said
    assert seen == []

    # `verify` reports on every job the file has; it fails only where
    # the file cannot be read as programs at all.
    spec = JobSpec(kind="program", op="verify", source=source, ranks=4)
    job = Job(id="job-0", tenant="t", spec=spec)
    if case.imports_ok:
        result = execute_job(session, job)
        assert sorted(result["programs"]) == sorted(case.discovered)
        assert _jobs(seen) == case.jobs
    else:
        with pytest.raises(ReproError):
            execute_job(session, job)


# ----------------------------------------------------------------------
# A call ``Rank`` rejects: one outcome under every command
# ----------------------------------------------------------------------

#: fixture -> its programs and, per bad call site, its line and what
#: ``Rank``'s signature says about it.
BAD_CALLS = {
    "bad_call_arity": (("meet",), (
        (11, "Rank.barrier(): too many positional arguments"),
    )),
    "bad_call_keyword": (("peek", "typo"), (
        (9, "Rank.probe(): got an unexpected keyword argument 'nbytes'"),
        (18, "Rank.send(): got an unexpected keyword argument 'tga'"),
    )),
    "bad_call_method": (("meet",), ((6, "Rank has no call sendd()"),)),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_a_call_rank_rejects_is_one_outcome_under_every_command(
    name, capsys
):
    """The program raises at the call, so the provers certify and
    refute nothing, lint reports the site once as an error, and a
    runner says the program raised: no stage reads the call as some
    other call that would have run."""
    programs, sites = BAD_CALLS[name]
    path = _path(name)

    assert main(["lint", path]) == 1
    out = capsys.readouterr().out
    assert out.count("[ERROR] bad-call") == out.count("bad-call: ")
    assert out.count("[ERROR] bad-call") == len(sites)
    for lineno, said in sites:
        assert f"({path}:{lineno}): {said}" in out
    assert "proved-all-p" not in out and "prove-refuted" not in out

    for command, code in (("classify", 1), ("prove", 2)):
        assert main([command, path]) == code
        out = capsys.readouterr().out
        assert _printed_names(out) == programs
        assert "PROVED" not in out and "REFUTED" not in out
        for lineno, said in sites:
            assert f"UNDECIDABLE — {said}" in out
            assert f"the program raises at {path}:{lineno}" in out

    assert main(["verify", path, "--prove"]) == 2
    out = capsys.readouterr().out
    assert "PROVED" not in out and "REFUTED" not in out
    assert out.count("prove ") == len(programs)

    for command in ("blame", "watch"):
        assert main([command, path, "-n", "4"]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if len(programs) == 1:
            assert "rank program raised" in captured.err
            assert f"({path}:{sites[0][0]})" in captured.err
        else:
            assert "2 rank programs found (peek, typo)" in captured.err


# ----------------------------------------------------------------------
# The import is per load: two threads at once
# ----------------------------------------------------------------------

def test_two_threads_importing_at_once_do_not_share_a_module_slot(tmp_path):
    """Thread A's file is mid-import (a `@dataclass` under postponed
    annotations still to come) while thread B verifies another file
    from start to finish. With one fixed `sys.modules` name, B's
    `finally: pop` took A's registration away and A's dataclass failed
    with ``'NoneType' object has no attribute '__dict__'``."""
    from repro.analysis import verify_path

    a_importing, b_done = threading.Event(), threading.Event()
    slow = tmp_path / "slow.py"
    slow.write_text(
        "from __future__ import annotations\n"
        "import sys\n"
        "from dataclasses import dataclass\n"
        "a_importing, b_done = sys.rendezvous\n"
        "a_importing.set()\n"
        "assert b_done.wait(30)\n"
        "@dataclass\n"
        "class Halo:\n"
        "    width: int = 1\n"
        "def meet(rank):\n"
        "    yield rank.barrier()\n"
        "    yield rank.finalize()\n"
    )
    quick = tmp_path / "quick.py"
    quick.write_text(
        "def meet(rank):\n"
        "    yield rank.barrier()\n"
        "    yield rank.finalize()\n"
    )
    results = {}

    def verify(label, path):
        try:
            report = verify_path(str(path))
            results[label] = [p.verdict_name for p in report.programs]
        except Exception as exc:  # the assertion below shows it
            results[label] = exc

    sys.rendezvous = (a_importing, b_done)
    try:
        thread_a = threading.Thread(target=verify, args=("a", slow))
        thread_a.start()
        assert a_importing.wait(30)
        verify("b", quick)
        b_done.set()
        thread_a.join(30)
        assert not thread_a.is_alive()
    finally:
        b_done.set()
        del sys.rendezvous
    assert results == {"a": ["deadlock-free"], "b": ["deadlock-free"]}


# ----------------------------------------------------------------------
# Read once, parsed once, executed at most once
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv,executions", [
    (["lint"], 1),
    (["verify", "--prove", "--replay"], 1),
    (["classify", "--prove"], 0),
    (["prove"], 0),
], ids=lambda value: "-".join(value) if isinstance(value, list) else None)
def test_a_command_parses_once_and_executes_at_most_once(
    argv, executions, tmp_path, monkeypatch, capsys
):
    target = tmp_path / "counted.py"
    target.write_text(
        (FIXTURES / "helper_generator.py").read_text()
        + "\nimport sys\n"
        "sys.counted_executions = getattr(sys, 'counted_executions', 0) + 1\n"
    )
    parses = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        if filename == str(target):
            parses.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(sys, "counted_executions", 0, raising=False)
    code = main([argv[0], str(target), *argv[1:]])
    out = capsys.readouterr().out
    assert code in (0, 1), out
    if "--replay" in argv:
        assert "replay: confirmed" in out
    assert len(parses) == 1
    assert sys.counted_executions == executions
