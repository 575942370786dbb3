"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import pytest

from repro.mpi.blocking import BlockingSemantics
from repro.mpi.constants import OpKind
from repro.mpi.ops import Operation
from repro.runtime import run_programs


#: The report writers, and the string/dict forms built on them.
_RENDERERS = (
    "write_dot", "write_html_report",
    "render_dot", "render_html_report", "render_json_report",
)


@pytest.fixture
def rendered(monkeypatch):
    """The names of the report writers and renderers called, in call
    order. Each is wrapped in every module that binds it (the records
    and the CLI call them through their own module globals); a string
    renderer also shows the writer under it, so reading ``dot_text``
    records ``render_dot`` then ``write_dot``."""
    import repro.cli.run
    import repro.core.treenodes
    import repro.core.waitstate
    import repro.wfg.dot
    import repro.wfg.report

    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in (
        repro.wfg.dot, repro.wfg.report, repro.core.treenodes,
        repro.core.waitstate, repro.cli.run,
    ):
        for name in _RENDERERS:
            if name in vars(module):
                monkeypatch.setattr(
                    module, name, counting(name, vars(module)[name])
                )
    return calls


@pytest.fixture
def strict():
    return BlockingSemantics.strict()


@pytest.fixture
def relaxed():
    return BlockingSemantics.relaxed()


def op(kind: OpKind, rank: int, ts: int, **kw) -> Operation:
    """Terse Operation builder for tests."""
    return Operation(kind=kind, rank=rank, ts=ts, **kw)


def run_relaxed(programs, seed=0, **kw):
    return run_programs(
        programs, semantics=BlockingSemantics.relaxed(), seed=seed, **kw
    )


def run_strict(programs, seed=0, **kw):
    return run_programs(
        programs, semantics=BlockingSemantics.strict(), seed=seed, **kw
    )
