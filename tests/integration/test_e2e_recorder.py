"""What the frozen end-to-end benchmark assumes of the program.

``benchmarks/e2e/recorder.py`` attributes time to layers by rebinding
the module globals named in its ``PATCH_POINTS`` to span-opening
wrappers. The names must therefore stay module globals where it looks
them up, and the code must call through them — including the report
renderers, which a detection record calls when it is first asked for a
report rather than inside ``Session.run``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.api import Session
from repro.workloads import wildcard_deadlock_programs

RECORDER = Path(__file__).resolve().parents[2] / "benchmarks/e2e/recorder.py"


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("e2e_recorder", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves(recorder):
    for module, cls, attr, _span in recorder.PATCH_POINTS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in owner.__dict__, f"{module}:{cls}.{attr}"


def test_a_report_is_a_span_when_it_is_read_and_not_before(recorder):
    rec = recorder.Recorder("unit", seed=0)

    def names():
        return {span["name"] for span in rec.spans}

    with rec.patched(), rec.span(recorder.ROOT_SPAN):
        record = Session().run(wildcard_deadlock_programs(16)).detection
        ran = names()
        assert record.dot_text and record.html_report and record.json_report
    assert {
        "runtime.run_programs", "backend.inline_run", "core.detector_run",
        "wfg.build", "wfg.check", "obs.blame_chain",
    } <= ran
    assert names() - ran == {
        "wfg.render_dot", "wfg.render_html", "wfg.render_json"
    }
