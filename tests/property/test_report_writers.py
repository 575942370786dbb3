"""Property: one serializer per report format, whatever it writes to.

``write_dot`` and ``write_html_report`` stream to a file object;
``render_dot`` / ``render_html_report`` and the lazily rendered
attributes of a detection record are the same writers into a string.
The HTML report embeds the graph's DOT by running the DOT writer with
``html.escape`` on its pieces, which must equal escaping the finished
text — also for operation descriptions made of exactly the characters
either escaping touches.
"""
import html
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import detect_deadlocks_distributed
from repro.core.waitfor import GroupClause, WaitForCondition, WaitTarget
from repro.mpi.blocking import BlockingSemantics
from repro.runtime import run_programs
from repro.util.errors import MpiUsageError
from repro.wfg import WaitForGraph, detect_deadlock
from repro.wfg.dot import render_dot, write_dot
from repro.wfg.report import render_html_report, write_html_report
from repro.workloads import build_wildcard_trace
from repro.workloads.randomgen import mutate_program_set, safe_program_set


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


def _embedded_dot(report):
    return report.split("<pre>")[1].split("</pre>")[0]


def _check_writers(out_dir, graph, result, conditions, **extras):
    """Writer-to-file == renderer == the pre-streaming construction."""
    dot = render_dot(graph, result)
    report = render_html_report(graph, result, conditions, **extras)
    dot_path, html_path = out_dir / "g.dot", out_dir / "r.html"
    with dot_path.open("w", encoding="utf-8", newline="") as handle:
        write_dot(handle, graph, result)
    with html_path.open("w", encoding="utf-8", newline="") as handle:
        write_html_report(handle, graph, result, conditions, **extras)
    assert dot_path.read_text(encoding="utf-8") == dot
    assert html_path.read_text(encoding="utf-8") == report
    assert _embedded_dot(report) == html.escape(dot)
    # Handing the renderer the DOT string takes the whole-text escape.
    assert report == render_html_report(
        graph, result, conditions, dot_text=dot, **extras
    )
    return dot, report


def _deadlocking_records(wanted=12):
    """Detection records of mutated random program sets that deadlock."""
    records, seed = [], 0
    while len(records) < wanted:
        seed += 1
        generated = mutate_program_set(
            safe_program_set(
                p=4, events=10, seed=seed, allow_wildcards=True,
                allow_collectives=True,
            ),
            seed=seed + 999,
            mutations=2,
        )
        try:
            run = run_programs(
                generated.programs(),
                semantics=BlockingSemantics.relaxed(),
                seed=seed,
            )
        except MpiUsageError:
            continue
        outcome = detect_deadlocks_distributed(run.matched, fan_in=2, seed=seed)
        if outcome.has_deadlock:
            records.append(outcome.detection)
    return records


def test_random_deadlocks_stream_what_the_record_renders(out_dir):
    for record in _deadlocking_records():
        dot, report = _check_writers(
            out_dir, record.graph, record.result, record.conditions,
            flight_tails=record.flight_tails, blame=record.blame,
        )
        assert record.flight_tails
        assert record.dot_text == dot
        assert record.html_report == report


#: Every character DOT label quoting or HTML escaping rewrites.
_NASTY = st.text(alphabet="&<>\"'\\ ;=-{}[]nM", max_size=16)


@st.composite
def _nasty_graphs(draw):
    num = draw(st.integers(2, 6))
    world = tuple(range(num))
    conditions = {}
    for rank in world:
        if not draw(st.booleans()):
            continue
        cond = WaitForCondition(
            rank=rank, op_ref=(rank, 0), op_description=draw(_NASTY)
        )
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                cond.clauses.append(GroupClause(world, rank, draw(_NASTY)))
            else:
                targets = draw(st.lists(st.sampled_from(world), max_size=3))
                cond.clauses.append(tuple(
                    WaitTarget(t, "directed") for t in targets if t != rank
                ))
        conditions[rank] = cond
    finished = {r for r in world if r not in conditions and draw(st.booleans())}
    return num, finished, conditions


@settings(max_examples=150, deadline=None)
@given(_nasty_graphs(), st.lists(_NASTY, max_size=2))
def test_escaping_the_pieces_is_escaping_the_text(out_dir, data, blame):
    num, finished, conditions = data
    graph = WaitForGraph.from_conditions(
        num, conditions.values(), finished=finished
    )
    _check_writers(
        out_dir, graph, detect_deadlock(graph), conditions,
        blame=blame, title="<&> \"report\"",
    )


class _CountingFile(io.TextIOBase):
    def __init__(self):
        self.largest = self.total = 0

    def write(self, text):
        self.largest = max(self.largest, len(text))
        self.total += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["dot", "html"])
def test_the_largest_write_grows_with_p_not_with_the_report(fmt):
    """The storm's reports are O(p^2) characters written O(p) at a
    time: one clause per ``write()``, never the joined text."""
    sizes = {}
    for p in (256, 512):
        record = detect_deadlocks_distributed(build_wildcard_trace(p)).detection
        out = _CountingFile()
        if fmt == "dot":
            write_dot(out, record.graph, record.result)
        else:
            write_html_report(
                out, record.graph, record.result, record.conditions
            )
        sizes[p] = out
    assert sizes[512].largest <= 2.5 * sizes[256].largest
    assert 3.5 <= sizes[512].total / sizes[256].total <= 4.5
    assert sizes[512].largest * 100 < sizes[512].total
