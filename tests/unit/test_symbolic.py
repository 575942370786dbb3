"""The symbolic extraction stack: sexpr, cfg, symexec, fragments."""
import ast

import pytest

from repro.analysis.extract import extract_programs
from repro.analysis.symbolic import (
    Fragment,
    classify_source,
    instantiate,
    summarize_source,
)
from repro.analysis.symbolic import sexpr
from repro.analysis.symbolic.cfg import build_call_graph
from repro.analysis.symbolic.symexec import Branch, Repeat, SymOp


# ----------------------------------------------------------------------
# sexpr: the affine domain
# ----------------------------------------------------------------------

def test_affine_arithmetic_closed_forms():
    rank, size = sexpr.RANK, sexpr.SIZE
    right = sexpr.mod(sexpr.add(rank, sexpr.const(1)), size)
    assert right.evaluate(3, 4) == 0
    assert right.evaluate(0, 4) == 1
    assert right.render() == "(rank + 1) % size"
    left = sexpr.mod(sexpr.sub(rank, sexpr.const(1)), size)
    assert left.evaluate(0, 4) == 3


def test_affine_loop_variables_require_bindings():
    w = sexpr.var("w#1.0")
    expr = sexpr.add(w, sexpr.const(2))
    assert expr.evaluate(0, 4, {"w#1.0": 5}) == 7
    with pytest.raises(KeyError):
        expr.evaluate(0, 4)
    # Rendering strips the internal disambiguation suffix.
    assert "w" in expr.render() and "#" not in expr.render()


def test_unsupported_arithmetic_collapses_to_unknown():
    modded = sexpr.mod(sexpr.RANK, sexpr.SIZE)
    assert sexpr.add(modded, sexpr.const(1)) is sexpr.UNKNOWN
    assert sexpr.mul(sexpr.RANK, sexpr.RANK) is sexpr.UNKNOWN
    assert sexpr.join(sexpr.const(1), sexpr.const(2)) is sexpr.UNKNOWN
    assert sexpr.join(sexpr.const(1), sexpr.const(1)) == sexpr.const(1)


def test_cond_negation_and_evaluation():
    cond = sexpr.Cond(sexpr.RANK, sexpr.Relop.EQ, sexpr.const(0))
    assert cond.evaluate(0, 4) is True
    assert cond.negate().evaluate(0, 4) is False
    parity = sexpr.Cond(
        sexpr.RANK, sexpr.Relop.EQ, sexpr.const(0), lhs_mod=2
    )
    assert parity.evaluate(2, 4) is True
    assert parity.evaluate(3, 4) is False


# ----------------------------------------------------------------------
# cfg
# ----------------------------------------------------------------------

def test_call_graph_detects_recursion():
    tree = ast.parse(
        "def a(r):\n    yield from b(r)\n"
        "def b(r):\n    yield from a(r)\n"
        "def c(r):\n    yield r.send(0)\n"
    )
    graph = build_call_graph(tree)
    assert graph.recursive_functions() == {"a", "b"}
    assert "c" not in graph.recursive_functions()


# ----------------------------------------------------------------------
# symexec: summaries and instantiation vs. the generator extractor
# ----------------------------------------------------------------------

RING = """
def ring(r):
    right = (r.rank + 1) % r.size
    left = (r.rank - 1) % r.size
    for i in range(3):
        yield r.send(right, tag=i)
        yield r.recv(source=left, tag=i)
    yield r.finalize()
"""

MASTER = """
def master(r):
    if r.rank == 0:
        for w in range(1, r.size):
            yield r.recv(source=w, tag=7)
    else:
        yield r.send(0, tag=7)
    yield r.finalize()
"""

HALO = """
def halo(r):
    up = (r.rank + 1) % r.size
    down = (r.rank - 1) % r.size
    for _ in range(4):
        yield from r.sendrecv(up, source=down, sendtag=1, recvtag=1)
    yield r.finalize()
"""

HELPER = """
def exchange(r, peer, n):
    for _ in range(n):
        req = yield r.isend(peer, tag=3)
        yield r.wait(req)

def prog(r):
    peer = (r.rank + 1) % r.size
    yield from exchange(r, peer, 2)
    yield r.barrier()
    yield r.finalize()
"""


def _programs(source, name, p):
    namespace = {}
    exec(source, namespace)
    return [namespace[name]] * p


def _assert_matches_extractor(source, name, p=4):
    """The symbolic instantiation must equal the generator-driven
    extraction, field for field."""
    summaries = summarize_source(source, "<test>")
    summary = next(s for s in summaries if s.name == name)
    assert summary.supported, summary.reason
    extraction = extract_programs(_programs(source, name, p))
    assert extraction.exact or extraction.wildcard_exact
    for rank in range(p):
        ops = instantiate(summary.terms, rank, p)
        want = extraction.sequences[rank]
        assert len(ops) == len(want), f"rank {rank} length"
        for got, exp in zip(ops, want):
            assert got.kind is exp.kind
            assert got.rank == exp.rank
            assert got.ts == exp.ts
            assert got.peer == exp.peer
            assert got.tag == exp.tag
            assert got.request == exp.request
            assert got.requests == exp.requests
            assert got.comm_id == exp.comm_id
            assert got.sendrecv_group == exp.sendrecv_group


def test_ring_unrolls_to_extractor_sequences():
    _assert_matches_extractor(RING, "ring")


def test_role_split_master_matches_extractor():
    _assert_matches_extractor(MASTER, "master", p=5)


def test_sendrecv_decomposition_matches_extractor():
    _assert_matches_extractor(HALO, "halo")


def test_helper_inlining_matches_extractor():
    _assert_matches_extractor(HELPER, "prog")


def test_master_summary_keeps_loop_symbolic():
    summary = summarize_source(MASTER, "<test>")[0]
    branch = summary.terms[0]
    assert isinstance(branch, Branch)
    (repeat,) = [t for t in branch.then if isinstance(t, Repeat)]
    assert repeat.count.render() == "size - 1"
    assert repeat.var is not None
    (recv,) = [t for t in repeat.body if isinstance(t, SymOp)]
    assert recv.peer is not None and recv.peer.free_vars()


def test_while_loop_is_reported_unsupported():
    src = "def spin(r):\n    while True:\n        yield r.barrier()\n"
    summary = summarize_source(src, "<test>")[0]
    assert not summary.supported
    assert summary.reason_check == "loop-unsupported"
    assert summary.reason_line == 2
    assert any(
        f.check == "loop-unsupported" for f in summary.notes
    )


def test_recursive_helper_is_reported_unsupported():
    src = (
        "def helper(r):\n"
        "    yield from helper(r)\n"
        "def prog(r):\n"
        "    yield from helper(r)\n"
        "    yield r.finalize()\n"
    )
    summary = next(
        s for s in summarize_source(src, "<test>") if s.name == "prog"
    )
    assert not summary.supported
    assert "recursive" in summary.reason


# ----------------------------------------------------------------------
# fragments: the AST-path classifier
# ----------------------------------------------------------------------

def test_classifier_labels_and_provenance():
    labels = {
        c.name: c for c in classify_source(RING + MASTER, "demo.py")
    }
    assert labels["ring"].fragment is Fragment.SEQ_DETERMINISTIC
    master = labels["master"]
    assert master.fragment is Fragment.SEQ_WILDCARD_FREE_LOOPS
    assert master.role_splits and master.role_splits[0][0] == "rank == 0"
    assert master.loops and master.loops[0][0] == "size - 1"


def test_classifier_flags_wildcards_undecidable():
    src = (
        "def w(r):\n"
        "    yield r.recv()\n"
        "    yield r.finalize()\n"
    )
    (cl,) = classify_source(src, "w.py")
    assert cl.fragment is Fragment.UNDECIDABLE
    assert "ANY_SOURCE" in cl.reason
    assert cl.reason_line == 2
