"""The symbolic extraction stack: sexpr, cfg, symexec, fragments."""
import ast

import pytest

from repro.analysis.extract import extract_programs
from repro.analysis.symbolic import (
    Fragment,
    classify_source,
    instantiate,
    render_terms,
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
# symexec: a call is what ``Rank`` builds for it
# ----------------------------------------------------------------------

def _rendered(body):
    (summary,) = summarize_source(f"def prog(rank):\n    {body}\n", "<test>")
    assert summary.supported, summary.reason
    return render_terms(summary.terms)


@pytest.mark.parametrize("positional,keywords", [
    ("yield from rank.sendrecv(1, 0, 1, 2)",
     "yield from rank.sendrecv(recvtag=2, sendtag=1, source=0, dest=1)"),
    ("yield rank.send(rank.size - 1, 5)",
     "yield rank.send(tag=5, dest=rank.size - 1)"),
    ("yield rank.recv(0, 3)", "yield rank.recv(tag=3, source=0)"),
    ("yield rank.bcast(2)", "yield rank.bcast(nbytes=8, comm=None, root=2)"),
])
def test_keywords_in_any_order_summarize_to_the_positional_terms(
    positional, keywords
):
    assert _rendered(positional) == _rendered(keywords)


def test_a_term_carries_what_the_builder_defaults_to():
    source = (
        "def prog(rank):\n"
        "    yield rank.probe(0)\n"
        "    req = yield rank.irecv(0, nbytes=32)\n"
        "    yield rank.wait(req)\n"
        "    yield rank.barrier()\n"
        "    yield rank.allreduce()\n"
    )
    (summary,) = summarize_source(source, "<test>")
    probe, irecv, wait, barrier, allreduce = summary.terms
    assert [t.nbytes for t in summary.terms] == [0, 32, 0, 0, 8]
    assert probe.tag == irecv.tag == sexpr.const(-1)  # ANY_TAG
    assert wait.requests == (irecv.makes_request,)
    assert barrier.kind.collective and barrier.peer is barrier.root is None


@pytest.mark.parametrize("body,said", [
    ("yield rank.barrier(3)",
     "Rank.barrier(): too many positional arguments"),
    ("yield rank.send()", "Rank.send(): missing a required argument: 'dest'"),
    ("yield rank.send(1, dest=2)",
     "Rank.send(): multiple values for argument 'dest'"),
    ("yield rank.recv(sorce=0)",
     "Rank.recv(): got an unexpected keyword argument 'sorce'"),
    ("yield from rank.sendrecv(1)",
     "Rank.sendrecv(): missing a required argument: 'source'"),
    ("yield rank.sendd(1)", "Rank has no call sendd()"),
    ("x = rank.wait()", "Rank.wait(): missing a required argument: 'request'"),
    # Accepted by the signature, rejected by the builder's body.
    ("yield rank.waitall(3)", "Rank.waitall(): 'Affine' object is not iterable"),
    ("req = yield rank.isend(1); yield rank.waitall(req)",
     "Rank.waitall(): 'RequestVal' object is not iterable"),
    ("req = yield rank.isend(1); yield from rank.startall(req)",
     "Rank.startall(): 'RequestVal' object is not iterable"),
    ("yield rank.comm_create(rank.size)",
     "Rank.comm_create(): 'Affine' object is not iterable"),
])
def test_a_call_rank_rejects_is_unsupported_with_what_rank_said(body, said):
    source = f"def prog(rank):\n    yield rank.barrier()\n    {body}\n"
    (summary,) = summarize_source(source, "bad.py")
    assert not summary.supported
    assert summary.reason == f"{said} — the program raises at bad.py:3"
    assert summary.reason_line == 3
    assert summary.reason_check == "symbolic-unsupported"


@pytest.mark.parametrize("body,why", [
    ("yield rank.iprobe()", "iprobe() is outside the symbolic fragment"),
    ("yield rank.waitany([1])", "waitany() is outside the symbolic fragment"),
    ("yield rank.comm_free(c)", "comm_free() is outside the symbolic"),
    ("yield from rank.startall(reqs)",
     "startall() is outside the symbolic fragment"),
    ("yield rank.barrier(comm=team)", "barrier(comm=...) uses a derived"),
    ("yield from rank.sendrecv(1, 0, comm=team)",
     "sendrecv(comm=...) uses a derived"),
    ("yield rank.send(peers[0])",
     "send() argument 'dest' is not an affine rank/size expression"),
    ("yield from rank.sendrecv(1, 0, recvtag=t())",
     "sendrecv() argument 'recvtag' is not an affine"),
    ("yield rank.send(None)", "send() argument 'dest' is not an affine"),
    ("yield rank.send(1, tag=None)", "send() argument 'tag' is not an affine"),
    ("yield rank.bcast(None)", "bcast() argument 'root' is not an affine"),
    ("yield rank.send(1, nbytes=rank.rank)", "nbytes must be a constant"),
    ("yield rank.wait(7)", "wait() on a request outside the symbolic"),
    ("yield rank.waitall(reqs)", "waitall() on requests outside the"),
    ("yield rank.waitall([])", "waitall() on requests outside the"),
    ("yield rank.send(*args)", "send() unpacks its arguments"),
    ("yield rank.sendrecv(1, 0)", "cannot extract sendrecv() symbolically"),
    ("yield from rank.send(1)", "yield from send() is outside the symbolic"),
])
def test_the_fragment_boundary_is_stated_on_what_was_built(body, why):
    source = f"def prog(rank, reqs=None):\n    {body}\n"
    (summary,) = summarize_source(source, "<test>")
    assert not summary.supported
    assert summary.reason.startswith(why), summary.reason


def test_sendrecv_groups_number_per_decomposition_through_a_loop():
    source = (
        "def prog(rank):\n"
        "    for i in range(rank.size):\n"
        "        yield from rank.sendrecv(1 - rank.rank, 1 - rank.rank)\n"
        "    yield from rank.sendrecv(1 - rank.rank, 1 - rank.rank)\n"
    )
    (summary,) = summarize_source(source, "<test>")
    assert isinstance(summary.terms[0], Repeat)
    ops = instantiate(summary.terms, 0, 2)
    assert [op.sendrecv_group for op in ops] == [0] * 3 + [1] * 3 + [2] * 3
    assert [op.nbytes for op in ops] == [8, 8, 0] * 3


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
