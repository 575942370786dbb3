"""Interprocedural symbolic execution of rank programs.

The generator-driven extractor (:mod:`repro.analysis.extract`) obtains
per-rank sequences by *running* the program once per rank. This module
instead interprets the program **AST once**, symbolically, producing a
rank-parametric *term tree*:

* :class:`SymOp` — one MPI call whose envelope fields are affine
  expressions over ``rank``/``size`` (:mod:`.sexpr`);
* :class:`Repeat` — a loop summarized as its body repeated an affine
  number of times (constant-bound loops below the unroll limit are
  expanded instead, with the loop variable substituted);
* :class:`Branch` — an ``if`` whose condition is a decidable affine
  relation (``rank == 0``-style role splits).

Helper generators driven by ``yield from`` are inlined at their call
sites when the call graph (:mod:`.cfg`) proves them non-recursive.

What a call *is* is not written here: ``<handle>.<method>(...)`` is
bound by :func:`repro.programfile.arguments` and the real builder is
called with symbolic arguments on a stand-in ``Rank``. The ``Call`` it
returns — or the calls ``Rank.sendrecv`` itself yields when driven with
symbolic requests — supplies kind, peer, tag, root, requests, bytes,
group and every default; a call ``Rank`` rejects is a program that
raises, hence :class:`SymbolicUnsupported`. This module adds only the
fragment boundary, stated on ``OpKind`` (:data:`_OUTSIDE_FRAGMENT`).

The tree instantiates to the exact per-rank
:class:`~repro.mpi.ops.Operation` sequences via :func:`instantiate`
(recorded, like the extractor's, by a
:class:`~repro.runtime.recording.CallRecorder`), and is the input
the fragment classifier (:mod:`.fragments`) labels per the decidable
fragments of arXiv:0709.3689 / arXiv:0709.3692.

Programs stepping outside the symbolic domain raise
:class:`SymbolicUnsupported`; the classifier turns that into an
``UNDECIDABLE`` label (with a ``loop-unsupported`` lint finding when a
loop was the obstacle) rather than guessing.
"""
from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple
from typing import Union, cast

from repro.analysis.matchcore import runtime_steered
from repro.analysis.symbolic import sexpr
from repro.analysis.symbolic.cfg import CallGraph, build_call_graph
from repro.analysis.symbolic.sexpr import (
    RANK,
    SIZE,
    UNKNOWN,
    Affine,
    Cond,
    Relop,
    RequestTuple,
    RequestVal,
    _UnknownType,
    const,
)
from repro.checks.findings import CheckFinding, Severity
from repro.mpi.communicator import CommRegistry, Communicator
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    OpKind,
    is_recv_kind,
    is_send_kind,
)
from repro.mpi.ops import Operation
from repro.programfile import (
    RankProgram,
    arguments,
    find_rank_programs,
    handle_call,
)
from repro.runtime.program import Call, Rank
from repro.runtime.recording import CallRecorder

#: Constant-bound loops up to this trip count are unrolled with the
#: loop variable substituted; larger/symbolic bounds go through body
#: summarization into a :class:`Repeat` term.
UNROLL_LIMIT = 64
_MAX_FIXPOINT = 8
_MAX_INLINE_DEPTH = 32

_CHECK_UNSUPPORTED = "symbolic-unsupported"
_CHECK_LOOP = "loop-unsupported"


class SymbolicUnsupported(Exception):
    """The program left the symbolically-decidable fragment."""

    def __init__(
        self, message: str, lineno: int, check: str = _CHECK_UNSUPPORTED
    ) -> None:
        super().__init__(message)
        self.message = message
        self.lineno = lineno
        self.check = check


class InstantiationError(Exception):
    """A term tree could not be instantiated for a concrete rank."""


class _ReturnSignal(Exception):
    def __init__(self, value: "Value") -> None:
        super().__init__("return")
        self.value = value


#: An environment value; the handle parameter is bound to the stand-in
#: :class:`Rank` the interpreter calls the builders on.
Value = Union[Affine, RequestVal, RequestTuple, _UnknownType, Rank]
Env = Dict[str, Value]


# ----------------------------------------------------------------------
# Term tree
# ----------------------------------------------------------------------

@dataclass
class SymOp:
    """One MPI call with affine envelope fields: the ``Call`` its
    builder returned for symbolic arguments, normalized
    (:meth:`_SymbolicInterpreter._emit`)."""

    kind: OpKind
    method: str
    lineno: int
    peer: Optional[Affine]
    tag: Affine
    root: Optional[Affine]
    nbytes: int
    #: Symbolic request ids a completion waits on.
    requests: Tuple[int, ...]
    #: Symbolic sendrecv-group id shared by one decomposition.
    group: Optional[int]
    #: Symbolic request id this op creates (isend/irecv).
    makes_request: Optional[int] = None

    def describe(self) -> str:
        parts: List[str] = []
        if self.peer is not None:
            label = "to" if is_send_kind(self.kind) else "from"
            if self.peer == const(ANY_SOURCE) and is_recv_kind(self.kind):
                parts.append(f"{label}=ANY")
            else:
                parts.append(f"{label}={self.peer.render()}")
            if self.tag != const(ANY_TAG) and self.tag != const(0):
                parts.append(f"tag={self.tag.render()}")
        if self.root is not None:
            parts.append(f"root={self.root.render()}")
        return f"{self.method}({', '.join(parts)})"


@dataclass
class Repeat:
    """A summarized loop: ``body`` repeated ``count`` times.

    When the body references the loop index, ``var`` names the bound
    variable (kept symbolic in the body's affine terms) and
    instantiation supplies ``start + k*step`` per iteration ``k``.
    """

    count: Affine
    body: List["Term"]
    lineno: int
    var: Optional[str] = None
    start: Optional[Affine] = None
    step: int = 1


@dataclass
class Branch:
    """A branch on a decidable affine condition."""

    cond: Cond
    then: List["Term"]
    orelse: List["Term"]
    lineno: int


Term = Union[SymOp, Repeat, Branch]


def render_terms(terms: Sequence[Term], indent: int = 0) -> List[str]:
    """Human-readable rendering of a term tree (classify output)."""
    pad = "  " * indent
    lines: List[str] = []
    for term in terms:
        if isinstance(term, SymOp):
            lines.append(f"{pad}{term.describe()}  [line {term.lineno}]")
        elif isinstance(term, Repeat):
            if term.var is not None and term.start is not None:
                display = term.var.split("#", 1)[0]
                step = f", step {term.step}" if term.step != 1 else ""
                lines.append(
                    f"{pad}repeat {term.count.render()} times "
                    f"({display} from {term.start.render()}{step}):"
                )
            else:
                lines.append(f"{pad}repeat {term.count.render()} times:")
            lines.extend(render_terms(term.body, indent + 1))
        else:
            lines.append(f"{pad}if {term.cond.render()}:")
            lines.extend(render_terms(term.then, indent + 1))
            if term.orelse:
                lines.append(f"{pad}else:")
                lines.extend(render_terms(term.orelse, indent + 1))
    return lines


@dataclass
class ProgramSummary:
    """The symbolic extraction result for one rank program."""

    name: str
    filename: str
    terms: List[Term]
    supported: bool
    reason: str = ""
    reason_line: Optional[int] = None
    reason_check: str = ""
    notes: List[CheckFinding] = field(default_factory=list)


# ----------------------------------------------------------------------
# The fragment boundary
# ----------------------------------------------------------------------

#: Kinds outside the v1 fragment for their state — persistent request
#: state machines, derived communicators. Those with a runtime-steered
#: result are :func:`~repro.analysis.matchcore.runtime_steered`'s.
_OUTSIDE_FRAGMENT = frozenset({
    OpKind.SEND_INIT, OpKind.RECV_INIT, OpKind.PSTART_SEND,
    OpKind.PSTART_RECV, OpKind.REQUEST_FREE, OpKind.COMM_DUP,
    OpKind.COMM_SPLIT, OpKind.COMM_CREATE, OpKind.COMM_FREE,
})

_ANY_SOURCE_NAMES = frozenset({"ANY_SOURCE", "MPI_ANY_SOURCE"})
_ANY_TAG_NAMES = frozenset({"ANY_TAG", "MPI_ANY_TAG"})
_PROC_NULL_NAMES = frozenset({"PROC_NULL", "MPI_PROC_NULL"})

_RELOPS = {
    ast.Eq: Relop.EQ,
    ast.NotEq: Relop.NE,
    ast.Lt: Relop.LT,
    ast.LtE: Relop.LE,
    ast.Gt: Relop.GT,
    ast.GtE: Relop.GE,
}


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------

class _SymbolicInterpreter:
    def __init__(self, graph: CallGraph, filename: str) -> None:
        self.graph = graph
        self.filename = filename
        self.recursive = graph.recursive_functions()
        self._next_request = 0
        self._next_loop_var = 0
        #: The handle the real builders are called on; its sendrecv
        #: counter numbers the symbolic groups.
        self._rank = Rank(cast(Any, RANK), _world(1))

    # -- entry ----------------------------------------------------------

    def run(self, program: RankProgram) -> List[Term]:
        env: Env = {}
        self._bind_defaults(program.node, env)
        env[program.handle] = self._rank
        out: List[Term] = []
        try:
            self._exec_block(program.node.body, env, out, 0)
        except _ReturnSignal:
            pass
        return out

    def _bind_defaults(self, fn: ast.FunctionDef, env: Env) -> None:
        args = fn.args
        defaults = args.defaults
        for arg, default in zip(args.args[len(args.args) - len(defaults):],
                                defaults):
            env[arg.arg] = self._eval(default, {})
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                env[arg.arg] = self._eval(kw_default, {})

    # -- statements -----------------------------------------------------

    def _exec_block(
        self, stmts: Sequence[ast.stmt], env: Env, out: List[Term],
        depth: int,
    ) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, out, depth)

    def _exec_stmt(
        self, stmt: ast.stmt, env: Env, out: List[Term], depth: int
    ) -> None:
        if isinstance(stmt, ast.Expr):
            self._exec_expr_stmt(stmt, env, out, depth)
        elif isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, env, out, depth)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = self._value_of(
                    stmt.value, env, out, depth
                )
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt, env)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, env, out, depth)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env, out, depth)
        elif isinstance(stmt, ast.While):
            raise SymbolicUnsupported(
                "while loops are outside the decidable fragment "
                "(no affine trip count)",
                stmt.lineno, check=_CHECK_LOOP,
            )
        elif isinstance(stmt, ast.Return):
            value: Value = UNKNOWN
            if stmt.value is not None:
                value = self._value_of(stmt.value, env, out, depth)
            raise _ReturnSignal(value)
        elif isinstance(stmt, (ast.Pass, ast.Assert, ast.Global,
                               ast.Nonlocal, ast.Import, ast.ImportFrom)):
            pass
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            raise SymbolicUnsupported(
                "break/continue defeat loop summarization",
                stmt.lineno, check=_CHECK_LOOP,
            )
        else:
            raise SymbolicUnsupported(
                f"unsupported statement {type(stmt).__name__}",
                stmt.lineno,
            )

    def _exec_expr_stmt(
        self, stmt: ast.Expr, env: Env, out: List[Term], depth: int
    ) -> None:
        value = stmt.value
        func = value.func if isinstance(value, ast.Call) else None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in env
            and not isinstance(env[func.value.id], Rank)
        ):
            # A method call on a tracked value (list.append & co) mutates
            # it behind the interpreter's back: drop to UNKNOWN so a
            # later waitall cannot use a stale request tuple.
            env[func.value.id] = UNKNOWN
        else:
            # A yield is extracted. A handle call built but never
            # yielded has nothing to extract (astlint reports
            # unyielded-call) unless ``Rank`` rejects it; a docstring or
            # any other bare call has no effect in the domain.
            self._value_of(value, env, out, depth)

    def _exec_assign(
        self, stmt: ast.Assign, env: Env, out: List[Term], depth: int
    ) -> None:
        value = self._value_of(stmt.value, env, out, depth)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                env[target.id] = value
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        env[element.id] = UNKNOWN
            else:
                raise SymbolicUnsupported(
                    "unsupported assignment target", stmt.lineno
                )

    def _exec_augassign(self, stmt: ast.AugAssign, env: Env) -> None:
        if not isinstance(stmt.target, ast.Name):
            raise SymbolicUnsupported(
                "unsupported augmented-assignment target", stmt.lineno
            )
        old = env.get(stmt.target.id, UNKNOWN)
        rhs = self._eval(stmt.value, env)
        env[stmt.target.id] = self._binop(stmt.op, old, rhs)

    # -- branches -------------------------------------------------------

    def _exec_if(
        self, stmt: ast.If, env: Env, out: List[Term], depth: int
    ) -> None:
        cond = self._eval_cond(stmt.test, env)
        if isinstance(cond, bool):
            self._exec_block(
                stmt.body if cond else stmt.orelse, env, out, depth
            )
            return
        then_env = dict(env)
        else_env = dict(env)
        then_out: List[Term] = []
        else_out: List[Term] = []
        try:
            self._exec_block(stmt.body, then_env, then_out, depth)
            self._exec_block(stmt.orelse, else_env, else_out, depth)
        except _ReturnSignal:
            raise SymbolicUnsupported(
                "return under a symbolic branch (divergent control flow)",
                stmt.lineno,
            ) from None
        if cond is None and (then_out or else_out):
            raise SymbolicUnsupported(
                "branch on a value outside the symbolic domain "
                "issues MPI calls",
                stmt.lineno,
            )
        if isinstance(cond, Cond) and (then_out or else_out):
            out.append(Branch(cond, then_out, else_out, stmt.lineno))
        merged: Env = {}
        for name in set(then_env) | set(else_env):
            a = then_env.get(name, UNKNOWN)
            b = else_env.get(name, UNKNOWN)
            merged[name] = a if a == b else UNKNOWN
        env.clear()
        env.update(merged)

    # -- loops ----------------------------------------------------------

    def _exec_for(
        self, stmt: ast.For, env: Env, out: List[Term], depth: int
    ) -> None:
        if not isinstance(stmt.target, ast.Name):
            raise SymbolicUnsupported(
                "loop target must be a single variable",
                stmt.lineno, check=_CHECK_LOOP,
            )
        if stmt.orelse:
            raise SymbolicUnsupported(
                "for/else is not summarizable",
                stmt.lineno, check=_CHECK_LOOP,
            )
        iter_node = stmt.iter
        if not (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "range"
            and not iter_node.keywords
            and 1 <= len(iter_node.args) <= 3
        ):
            raise SymbolicUnsupported(
                "only range() iteration is summarizable",
                stmt.lineno, check=_CHECK_LOOP,
            )
        bounds = [self._eval(arg, env) for arg in iter_node.args]
        for bound in bounds:
            if not isinstance(bound, Affine):
                raise SymbolicUnsupported(
                    "range bound is not an affine rank/size expression",
                    stmt.lineno, check=_CHECK_LOOP,
                )
        start = const(0) if len(bounds) == 1 else bounds[0]
        stop = bounds[0] if len(bounds) == 1 else bounds[1]
        step = bounds[2] if len(bounds) == 3 else const(1)
        assert isinstance(start, Affine)
        assert isinstance(stop, Affine)
        assert isinstance(step, Affine)
        if not step.is_const or step.c0 == 0:
            raise SymbolicUnsupported(
                "range step must be a nonzero constant",
                stmt.lineno, check=_CHECK_LOOP,
            )
        var = stmt.target.id
        count: Affine
        if start.is_const and stop.is_const:
            values = list(range(start.c0, stop.c0, step.c0))
            if len(values) <= UNROLL_LIMIT:
                for v in values:
                    env[var] = const(v)
                    self._exec_block(stmt.body, env, out, depth)
                return
            count = const(len(values))
        else:
            if step.c0 != 1:
                raise SymbolicUnsupported(
                    "non-unit step with symbolic range bounds",
                    stmt.lineno, check=_CHECK_LOOP,
                )
            diff = sexpr.sub(stop, start)
            if not isinstance(diff, Affine):
                raise SymbolicUnsupported(
                    "symbolic trip count is not affine",
                    stmt.lineno, check=_CHECK_LOOP,
                )
            count = diff
        # Keep the loop index symbolic in the body: a unique internal
        # name avoids capture by same-named outer loops.
        uniq = f"{var}#{stmt.lineno}.{self._next_loop_var}"
        self._next_loop_var += 1
        body_terms, final_env = self._summarize_body(stmt, env, depth, uniq)
        out.append(Repeat(count, body_terms, stmt.lineno,
                          var=uniq, start=start, step=step.c0))
        env.clear()
        env.update(final_env)

    def _summarize_body(
        self, stmt: ast.For, env: Env, depth: int, uniq: str
    ) -> Tuple[List[Term], Env]:
        """Find an iteration-*generic* rendering of the loop body.

        The loop index stays symbolic (an affine variable term bound at
        instantiation); every other loop-carried variable is widened to
        UNKNOWN until the post-body environment matches the pre-body
        one (height-2 lattice: at most a few rounds). The final
        evaluation's terms are then valid for every iteration.
        """
        assert isinstance(stmt.target, ast.Name)
        loop_var = stmt.target.id
        index = sexpr.var(uniq)
        widened: Set[str] = set()
        for _ in range(_MAX_FIXPOINT):
            trial: Env = dict(env)
            trial[loop_var] = UNKNOWN if loop_var in widened else index
            for name in widened:
                trial[name] = UNKNOWN
            before = dict(trial)
            body_out: List[Term] = []
            request_base = self._next_request
            try:
                self._exec_block(stmt.body, trial, body_out, depth)
            except _ReturnSignal:
                raise SymbolicUnsupported(
                    "return inside a summarized loop",
                    stmt.lineno, check=_CHECK_LOOP,
                ) from None
            except SymbolicUnsupported as exc:
                raise SymbolicUnsupported(
                    f"loop body not summarizable: {exc.message}",
                    exc.lineno or stmt.lineno, check=_CHECK_LOOP,
                ) from None
            changed = {
                name for name in trial
                if name not in before or trial[name] != before[name]
            }
            if changed <= widened:
                created = set(range(request_base, self._next_request))
                if created - _completed_requests(body_out):
                    raise SymbolicUnsupported(
                        "a nonblocking request escapes the loop body "
                        "without a completion",
                        stmt.lineno, check=_CHECK_LOOP,
                    )
                final_env = dict(trial)
                final_env[loop_var] = UNKNOWN
                for name in widened:
                    final_env[name] = UNKNOWN
                for name, value in final_env.items():
                    # The index dies with the loop: values still
                    # referencing it are meaningless afterwards.
                    if isinstance(value, Affine) and uniq in value.free_vars():
                        final_env[name] = UNKNOWN
                return body_out, final_env
            widened |= changed
        raise SymbolicUnsupported(
            "loop dataflow did not converge",
            stmt.lineno, check=_CHECK_LOOP,
        )

    # -- yields ---------------------------------------------------------

    def _value_of(
        self, expr: ast.expr, env: Env, out: List[Term], depth: int
    ) -> Value:
        if isinstance(expr, ast.Yield):
            if expr.value is None:
                raise SymbolicUnsupported("bare yield", expr.lineno)
            return self._do_yield(expr.value, env, out)
        if isinstance(expr, ast.YieldFrom):
            return self._do_yield_from(expr.value, env, out, depth)
        return self._eval(expr, env)

    def _handle_method(self, node: ast.expr, env: Env) -> Optional[str]:
        handles = [n for n, value in env.items() if isinstance(value, Rank)]
        return handle_call(node, handles)

    def _do_yield(
        self, call: ast.expr, env: Env, out: List[Term]
    ) -> Value:
        method = self._handle_method(call, env)
        if method is None:
            raise SymbolicUnsupported(
                "yield of a value that is not an MPI call", call.lineno
            )
        built, values = self._build(call, method, env)
        if not isinstance(built, Call):
            raise SymbolicUnsupported(
                f"cannot extract {method}() symbolically", call.lineno
            )
        return self._emit(built, method, call.lineno, values, out)

    def _do_yield_from(
        self, call: ast.expr, env: Env, out: List[Term], depth: int
    ) -> Value:
        method = self._handle_method(call, env)
        if method is not None:
            built, values = self._build(call, method, env)
            if isinstance(built, Call):
                raise SymbolicUnsupported(
                    f"yield from {method}() is outside the symbolic "
                    "fragment",
                    call.lineno,
                )
            return self._drive(built, method, call.lineno, values, out)
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in self.graph.functions
        ):
            return self._inline(call, call.func.id, env, out, depth)
        raise SymbolicUnsupported(
            "yield from an unknown generator", call.lineno
        )

    def _inline(
        self, call: ast.Call, name: str, env: Env, out: List[Term],
        depth: int,
    ) -> Value:
        if name in self.recursive:
            raise SymbolicUnsupported(
                f"helper {name}() is recursive and cannot be inlined",
                call.lineno,
            )
        if depth >= _MAX_INLINE_DEPTH:
            raise SymbolicUnsupported(
                "helper inlining exceeded the depth limit", call.lineno
            )
        fn = self.graph.functions[name]
        callee_env = self._bind_call(fn, call, env)
        try:
            self._exec_block(fn.body, callee_env, out, depth + 1)
        except _ReturnSignal as signal:
            return signal.value
        return UNKNOWN

    def _bind_call(
        self, fn: ast.FunctionDef, call: ast.Call, env: Env
    ) -> Env:
        args = fn.args
        if args.vararg or args.kwarg or args.posonlyargs:
            raise SymbolicUnsupported(
                f"helper {fn.name}() has *args/**kwargs", call.lineno
            )
        params = [a.arg for a in args.args]
        if len(call.args) > len(params):
            raise SymbolicUnsupported(
                f"too many arguments for helper {fn.name}()", call.lineno
            )
        callee_env: Env = {}
        self._bind_defaults(fn, callee_env)
        for param, arg in zip(params, call.args):
            callee_env[param] = self._eval(arg, env)
        kwonly = {a.arg for a in args.kwonlyargs}
        for kw in call.keywords:
            if kw.arg is None or (
                kw.arg not in params and kw.arg not in kwonly
            ):
                raise SymbolicUnsupported(
                    f"bad keyword argument for helper {fn.name}()",
                    call.lineno,
                )
            callee_env[kw.arg] = self._eval(kw.value, env)
        for param in params + sorted(kwonly):
            if param not in callee_env:
                raise SymbolicUnsupported(
                    f"helper {fn.name}() parameter {param!r} has no "
                    "value at the inlined call site",
                    call.lineno,
                )
        return callee_env

    # -- call emission --------------------------------------------------

    def _raises(self, said: object, lineno: int) -> SymbolicUnsupported:
        """A call ``Rank`` rejects, with what it ``said``."""
        return SymbolicUnsupported(
            f"{said} — the program raises at {self.filename}:{lineno}",
            lineno,
        )

    def _build(
        self, node: ast.expr, method: str, env: Env
    ) -> Tuple[Any, Dict[str, object]]:
        """What ``Rank`` builds for ``<handle>.<method>(...)`` — the
        ``Call`` of a single-call builder, the generator of a composite
        one — and the symbolic arguments it was built from."""
        assert isinstance(node, ast.Call)
        try:
            nodes = arguments(node, method)
        except TypeError as exc:
            raise self._raises(exc, node.lineno) from None
        if nodes is None:
            raise SymbolicUnsupported(
                f"{method}() unpacks its arguments", node.lineno
            )
        values: Dict[str, object] = {
            name: self._eval(arg, env) for name, arg in nodes.items()
        }
        try:
            return getattr(self._rank, method)(**values), values
        except TypeError as exc:
            raise self._raises(
                f"Rank.{method}(): {exc}", node.lineno
            ) from None

    def _drive(
        self, calls: Generator[Call, Value, None], method: str,
        lineno: int, values: Dict[str, object], out: List[Term],
    ) -> Value:
        """Run a composite builder's own generator, answering every
        call it yields as a program's yield would be answered."""
        reply: Any = None
        while True:
            try:
                call = calls.send(reply)
            except StopIteration:
                return UNKNOWN
            except TypeError as exc:
                raise self._raises(f"Rank.{method}(): {exc}", lineno) from None
            reply = self._emit(call, method, lineno, values, out)

    def _emit(
        self, call: Call, method: str, lineno: int,
        values: Dict[str, object], out: List[Term],
    ) -> Value:
        """Append the :class:`SymOp` of a built ``call``; the value the
        program's yield expression gets back."""
        kind = call.kind
        if runtime_steered(kind) or kind in _OUTSIDE_FRAGMENT:
            raise SymbolicUnsupported(
                f"{method}() is outside the symbolic fragment "
                "(runtime-steered result or persistent/communicator "
                "state)",
                lineno,
            )
        if call.comm is not self._rank.world:
            raise SymbolicUnsupported(
                f"{method}(comm=...) uses a derived communicator — "
                "outside the symbolic fragment",
                lineno,
            )

        def affine(value: object) -> Optional[Affine]:
            """A field as given, or the int its builder defaulted to."""
            if value is None or isinstance(value, Affine):
                return value
            if isinstance(value, int):
                return const(value)
            name = next(n for n, v in values.items() if v is value)
            raise SymbolicUnsupported(
                f"{method}() argument {name!r} is not an affine "
                "rank/size expression",
                lineno,
            )

        nbytes = getattr(call.nbytes, "const_value", call.nbytes)
        if not isinstance(nbytes, int):
            raise SymbolicUnsupported("nbytes must be a constant", lineno)
        requests: Tuple[object, ...] = call.requests
        if kind.completion and not (
            requests and all(isinstance(r, RequestVal) for r in requests)
        ):
            raise SymbolicUnsupported(
                f"{method}() on "
                f"{'a request' if kind is OpKind.WAIT else 'requests'} "
                "outside the symbolic domain",
                lineno,
            )
        op = SymOp(
            kind=kind, method=method, lineno=lineno,
            peer=affine(call.peer), tag=affine(call.tag) or const(0),
            root=affine(call.root), nbytes=nbytes,
            requests=tuple(
                r.sym_id for r in requests if isinstance(r, RequestVal)
            ),
            group=call.sendrecv_group,
        )
        out.append(op)
        if not kind.nonblocking_p2p:
            return UNKNOWN
        op.makes_request = self._next_request
        self._next_request += 1
        return RequestVal(op.makes_request)

    # -- pure expression evaluation -------------------------------------

    def _eval(self, expr: ast.expr, env: Env) -> Value:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or not isinstance(
                expr.value, int
            ):
                return UNKNOWN
            return const(expr.value)
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            value = self._named_constant(expr.id)
            if value is UNKNOWN and expr.id in self.graph.constants:
                return const(self.graph.constants[expr.id])
            return value
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and isinstance(env.get(expr.value.id), Rank)
            ):
                if expr.attr == "rank":
                    return RANK
                if expr.attr == "size":
                    return SIZE
                return UNKNOWN
            return self._named_constant(expr.attr)
        if isinstance(expr, ast.BinOp):
            return self._binop(
                expr.op, self._eval(expr.left, env),
                self._eval(expr.right, env),
            )
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.USub):
                return sexpr.neg(self._as_sym(self._eval(expr.operand, env)))
            return UNKNOWN
        if isinstance(expr, (ast.List, ast.Tuple)):
            items = [self._eval(e, env) for e in expr.elts]
            if all(isinstance(i, RequestVal) for i in items):
                return RequestTuple(
                    tuple(i for i in items if isinstance(i, RequestVal))
                )
            return UNKNOWN
        if isinstance(expr, ast.Subscript):
            base = self._eval(expr.value, env)
            index = self._eval(expr.slice, env)
            if (
                isinstance(base, RequestTuple)
                and isinstance(index, Affine) and index.is_const
                and -len(base.items) <= index.c0 < len(base.items)
            ):
                return base.items[index.c0]
            return UNKNOWN
        if isinstance(expr, ast.Call):
            method = self._handle_method(expr, env)
            if method is not None:
                self._build(expr, method, env)  # rejected, yielded or not
            return UNKNOWN
        if isinstance(expr, ast.IfExp):
            cond = self._eval_cond(expr.test, env)
            if isinstance(cond, bool):
                return self._eval(expr.body if cond else expr.orelse, env)
            then_value = self._eval(expr.body, env)
            else_value = self._eval(expr.orelse, env)
            joined = then_value if then_value == else_value else UNKNOWN
            return joined
        return UNKNOWN

    @staticmethod
    def _as_sym(value: Value) -> "sexpr.SymValue":
        if isinstance(value, Rank):
            return UNKNOWN
        return value

    def _binop(self, op: ast.operator, left: Value, right: Value) -> Value:
        a = self._as_sym(left)
        b = self._as_sym(right)
        if isinstance(op, ast.Add):
            return sexpr.add(a, b)
        if isinstance(op, ast.Sub):
            return sexpr.sub(a, b)
        if isinstance(op, ast.Mult):
            return sexpr.mul(a, b)
        if isinstance(op, ast.Mod):
            return sexpr.mod(a, b)
        if isinstance(op, ast.FloorDiv):
            return sexpr.floordiv(a, b)
        return UNKNOWN

    @staticmethod
    def _named_constant(name: str) -> Value:
        if name in _ANY_SOURCE_NAMES:
            return const(ANY_SOURCE)
        if name in _ANY_TAG_NAMES:
            return const(ANY_TAG)
        if name in _PROC_NULL_NAMES:
            return const(PROC_NULL)
        return UNKNOWN

    # -- conditions -----------------------------------------------------

    def _eval_cond(
        self, expr: ast.expr, env: Env
    ) -> Union[bool, Cond, None]:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (bool, int)):
                return bool(expr.value)
            return None
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            inner = self._eval_cond(expr.operand, env)
            if isinstance(inner, bool):
                return not inner
            if isinstance(inner, Cond):
                return inner.negate()
            return None
        if isinstance(expr, ast.Compare):
            return self._eval_compare(expr, env)
        if isinstance(expr, ast.BoolOp):
            return self._eval_boolop(expr, env)
        value = self._eval(expr, env)
        if isinstance(value, Affine) and value.is_const:
            return bool(value.c0)
        return None

    def _eval_compare(
        self, expr: ast.Compare, env: Env
    ) -> Union[bool, Cond, None]:
        if len(expr.ops) != 1 or len(expr.comparators) != 1:
            return None
        relop = _RELOPS.get(type(expr.ops[0]))
        if relop is None:
            return None
        lhs, lhs_mod = self._cond_side(expr.left, env)
        if lhs is None:
            return None
        rhs_value = self._eval(expr.comparators[0], env)
        if not isinstance(rhs_value, Affine):
            return None
        cond = Cond(lhs, relop, rhs_value, lhs_mod)
        if not self._cond_has_deps(cond):
            return cond.evaluate(0, 1)
        return cond

    def _cond_side(
        self, node: ast.expr, env: Env
    ) -> Tuple[Optional[Affine], Optional[int]]:
        """An affine side, recognizing the ``affine % const`` pattern."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            if (
                isinstance(left, Affine) and not left.mod_size
                and isinstance(right, Affine) and right.is_const
                and right.c0 > 0 and right != SIZE
            ):
                return left, right.c0
        value = self._eval(node, env)
        if isinstance(value, Affine):
            return value, None
        return None, None

    @staticmethod
    def _cond_has_deps(cond: Cond) -> bool:
        for side in (cond.lhs, cond.rhs):
            if side.c_rank or side.c_size or side.mod_size or side.c_vars:
                return True
        return False

    def _eval_boolop(
        self, expr: ast.BoolOp, env: Env
    ) -> Union[bool, Cond, None]:
        is_and = isinstance(expr.op, ast.And)
        residual: List[Union[Cond, None]] = []
        for value_node in expr.values:
            part = self._eval_cond(value_node, env)
            if isinstance(part, bool):
                if is_and and not part:
                    return False
                if not is_and and part:
                    return True
                continue  # neutral element
            residual.append(part)
        if not residual:
            return is_and
        if len(residual) == 1 and isinstance(residual[0], Cond):
            return residual[0]
        return None


# ----------------------------------------------------------------------
# Request closure scan (loop summarization invariant)
# ----------------------------------------------------------------------

def _completed_requests(terms: Sequence[Term]) -> Set[int]:
    done: Set[int] = set()
    for term in terms:
        if isinstance(term, SymOp):
            if term.kind in (OpKind.WAIT, OpKind.WAITALL):
                done |= set(term.requests)
        elif isinstance(term, Repeat):
            done |= _completed_requests(term.body)
        else:
            done |= (
                _completed_requests(term.then)
                & _completed_requests(term.orelse)
            )
    return done


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def summarize_program(
    program: RankProgram, graph: CallGraph, filename: str
) -> ProgramSummary:
    """Symbolically extract one rank program into a term tree."""
    interpreter = _SymbolicInterpreter(graph, filename)
    try:
        terms = interpreter.run(program)
    except SymbolicUnsupported as exc:
        severity = (
            Severity.WARNING if exc.check == _CHECK_LOOP else Severity.INFO
        )
        finding = CheckFinding(
            check=exc.check,
            severity=severity,
            rank=None,
            message=(
                f"program {program.name!r}: {exc.message}; symbolic "
                "extraction unavailable (fragment UNDECIDABLE)"
            ),
            location=f"{filename}:{exc.lineno}",
        )
        return ProgramSummary(
            name=program.name,
            filename=filename,
            terms=[],
            supported=False,
            reason=exc.message,
            reason_line=exc.lineno,
            reason_check=exc.check,
            notes=[finding],
        )
    return ProgramSummary(
        name=program.name,
        filename=filename,
        terms=terms,
        supported=True,
    )


def summarize_module(
    tree: ast.Module, filename: str
) -> List[ProgramSummary]:
    """Symbolic extraction for every rank program in a parsed module."""
    graph = build_call_graph(tree)
    return [
        summarize_program(program, graph, filename)
        for program in find_rank_programs(tree)
    ]


def summarize_source(source: str, filename: str) -> List[ProgramSummary]:
    """Parse ``source`` and symbolically extract its rank programs."""
    return summarize_module(
        ast.parse(source, filename=filename), filename
    )


# ----------------------------------------------------------------------
# Instantiation
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _world(size: int) -> Communicator:
    """The world communicator of ``size`` ranks. Every rank of a sweep
    instantiates against the same one, and building it is O(size)."""
    return CommRegistry(size).world


class _Instantiator:
    def __init__(
        self, rank: int, size: int, max_ops: int, filename: str
    ) -> None:
        self.rank = rank
        self.size = size
        self.max_ops = max_ops
        self.filename = filename
        self.recorder = CallRecorder(rank)
        self._world = _world(size)
        #: Symbolic request id -> the id the recorder gave it.
        self._requests: Dict[int, int] = {}
        #: Symbolic sendrecv group -> this rank's number for its open
        #: decomposition (dense, as ``Rank.sendrecv`` counts).
        self._groups: Dict[int, int] = {}
        self._next_group = 0
        self._bindings: Dict[str, int] = {}

    def _at(self, expr: Union[Affine, Cond]) -> int:
        """``expr`` at this rank, world size and loop iteration."""
        return expr.evaluate(self.rank, self.size, self._bindings)

    def walk(self, terms: Sequence[Term]) -> None:
        for term in terms:
            if isinstance(term, SymOp):
                self._emit(term)
            elif isinstance(term, Repeat):
                self._repeat(term)
            else:
                self.walk(term.then if self._at(term.cond) else term.orelse)

    def _repeat(self, term: Repeat) -> None:
        count = self._at(term.count)
        if term.var is None or term.start is None:
            for _ in range(max(0, count)):
                self.walk(term.body)
            return
        start = self._at(term.start)
        for iteration in range(max(0, count)):
            self._bindings[term.var] = start + iteration * term.step
            self.walk(term.body)
        self._bindings.pop(term.var, None)

    def _emit(self, term: SymOp) -> None:
        if len(self.recorder.ops) >= self.max_ops:
            raise InstantiationError(
                f"instantiation exceeded {self.max_ops} operations "
                f"for rank {self.rank}"
            )
        peer: Optional[int] = None
        if term.peer is not None:
            peer = self._at(term.peer)
            if peer not in (ANY_SOURCE, PROC_NULL) and not (
                0 <= peer < self.size
            ):
                raise InstantiationError(
                    f"{term.method}() at {self.filename}:{term.lineno} "
                    f"computes peer {peer} outside the communicator "
                    f"(size {self.size}) for rank {self.rank}"
                )
        try:
            requests = tuple(
                self._requests[sym] for sym in term.requests
            )
        except KeyError as exc:
            raise InstantiationError(
                f"completion at {self.filename}:{term.lineno} references "
                f"an uninstantiated request (symbolic id {exc.args[0]})"
            ) from None
        group: Optional[int] = None
        if term.group is not None:
            if term.group not in self._groups:
                self._groups[term.group] = self._next_group
                self._next_group += 1
            group = self._groups[term.group]
            if term.requests:  # its completion closes a decomposition
                del self._groups[term.group]
        try:
            op = self.recorder.record(Call(
                kind=term.kind,
                comm=self._world,
                peer=peer,
                tag=self._at(term.tag),
                root=None if term.root is None else self._at(term.root),
                requests=requests,
                nbytes=term.nbytes,
                sendrecv_group=group,
                location=f"{self.filename}:{term.lineno}",
            ))
        except ValueError as exc:
            raise InstantiationError(
                f"{term.method}() at {self.filename}:{term.lineno} "
                f"instantiates to an invalid operation for rank "
                f"{self.rank}: {exc}"
            ) from None
        if term.makes_request is not None:
            assert op.request is not None
            self._requests[term.makes_request] = op.request


def instantiate(
    terms: Sequence[Term],
    rank: int,
    size: int,
    *,
    max_ops: int = 50_000,
    filename: str = "",
) -> List[Operation]:
    """Concrete per-rank operation sequence of a term tree.

    Each evaluated :class:`SymOp` is recorded by the
    :class:`~repro.runtime.recording.CallRecorder` the extractor and
    the engine record with, so ``ts`` and request ids are theirs by
    construction; what this function adds is the term walk and the
    affine evaluation of peers, tags and roots.
    """
    walker = _Instantiator(rank, size, max_ops, filename)
    walker.walk(terms)
    return walker.recorder.ops
