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
sites when the call graph (:mod:`.cfg`) proves them non-recursive;
``rank.sendrecv`` decomposes into its Isend+Irecv+Waitall expansion
exactly as the runtime does.

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
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
from repro.programfile import RankProgram, find_rank_programs
from repro.runtime.program import Call
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


class _Handle:
    """Sentinel environment value for the Rank handle parameter."""

    def __repr__(self) -> str:
        return "HANDLE"


HANDLE = _Handle()

Value = Union[Affine, RequestVal, RequestTuple, _UnknownType, _Handle]
Env = Dict[str, Value]


# ----------------------------------------------------------------------
# Term tree
# ----------------------------------------------------------------------

@dataclass
class SymOp:
    """One MPI call with affine envelope fields."""

    kind: OpKind
    method: str
    lineno: int
    peer: Optional[Affine] = None
    tag: Affine = field(default_factory=lambda: const(0))
    root: Optional[Affine] = None
    nbytes: int = 8
    #: Symbolic request ids a completion waits on.
    requests: Tuple[int, ...] = ()
    #: Symbolic request id this op creates (isend/irecv).
    makes_request: Optional[int] = None
    #: Symbolic sendrecv-group id shared by one decomposition.
    group: Optional[int] = None
    #: True on the first op of a decomposition (allocates the group).
    opens_group: bool = False

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
# Method tables
# ----------------------------------------------------------------------

_BLOCKING_SENDS = {
    "send": OpKind.SEND,
    "ssend": OpKind.SSEND,
    "bsend": OpKind.BSEND,
    "rsend": OpKind.RSEND,
}
_NONBLOCKING_SENDS = {
    "isend": OpKind.ISEND,
    "issend": OpKind.ISSEND,
    "ibsend": OpKind.IBSEND,
    "irsend": OpKind.IRSEND,
}
_ROOTED_COLLECTIVES = {
    "bcast": OpKind.BCAST,
    "reduce": OpKind.REDUCE,
    "gather": OpKind.GATHER,
    "scatter": OpKind.SCATTER,
}
_PLAIN_COLLECTIVES = {
    "barrier": OpKind.BARRIER,
    "allreduce": OpKind.ALLREDUCE,
    "allgather": OpKind.ALLGATHER,
    "alltoall": OpKind.ALLTOALL,
    "scan": OpKind.SCAN,
    "reduce_scatter": OpKind.REDUCE_SCATTER,
}
#: Methods whose semantics (runtime-steered results, persistent request
#: state machines, derived communicators) are outside the v1 fragment.
_UNSUPPORTED_METHODS = frozenset(
    {
        "iprobe", "test", "testall", "testany", "testsome",
        "waitany", "waitsome",
        "send_init", "recv_init", "start", "startall", "request_free",
        "comm_dup", "comm_split", "comm_create", "comm_free",
    }
)

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


def _argument(node: ast.Call, index: int, keyword: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    if index < len(node.args):
        return node.args[index]
    return None


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------

class _SymbolicInterpreter:
    def __init__(self, graph: CallGraph, filename: str) -> None:
        self.graph = graph
        self.filename = filename
        self.recursive = graph.recursive_functions()
        self._next_request = 0
        self._next_group = 0
        self._next_loop_var = 0

    # -- entry ----------------------------------------------------------

    def run(self, program: RankProgram) -> List[Term]:
        env: Env = {}
        self._bind_defaults(program.node, env)
        env[program.handle] = HANDLE
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
        if isinstance(value, (ast.Yield, ast.YieldFrom)):
            self._value_of(value, env, out, depth)
            return
        if isinstance(value, ast.Constant):
            return  # docstring
        if isinstance(value, ast.Call):
            func = value.func
            # A method call on a tracked value (list.append & co) mutates
            # it behind the interpreter's back: drop to UNKNOWN so a
            # later waitall cannot use a stale request tuple.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in env
                and not isinstance(env[func.value.id], _Handle)
            ):
                env[func.value.id] = UNKNOWN
                return
            if isinstance(func, ast.Attribute) and isinstance(
                env.get(func.value.id) if isinstance(func.value, ast.Name)
                else None, _Handle
            ):
                # Handle call built but never yielded — astlint reports
                # it (unyielded-call); nothing to extract.
                return
            return  # other bare calls have no effect in the domain

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
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and isinstance(env.get(node.func.value.id), _Handle)
        ):
            return node.func.attr
        return None

    def _do_yield(
        self, call: ast.expr, env: Env, out: List[Term]
    ) -> Value:
        method = self._handle_method(call, env)
        if method is None:
            raise SymbolicUnsupported(
                "yield of a value that is not an MPI call", call.lineno
            )
        assert isinstance(call, ast.Call)
        return self._emit_call(call, method, env, out)

    def _do_yield_from(
        self, call: ast.expr, env: Env, out: List[Term], depth: int
    ) -> Value:
        method = self._handle_method(call, env)
        if method == "sendrecv":
            assert isinstance(call, ast.Call)
            return self._emit_sendrecv(call, env, out)
        if method is not None:
            raise SymbolicUnsupported(
                f"yield from {method}() is outside the symbolic fragment",
                call.lineno,
            )
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

    def _emit_call(
        self, call: ast.Call, method: str, env: Env, out: List[Term]
    ) -> Value:
        if method in _UNSUPPORTED_METHODS:
            raise SymbolicUnsupported(
                f"{method}() is outside the symbolic fragment "
                "(runtime-steered result or persistent/communicator "
                "state)",
                call.lineno,
            )
        self._reject_comm_kwarg(call, method)
        nbytes = self._nbytes_of(call)
        if method in _BLOCKING_SENDS or method in _NONBLOCKING_SENDS:
            peer = self._field(call, 0, "dest", env, method)
            tag = self._field_default(call, 1, "tag", env, method, const(0))
            op = SymOp(
                kind=(_BLOCKING_SENDS.get(method)
                      or _NONBLOCKING_SENDS[method]),
                method=method, lineno=call.lineno,
                peer=peer, tag=tag, nbytes=nbytes,
            )
            result: Value = UNKNOWN
            if method in _NONBLOCKING_SENDS:
                op.makes_request = self._fresh_request()
                result = RequestVal(op.makes_request)
            out.append(op)
            return result
        if method in ("recv", "irecv", "probe"):
            peer = self._field_default(
                call, 0, "source", env, method, const(ANY_SOURCE)
            )
            tag = self._field_default(
                call, 1, "tag", env, method, const(ANY_TAG)
            )
            kind = {
                "recv": OpKind.RECV,
                "irecv": OpKind.IRECV,
                "probe": OpKind.PROBE,
            }[method]
            op = SymOp(kind=kind, method=method, lineno=call.lineno,
                       peer=peer, tag=tag,
                       nbytes=0 if method == "probe" else nbytes)
            if method == "irecv":
                op.makes_request = self._fresh_request()
                out.append(op)
                return RequestVal(op.makes_request)
            out.append(op)
            return UNKNOWN
        if method == "wait":
            request = self._eval_argument(call, 0, "request", env)
            if not isinstance(request, RequestVal):
                raise SymbolicUnsupported(
                    "wait() on a request outside the symbolic domain",
                    call.lineno,
                )
            out.append(SymOp(
                kind=OpKind.WAIT, method=method, lineno=call.lineno,
                requests=(request.sym_id,),
            ))
            return UNKNOWN
        if method == "waitall":
            requests = self._eval_argument(call, 0, "requests", env)
            if not (
                isinstance(requests, RequestTuple) and requests.items
            ):
                raise SymbolicUnsupported(
                    "waitall() on requests outside the symbolic domain",
                    call.lineno,
                )
            out.append(SymOp(
                kind=OpKind.WAITALL, method=method, lineno=call.lineno,
                requests=tuple(r.sym_id for r in requests.items),
            ))
            return UNKNOWN
        if method in _ROOTED_COLLECTIVES:
            root = self._field(call, 0, "root", env, method)
            out.append(SymOp(
                kind=_ROOTED_COLLECTIVES[method], method=method,
                lineno=call.lineno, root=root, nbytes=nbytes,
            ))
            return UNKNOWN
        if method in _PLAIN_COLLECTIVES:
            out.append(SymOp(
                kind=_PLAIN_COLLECTIVES[method], method=method,
                lineno=call.lineno, nbytes=nbytes,
            ))
            return UNKNOWN
        if method == "finalize":
            out.append(SymOp(
                kind=OpKind.FINALIZE, method=method, lineno=call.lineno,
                nbytes=0,
            ))
            return UNKNOWN
        raise SymbolicUnsupported(
            f"cannot extract {method}() symbolically", call.lineno
        )

    def _emit_sendrecv(
        self, call: ast.Call, env: Env, out: List[Term]
    ) -> Value:
        self._reject_comm_kwarg(call, "sendrecv")
        nbytes = self._nbytes_of(call)
        dest = self._field(call, 0, "dest", env, "sendrecv")
        source = self._field(call, 1, "source", env, "sendrecv")
        sendtag = self._field_default(
            call, 2, "sendtag", env, "sendrecv", const(0)
        )
        recvtag = self._field_default(
            call, 3, "recvtag", env, "sendrecv", const(ANY_TAG)
        )
        group = self._next_group
        self._next_group += 1
        send_req = self._fresh_request()
        recv_req = self._fresh_request()
        out.append(SymOp(
            kind=OpKind.ISEND, method="sendrecv", lineno=call.lineno,
            peer=dest, tag=sendtag, nbytes=nbytes,
            makes_request=send_req, group=group, opens_group=True,
        ))
        out.append(SymOp(
            kind=OpKind.IRECV, method="sendrecv", lineno=call.lineno,
            peer=source, tag=recvtag, nbytes=nbytes,
            makes_request=recv_req, group=group,
        ))
        out.append(SymOp(
            kind=OpKind.WAITALL, method="sendrecv", lineno=call.lineno,
            requests=(send_req, recv_req), group=group,
        ))
        return UNKNOWN

    def _fresh_request(self) -> int:
        sym_id = self._next_request
        self._next_request += 1
        return sym_id

    def _reject_comm_kwarg(self, call: ast.Call, method: str) -> None:
        for kw in call.keywords:
            if kw.arg == "comm" and not (
                isinstance(kw.value, ast.Constant)
                and kw.value.value is None
            ):
                raise SymbolicUnsupported(
                    f"{method}(comm=...) uses a derived communicator — "
                    "outside the symbolic fragment",
                    call.lineno,
                )

    def _nbytes_of(self, call: ast.Call) -> int:
        for kw in call.keywords:
            if kw.arg == "nbytes":
                value = self._eval(kw.value, {})
                if isinstance(value, Affine) and value.is_const:
                    return value.c0
                raise SymbolicUnsupported(
                    "nbytes must be a constant", call.lineno
                )
        return 8

    def _eval_argument(
        self, call: ast.Call, index: int, keyword: str, env: Env
    ) -> Value:
        node = _argument(call, index, keyword)
        if node is None:
            raise SymbolicUnsupported(
                f"missing required argument {keyword!r}", call.lineno
            )
        return self._eval(node, env)

    def _field(
        self, call: ast.Call, index: int, keyword: str, env: Env,
        method: str,
    ) -> Affine:
        value = self._eval_argument(call, index, keyword, env)
        if not isinstance(value, Affine):
            raise SymbolicUnsupported(
                f"{method}() argument {keyword!r} is not an affine "
                "rank/size expression",
                call.lineno,
            )
        return value

    def _field_default(
        self, call: ast.Call, index: int, keyword: str, env: Env,
        method: str, default: Affine,
    ) -> Affine:
        node = _argument(call, index, keyword)
        if node is None:
            return default
        value = self._eval(node, env)
        if not isinstance(value, Affine):
            raise SymbolicUnsupported(
                f"{method}() argument {keyword!r} is not an affine "
                "rank/size expression",
                call.lineno,
            )
        return value

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
                and isinstance(env.get(expr.value.id), _Handle)
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
        if isinstance(value, _Handle):
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
        self._groups: Dict[int, int] = {}
        self._next_group = 0
        self._bindings: Dict[str, int] = {}

    def walk(self, terms: Sequence[Term]) -> None:
        for term in terms:
            if isinstance(term, SymOp):
                self._emit(term)
            elif isinstance(term, Repeat):
                self._repeat(term)
            else:
                taken = term.cond.evaluate(
                    self.rank, self.size, self._bindings
                )
                self.walk(term.then if taken else term.orelse)

    def _repeat(self, term: Repeat) -> None:
        count = term.count.evaluate(self.rank, self.size, self._bindings)
        if term.var is None or term.start is None:
            for _ in range(max(0, count)):
                self.walk(term.body)
            return
        start = term.start.evaluate(self.rank, self.size, self._bindings)
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
            peer = term.peer.evaluate(self.rank, self.size, self._bindings)
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
            # Dense per-rank numbering, as ``Rank.sendrecv`` counts.
            if term.opens_group:
                self._groups[term.group] = self._next_group
                self._next_group += 1
            group = self._groups[term.group]
        try:
            op = self.recorder.record(Call(
                kind=term.kind,
                comm=self._world,
                peer=peer,
                tag=term.tag.evaluate(self.rank, self.size, self._bindings),
                root=(
                    term.root.evaluate(self.rank, self.size, self._bindings)
                    if term.root is not None else None
                ),
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
