"""Source-level lint for rank programs (no execution required).

Rank programs drive the virtual MPI runtime by *yielding* call
descriptors built on their :class:`~repro.runtime.program.Rank`
handle. That protocol has sharp edges a pure AST pass can catch:

* ``rank.send(...)`` without ``yield`` builds a descriptor and drops
  it — the call never reaches the engine (the classic forgotten-yield
  bug, the static analogue of a lost message);
* ``yield from`` and ``yield`` confusion: composite helpers
  (``sendrecv``, ``startall``) are sub-generators and need ``yield
  from``, single-call builders must not use it;
* collectives issued under a rank-dependent branch with different
  collective sequences per branch — the textbook root/kind mismatch
  pattern (Section 2's erroneous applications);
* literal tags outside the portable ``[0, MPI_TAG_UB]`` window;
* ``MPI_ANY_SOURCE`` used as a send destination;
* a call ``Rank`` rejects — wrong arity, unknown keyword, unknown
  method (``bad-call``): the program raises there when it runs.

Which argument of a call site is its ``dest`` or its ``tag`` is read
off ``Rank``'s signatures (:func:`repro.programfile.arguments`).

Findings are :class:`~repro.checks.findings.CheckFinding` records with
``rank=None`` (source findings are per-program, not per-process) and a
``file:line`` location.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.checks.findings import CheckFinding, Severity
from repro.checks.local import MIN_TAG_UB
from repro.programfile import (
    ALL_METHODS,
    COLLECTIVE_METHODS,
    GENERATOR_METHODS,
    SEND_METHODS,
    RankProgram,
    arguments,
    find_rank_programs,
    handle_call,
    program_handle,
    scoped_walk,
)

#: Names that denote MPI_ANY_SOURCE in source text.
_ANY_SOURCE_NAMES = frozenset({"ANY_SOURCE", "MPI_ANY_SOURCE"})


def _int_literal(node: ast.AST) -> Optional[int]:
    """The value of an integer literal, handling unary minus."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
    ):
        inner = _int_literal(node.operand)
        if inner is not None:
            return -inner
    return None


def _is_any_source(node: ast.AST) -> bool:
    value = _int_literal(node)
    if value == -1:
        return True
    if isinstance(node, ast.Name) and node.id in _ANY_SOURCE_NAMES:
        return True
    if isinstance(node, ast.Attribute) and node.attr in _ANY_SOURCE_NAMES:
        return True
    return False


@dataclass
class _Linter:
    filename: str
    findings: List[CheckFinding] = field(default_factory=list)

    def report(self, check: str, severity: Severity, node: ast.AST,
               message: str) -> None:
        self.findings.append(
            CheckFinding(
                check=check,
                severity=severity,
                rank=None,
                message=message,
                location=f"{self.filename}:{node.lineno}",
            )
        )

    # ------------------------------------------------------------------

    def lint_program(self, fn: ast.FunctionDef, handle: str) -> None:
        handles = {handle}
        self._collect_aliases(fn, handles)
        self._check_yield_discipline(fn, handles)
        self._check_rank_dependent_collectives(fn, handles)
        self._check_rank_dependent_collective_loops(fn, handles)
        for call in scoped_walk(fn):
            method = handle_call(call, handles)
            if method is not None:
                assert isinstance(call, ast.Call)
                self._check_call_arguments(call, method)

    def _collect_aliases(self, fn: ast.FunctionDef,
                         handles: Set[str]) -> None:
        """Track simple handle aliases (``comm = rank``)."""
        for node in scoped_walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id in handles
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        handles.add(target.id)

    # -- yield discipline ----------------------------------------------

    def _check_yield_discipline(self, fn: ast.FunctionDef,
                                handles: Set[str]) -> None:
        yielded: Set[int] = set()
        yielded_from: Set[int] = set()
        for node in scoped_walk(fn):
            if isinstance(node, ast.Yield) and node.value is not None:
                yielded.add(id(node.value))
            elif isinstance(node, ast.YieldFrom):
                yielded_from.add(id(node.value))
        for node in scoped_walk(fn):
            method = handle_call(node, handles)
            if method not in ALL_METHODS:
                continue
            if method in GENERATOR_METHODS:
                if id(node) in yielded_from:
                    continue
                if id(node) in yielded:
                    self.report(
                        "yield-from-misuse", Severity.ERROR, node,
                        f"{self._call_text(node, method)} is a composite "
                        "sub-generator; drive it with 'yield from', not "
                        "'yield'",
                    )
                else:
                    self.report(
                        "unyielded-call", Severity.ERROR, node,
                        f"{self._call_text(node, method)} is never driven "
                        "('yield from' is required); the calls it builds "
                        "never reach the engine",
                    )
            else:
                if id(node) in yielded:
                    continue
                if id(node) in yielded_from:
                    self.report(
                        "yield-from-misuse", Severity.ERROR, node,
                        f"{self._call_text(node, method)} builds a single "
                        "MPI call; submit it with 'yield', not "
                        "'yield from'",
                    )
                else:
                    self.report(
                        "unyielded-call", Severity.ERROR, node,
                        f"{self._call_text(node, method)} builds a call "
                        "descriptor but never yields it to the engine; "
                        "the MPI operation is silently dropped",
                    )

    @staticmethod
    def _call_text(node: ast.Call, method: str) -> str:
        obj = node.func.value.id  # type: ignore[union-attr]
        return f"{obj}.{method}(...)"

    # -- rank-dependent collectives --------------------------------------

    def _check_rank_dependent_collectives(
        self, fn: ast.FunctionDef, handles: Set[str]
    ) -> None:
        rank_names = self._rank_identity_names(fn, handles)
        for node in scoped_walk(fn):
            if not isinstance(node, ast.If):
                continue
            if not self._mentions_rank(node.test, handles, rank_names):
                continue
            body_calls = self._collective_calls(node.body, handles)
            else_calls = self._collective_calls(node.orelse, handles)
            if body_calls != else_calls:
                described = self._describe_diff(body_calls, else_calls)
                self.report(
                    "rank-dependent-collective", Severity.WARNING, node,
                    "collective calls differ between rank-dependent "
                    f"branches ({described}); unless the branches "
                    "rejoin on every rank this mismatches the "
                    "collective order across the communicator",
                )

    def _check_rank_dependent_collective_loops(
        self, fn: ast.FunctionDef, handles: Set[str]
    ) -> None:
        """Collectives inside loops whose trip count depends on the
        rank identity: each rank then calls the collective a different
        number of times, which mismatches the collective order exactly
        like a rank-dependent branch does (the loop-shaped variant the
        branch check is blind to)."""
        rank_names = self._rank_identity_names(fn, handles)
        for node in scoped_walk(fn):
            if isinstance(node, ast.For):
                trip = node.iter
            elif isinstance(node, ast.While):
                trip = node.test
            else:
                continue
            if not self._mentions_rank(trip, handles, rank_names):
                continue
            calls = self._collective_calls(node.body, handles)
            if not calls:
                continue
            described = "+".join(calls)
            self.report(
                "rank-dependent-collective", Severity.WARNING, node,
                f"collective call(s) {described} sit inside a "
                "loop whose trip count depends on the rank identity; "
                "ranks will disagree on how many collective waves "
                "they join",
            )

    def _rank_identity_names(self, fn: ast.FunctionDef,
                             handles: Set[str]) -> Set[str]:
        """Variables assigned from ``<handle>.rank`` (simple aliases)."""
        names: Set[str] = set()
        for node in scoped_walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "rank"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in handles
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _mentions_rank(test: ast.AST, handles: Set[str],
                       rank_names: Set[str]) -> bool:
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "rank"
                and isinstance(node.value, ast.Name)
                and node.value.id in handles
            ):
                return True
            if isinstance(node, ast.Name) and node.id in rank_names:
                return True
        return False

    @staticmethod
    def _collective_calls(body: List[ast.stmt],
                          handles: Set[str]) -> Tuple[str, ...]:
        calls: List[str] = []
        for stmt in body:
            for node in ast.walk(stmt):
                method = handle_call(node, handles)
                if method in COLLECTIVE_METHODS:
                    calls.append(method)
        return tuple(calls)

    @staticmethod
    def _describe_diff(body: Tuple[str, ...],
                       else_: Tuple[str, ...]) -> str:
        fmt = lambda calls: "+".join(calls) if calls else "none"
        return f"if-branch: {fmt(body)}, else-branch: {fmt(else_)}"

    # -- argument checks -------------------------------------------------

    def _check_call_arguments(self, node: ast.Call, method: str) -> None:
        try:
            args = arguments(node, method) or {}
        except TypeError as exc:
            self.report(
                "bad-call", Severity.ERROR, node,
                f"{exc}; the program raises here when it runs",
            )
            return
        dest = args.get("dest")
        if dest is not None and _is_any_source(dest):
            self.report(
                "any-source-send", Severity.ERROR, node,
                f"MPI_ANY_SOURCE used as the destination of "
                f"{method}(); wildcards are only valid on the "
                "receive side",
            )
        for name, is_send in (
            ("tag", method in SEND_METHODS),
            ("sendtag", True),
            ("recvtag", False),
        ):
            self._check_tag_literal(
                node, method, args.get(name), is_send=is_send
            )

    def _check_tag_literal(self, node: ast.Call, method: str,
                           tag: Optional[ast.AST], *,
                           is_send: bool) -> None:
        if tag is None:
            return
        value = _int_literal(tag)
        if value is None:
            return
        floor = 0 if is_send else -1  # ANY_TAG is legal on receives
        if value < floor:
            self.report(
                "literal-tag-range", Severity.ERROR, node,
                f"literal tag {value} of {method}() is negative"
                + ("" if is_send else " (and not MPI_ANY_TAG)"),
            )
        elif value > MIN_TAG_UB:
            self.report(
                "literal-tag-range", Severity.WARNING, node,
                f"literal tag {value} of {method}() exceeds the "
                f"portable MPI_TAG_UB minimum ({MIN_TAG_UB})",
            )


def lint_module(tree: ast.Module, filename: str) -> List[CheckFinding]:
    """AST-lint a parsed module."""
    linter = _Linter(filename=filename)
    # Lint every function that yields handle-built MPI calls — nested
    # and non-module-level generators included — not just the programs
    # eligible for extraction.
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            handle = program_handle(node)
            if handle is not None:
                linter.lint_program(node, handle)
    return linter.findings


def lint_source(
    source: str, filename: str
) -> Tuple[List[CheckFinding], List[RankProgram]]:
    """AST-lint ``source``; returns findings and discovered programs.

    Raises :class:`SyntaxError` when the source does not parse. For a
    file, ``repro lint`` runs :func:`lint_module` on the tree
    :class:`repro.programfile.ProgramFile` parsed.
    """
    tree = ast.parse(source, filename=filename)
    return lint_module(tree, filename), find_rank_programs(tree)
