"""What a rank-program file is: the one reader under every command
that takes one.

``repro lint``, ``verify``, ``classify`` and ``prove`` decide a ``.py``
file without running it; ``repro blame``, ``watch``, ``Session.blame``
and the program jobs of ``repro serve`` run it under the tool. A verdict
of the first group handed to the second means something only if every
stage reads the same programs out of the file, so all open it here:

* a **rank program** is a module-level function that can be called
  with the :class:`~repro.runtime.program.Rank` handle alone and whose
  own body yields an MPI call built on it (:func:`find_rank_programs`);
  a generator that needs more arguments is a helper, inlined where a
  program drives it with ``yield from`` (DESIGN.md §13);
* a module-level ``LINT_PROGRAMS = [...]`` names the job itself, one
  callable per rank — the one way to say MPMD. Without it every
  program is its own SPMD job of ``LINT_RANKS`` copies (default: the
  command's ``-n``), in source order (:meth:`ProgramFile.program_sets`);
* a runner runs the file's job when there is exactly one and refuses
  otherwise, naming the programs it found (:meth:`ProgramFile.run_set`).

What an MPI call *is* is written once, as the public methods of
:class:`~repro.runtime.program.Rank`: the method sets below are computed
from them and :func:`arguments` binds a call site with the builder's
own signature, so a call ``Rank`` rejects is one ``TypeError`` to every
static stage.

This module imports nothing of the analysis stack (a cold ``repro blame
FILE.py`` loads no ``repro.analysis`` module);
:mod:`repro.analysis.astlint` imports the discovery rule back.
"""
from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Collection, Dict, Iterator, List, Optional
from typing import Tuple, cast

from repro.mpi.constants import OpKind
from repro.runtime.program import Rank
from repro.util.errors import MpiUsageError, ReproError

#: The one table of rank-program calls is ``Rank``: the signature of
#: each of its public methods (a call's name, arguments and defaults).
_SIGNATURES = {
    name: inspect.signature(builder) for name, builder in vars(Rank).items()
    if inspect.isfunction(builder) and not name.startswith("_")
}
#: Builders returning a *sub-generator*: must be driven by yield-from.
GENERATOR_METHODS = frozenset(
    name for name in _SIGNATURES
    if inspect.isgeneratorfunction(getattr(Rank, name))
)


def _built_kinds() -> Dict[str, OpKind]:
    """The kind of the call each single-call builder builds, asked of
    the builder with a placeholder for every required argument."""
    handle: Any = Rank(0, cast(Any, None))
    kinds: Dict[str, OpKind] = {}
    for name, signature in _SIGNATURES.items():
        if name not in GENERATOR_METHODS:
            required = [
                p for p in list(signature.parameters.values())[1:]
                if p.default is p.empty
            ]
            kinds[name] = getattr(handle, name)(*[()] * len(required)).kind
    return kinds


_KINDS = _built_kinds()
#: Builders returning a single call: must be the value of a plain yield.
PLAIN_METHODS = frozenset(_KINDS)
#: ... that name a destination, or a source.
SEND_METHODS = frozenset(
    name for name in _KINDS if "dest" in _SIGNATURES[name].parameters
)
RECV_METHODS = frozenset(
    name for name in _KINDS if "source" in _SIGNATURES[name].parameters
)
COLLECTIVE_METHODS = frozenset(
    name for name, kind in _KINDS.items() if kind.collective
)
COMPLETION_METHODS = frozenset(
    name for name, kind in _KINDS.items() if kind.completion
)
OTHER_PLAIN_METHODS = PLAIN_METHODS - (
    SEND_METHODS | RECV_METHODS | COLLECTIVE_METHODS | COMPLETION_METHODS
)
ALL_METHODS = frozenset(_SIGNATURES)

#: One job of a file: its label and one callable per rank.
ProgramSet = Tuple[str, List[Callable[..., Any]]]


@dataclass
class RankProgram:
    """A module-level function recognized as a rank program."""

    node: ast.FunctionDef
    handle: str  # parameter name of the Rank handle

    @property
    def name(self) -> str:
        return self.node.name


def handle_call(node: ast.AST, handles: Collection[str]) -> Optional[str]:
    """Name called when ``node`` is ``<handle>.<name>(...)`` — an MPI
    call if ``Rank`` defines it (``ALL_METHODS``); if not, the call
    raises and :func:`arguments` says so."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in handles
    ):
        return node.func.attr
    return None


def arguments(call: ast.Call, method: str) -> Optional[Dict[str, ast.expr]]:
    """Parameter name -> argument expression of ``<handle>.<method>(...)``
    as the builder's own signature binds them; a default — left out, or
    spelled as the ``None`` it is — is an absent key. None when the call
    unpacks (``*args``/``**kwargs`` bind where the source does not say).
    ``TypeError``, with what the signature said, for a call ``Rank``
    rejects (arity, unknown keyword, unknown method): the program raises
    there when it runs."""
    if method not in _SIGNATURES:
        raise TypeError(f"Rank has no call {method}()")
    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}
    if len(keywords) < len(call.keywords) or any(
        isinstance(arg, ast.Starred) for arg in call.args
    ):
        return None
    signature = _SIGNATURES[method]
    try:
        bound = signature.bind(None, *call.args, **keywords)
    except TypeError as exc:
        raise TypeError(f"Rank.{method}(): {exc}") from None
    return {
        name: arg for name, arg in list(bound.arguments.items())[1:]
        if signature.parameters[name].default is not None
        or not (isinstance(arg, ast.Constant) and arg.value is None)
    }


def scoped_walk(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def program_handle(fn: ast.FunctionDef) -> Optional[str]:
    """The handle parameter name when ``fn`` looks like a rank program.

    A rank program takes the handle as its first parameter and directly
    yields at least one MPI call built on it.
    """
    args = fn.args
    if not args.args:
        return None
    handle = args.args[0].arg
    for node in scoped_walk(fn):
        if (
            isinstance(node, (ast.Yield, ast.YieldFrom))
            and node.value is not None
            and handle_call(node.value, {handle}) in ALL_METHODS
        ):
            return handle
    return None


def find_rank_programs(tree: ast.Module) -> List[RankProgram]:
    """Module-level functions that are recognizably rank programs."""
    programs: List[RankProgram] = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        extra_required = len(node.args.args) - 1 - len(node.args.defaults)
        if extra_required > 0:
            continue  # cannot be called with just the Rank handle
        handle = program_handle(node)
        if handle is not None:
            programs.append(RankProgram(node=node, handle=handle))
    return programs


class ProgramFileError(ReproError):
    """The file cannot be read as rank programs.

    ``reason`` leaves the file's name out, so each command words its
    own message around it; ``lineno`` is set when the source does not
    parse; what the module raised, if it did, is ``__cause__``.
    """

    def __init__(
        self, path: str, reason: str, lineno: Optional[int] = None
    ) -> None:
        super().__init__(f"{path}: {reason}")
        self.reason = reason
        self.lineno = lineno


def _assigns_lint_programs(tree: ast.Module) -> bool:
    """Whether a top-level statement assigns ``LINT_PROGRAMS`` (asked
    of the tree, so that no file is executed to find out)."""
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "LINT_PROGRAMS":
                return True
    return False


class ProgramFile:
    """One rank-program file: read once, parsed once, executed at most
    once, and from the tree the static passes read."""

    def __init__(self, path: str) -> None:
        """Read and parse ``path``: ``OSError`` when it cannot be read,
        :class:`ProgramFileError` with ``lineno`` when it does not
        parse. The file is opened, and later compiled, under its
        absolute path, as ``importlib`` would name it: the call-site
        locations of the executed programs spell that path."""
        self.path = path
        self.origin = os.path.abspath(path)
        with open(self.origin, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise ProgramFileError(
                path, f"source does not parse: {exc.msg}", exc.lineno or 1
            ) from exc
        #: Discovered rank programs, in source order.
        self.programs = find_rank_programs(self.tree)
        #: Whether the module names its job itself.
        self.explicit = _assigns_lint_programs(self.tree)
        self._module: Optional[ModuleType] = None

    def module(self) -> ModuleType:
        """The file's module, executed by the first call.

        Its name is this object's own and is in ``sys.modules`` while
        the body executes: ``@dataclass`` under postponed annotations
        looks its module up there, and two ``repro serve`` workers
        loading at once must not share a slot.
        """
        if self._module is None:
            name = f"_repro_program_file_{id(self):x}"
            spec = importlib.util.spec_from_file_location(name, self.origin)
            if spec is None:  # no loader for this suffix
                raise ProgramFileError(self.path, "cannot import module")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            try:
                # dont_inherit: this module's __future__ import is not
                # the file's.
                exec(
                    compile(self.tree, self.origin, "exec", dont_inherit=True),
                    module.__dict__,
                )
            except SystemExit as exc:
                raise ProgramFileError(
                    self.path, "module exited during import"
                ) from exc
            except Exception as exc:
                raise ProgramFileError(
                    self.path, f"import failed ({exc!r})"
                ) from exc
            finally:
                sys.modules.pop(name, None)
            self._module = module
        return self._module

    def program_sets(self, ranks: int) -> List[ProgramSet]:
        """The jobs of this file: ``LINT_PROGRAMS`` as given, else one
        SPMD set of ``LINT_RANKS`` (default ``ranks``) copies per
        discovered program. A file that has neither has no job and is
        not executed; :class:`ProgramFileError` when executing fails."""
        if not self.programs and not self.explicit:
            return []
        module = self.module()
        explicit = getattr(module, "LINT_PROGRAMS", None)
        if self.explicit and explicit is not None:
            return [("LINT_PROGRAMS", list(explicit))]
        n = getattr(module, "LINT_RANKS", ranks)
        sets: List[ProgramSet] = []
        for program in self.programs:
            fn = getattr(module, program.name, None)
            if not callable(fn):
                raise ProgramFileError(
                    self.path, f"{program.name} is rebound to no callable"
                )
            sets.append((program.name, [fn] * n))
        return sets

    def run_set(self, ranks: int) -> List[Callable[..., Any]]:
        """The one job a runner runs, or :class:`ProgramFileError`.

        A runner executes the file it is given, programs or not, so an
        exit or an exception at import is reported as that; only the
        commands that run nothing leave a program-less file alone.
        """
        self.module()
        sets = self.program_sets(ranks)
        if not sets:
            raise ProgramFileError(
                self.path,
                "no rank programs found (no LINT_PROGRAMS and no "
                "module-level generator function)",
            )
        if len(sets) > 1:
            names = ", ".join(label for label, _ in sets)
            raise ProgramFileError(
                self.path,
                f"{len(sets)} rank programs found ({names}) and a run "
                "needs one job: a module-level LINT_PROGRAMS = [...] "
                "picks (one callable per rank)",
            )
        return sets[0][1]


def program_error(path: str, exc: Exception) -> Optional[str]:
    """One line for an exception that is the bug of the rank program
    ``path`` a runner was running: the engine refusing what it asked
    for, or what came up through a frame of that file and was not raised
    by the tool's own code. None for the rest — a bug of the tool keeps
    its traceback."""
    if isinstance(exc, MpiUsageError):
        return f"{type(exc).__name__}: {exc}"
    origin = os.path.abspath(path)
    where: Optional[int] = None
    raised_in = ""
    tb = exc.__traceback__
    while tb is not None:
        raised_in = tb.tb_frame.f_code.co_filename
        if raised_in == origin:
            where = tb.tb_lineno
        tb = tb.tb_next
    package = os.path.dirname(os.path.abspath(__file__)) + os.sep
    if where is None or raised_in.startswith(package):
        return None
    return (
        f"rank program raised {type(exc).__name__}: {exc} ({path}:{where})"
    )
