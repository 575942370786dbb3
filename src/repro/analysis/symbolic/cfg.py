"""The module call graph the symbolic extractor inlines along.

Built straight from the module AST, before any abstract interpretation
runs: a **call graph** over every module-level function, with its
strongly connected components, and the module's integer constants.
Helper generators in a trivial SCC are inlinable at their ``yield
from`` call sites; anything on a cycle (direct or mutual recursion) is
not, and the extractor reports the offending call instead of
diverging. Loops and branches need no graph of their own:
:mod:`.symexec` walks the statements of each function body directly.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple


@dataclass
class CallGraph:
    """Name-keyed call graph over a module's functions."""

    functions: Dict[str, ast.FunctionDef]
    #: callee names referenced from each function (defined ones only).
    edges: Dict[str, Set[str]]
    #: Strongly connected components, in reverse topological order.
    sccs: List[FrozenSet[str]]
    #: Module-level integer constants (``ITERATIONS = 3``) — resolved
    #: by the symbolic interpreter so constant loop bounds written as
    #: named module constants stay in the decidable fragment.
    constants: Dict[str, int] = field(default_factory=dict)

    def recursive_functions(self) -> Set[str]:
        """Functions on a call cycle (including self-recursion)."""
        out: Set[str] = set()
        for scc in self.sccs:
            if len(scc) > 1:
                out |= scc
            else:
                (name,) = scc
                if name in self.edges.get(name, set()):
                    out.add(name)
        return out


def _called_names(fn: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


def _module_constants(tree: ast.Module) -> Dict[str, int]:
    """Plain ``NAME = <int literal>`` bindings at module level.

    Reassigned names are dropped — only single-assignment constants
    are safe to fold into rank programs.
    """
    values: Dict[str, int] = {}
    assigned: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name in assigned:
                values.pop(name, None)
                continue
            assigned.add(name)
            if (
                value is not None
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                values[name] = value.value
    return values


def build_call_graph(tree: ast.Module) -> CallGraph:
    """The call graph over every module-level function in ``tree``."""
    functions: Dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
    edges: Dict[str, Set[str]] = {
        name: _called_names(fn) & set(functions)
        for name, fn in functions.items()
    }
    return CallGraph(
        functions=functions,
        edges=edges,
        sccs=_tarjan(edges),
        constants=_module_constants(tree),
    )


def _tarjan(edges: Dict[str, Set[str]]) -> List[FrozenSet[str]]:
    """Iterative Tarjan SCC over the name graph."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[FrozenSet[str]] = []
    counter = 0

    for root in sorted(edges):
        if root in index:
            continue
        work: List[Tuple[str, List[str]]] = [
            (root, sorted(edges.get(root, set())))
        ]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, pending = work[-1]
            advanced = False
            while pending:
                succ = pending.pop(0)
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(edges.get(succ, set()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                sccs.append(frozenset(component))
    return sccs
