"""The AND/OR wait-for graph (WFG) built at the TBON root.

Nodes are blocked processes; each node carries the CNF wait-for
condition gathered via ``requestWaits``. An arc ``a -> b`` means "a
waits for b"; arcs are grouped into clauses: a node can proceed once
*every* clause has at least one target that can proceed (AND over
clauses, OR within a clause). The paper's pure-AND nodes (collectives,
Waitall, directed p2p) are size-1 clauses; its OR nodes (wildcard
receives, Waitany) are single multi-target clauses. A wildcard
receive's clause is the condition's own
:class:`~repro.core.waitfor.GroupClause`, stored by reference: the
graph of p such waits holds p small objects, not p*(p-1) arcs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.waitfor import GroupClause, WaitForCondition


@dataclass
class WfgNode:
    """A blocked process in the wait-for graph."""

    rank: int
    op_description: str
    #: AND of clauses; each clause an OR of target ranks — a plain
    #: tuple, or a ``GroupClause`` that excludes this node's own rank.
    clauses: List[Sequence[int]] = field(default_factory=list)


class WaitForGraph:
    """A wait-for graph over a fixed process universe.

    ``finished`` marks processes that terminated (reached MPI_Finalize
    or the end of a complete trace): they are neither blocked nor able
    to release anyone — a wait targeting only finished processes is
    permanently unsatisfiable.
    """

    def __init__(
        self, num_processes: int, finished: Set[int] | None = None
    ) -> None:
        if num_processes <= 0:
            raise ValueError("process universe must be non-empty")
        self.num_processes = num_processes
        self.nodes: Dict[int, WfgNode] = {}
        self.finished: Set[int] = set(finished or ())

    @classmethod
    def from_conditions(
        cls,
        num_processes: int,
        conditions: Iterable[WaitForCondition],
        finished: Set[int] | None = None,
    ) -> "WaitForGraph":
        graph = cls(num_processes, finished=finished)
        for cond in conditions:
            graph.add_condition(cond)
        return graph

    def add_condition(self, cond: WaitForCondition) -> None:
        if cond.rank in self.nodes:
            raise ValueError(f"rank {cond.rank} added twice")
        if cond.rank in self.finished:
            raise ValueError(f"rank {cond.rank} is finished, not blocked")
        if not (0 <= cond.rank < self.num_processes):
            raise ValueError(f"rank {cond.rank} outside universe")
        node = WfgNode(rank=cond.rank, op_description=cond.op_description)
        for clause in cond.clauses:
            if isinstance(clause, GroupClause):
                # The fixpoint's group shortcut rests on this.
                if clause.rank != cond.rank:
                    raise ValueError(
                        f"group clause of rank {cond.rank} excludes "
                        f"rank {clause.rank}"
                    )
                node.clauses.append(clause)
            else:
                node.clauses.append(tuple(t.rank for t in clause))
        self.nodes[cond.rank] = node

    @property
    def blocked_ranks(self) -> Set[int]:
        return set(self.nodes)

    def arc_count(self) -> int:
        return sum(
            len(clause) for node in self.nodes.values() for clause in node.clauses
        )

    def arcs(self) -> Iterable[Tuple[int, int, int]]:
        """Yield ``(src, dst, clause_index)`` for every arc."""
        for node in self.nodes.values():
            for ci, clause in enumerate(node.clauses):
                for dst in clause:
                    yield node.rank, dst, ci

    def successors(self, rank: int) -> Set[int]:
        node = self.nodes.get(rank)
        if node is None:
            return set()
        return {dst for clause in node.clauses for dst in clause}
