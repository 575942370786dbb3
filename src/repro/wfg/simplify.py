"""Wait-for graph simplification (the paper's proposed future work).

Section 6 observes that ``p^2``-arc graphs are neither renderable nor
human readable, and proposes "graph transformations and
simplifications, which could simplify wait-for information when we
communicate it towards the root, e.g., in our wildcard stress test we
would detect that all processes wait for all other processes with an
OR semantic". This module implements that aggregation:

* **Range compression** — an OR clause over a contiguous rank range is
  stored as a range, not an arc list (the wildcard case collapses from
  ``p-1`` arcs to one range arc);
* **Equivalence-class merging** — processes with identical operation
  kind and identical (rank-relative) wait pattern merge into one class
  node annotated with its member count.

The result is an :class:`AggregatedWfg` with its own DOT writer; the
ablation bench ``bench_ablation_simplify`` measures the output-size
and serialization-time reduction against the plain writer.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.waitfor import GroupClause
from repro.wfg.graph import WaitForGraph


@dataclass(frozen=True)
class RankSet:
    """A compressed set of ranks: sorted disjoint inclusive ranges."""

    ranges: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_ranks(cls, ranks: Sequence[int]) -> "RankSet":
        if not ranks:
            return cls(())
        sorted_ranks = sorted(set(ranks))
        ranges: List[Tuple[int, int]] = []
        lo = hi = sorted_ranks[0]
        for r in sorted_ranks[1:]:
            if r == hi + 1:
                hi = r
            else:
                ranges.append((lo, hi))
                lo = hi = r
        ranges.append((lo, hi))
        return cls(tuple(ranges))

    def count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    def describe(self) -> str:
        return ",".join(
            f"{lo}" if lo == hi else f"{lo}-{hi}" for lo, hi in self.ranges
        )

    def __contains__(self, rank: int) -> bool:
        return any(lo <= rank <= hi for lo, hi in self.ranges)


@dataclass(frozen=True)
class AggregatedClause:
    """One clause of a class node.

    When ``exclude_self`` is set, each member of the class waits for
    any rank of ``targets`` other than itself — the normal form of the
    wildcard-receive pattern ("all processes wait for all other
    processes with an OR semantic", Section 6).
    """

    targets: RankSet
    exclude_self: bool = False

    def describe(self) -> str:
        suffix = " (except self)" if self.exclude_self else ""
        return f"{self.targets.describe()}{suffix}"


@dataclass
class AggregatedNode:
    """A class of processes sharing one wait pattern."""

    members: RankSet
    op_description: str
    #: AND of clauses; each clause an OR over a compressed rank set.
    clauses: Tuple[AggregatedClause, ...] = ()


@dataclass
class AggregatedWfg:
    """The simplified wait-for graph."""

    num_processes: int
    nodes: List[AggregatedNode] = field(default_factory=list)

    def arc_count(self) -> int:
        """Arcs after compression: one per (class, clause, range)."""
        return sum(
            len(clause.targets.ranges)
            for node in self.nodes
            for clause in node.clauses
        )


#: Equivalence-class key: (op pattern, normalized clause tuple).
_SignatureKey = Tuple[str, Tuple[Tuple[str, Tuple[int, ...]], ...]]


def _signature(
    rank: int,
    node_clauses: Sequence[Sequence[int]],
    op_desc: str,
    group_keys: Dict[int, Tuple[int, ...]],
) -> _SignatureKey:
    """Pattern key for equivalence-class merging.

    Two processes merge when their operations render identically modulo
    their own rank and every clause matches under self-relative
    normalization: multi-target (OR) clauses compare as
    ``targets | {self}`` — so "waits for anyone but me" patterns merge
    regardless of the waiter's own rank — while singleton (AND) clauses
    compare absolutely. Relative patterns (neighbour exchanges) stay
    separate nodes; collapsing those soundly needs modular-offset
    analysis, which the paper leaves open as well.

    For a group clause ``targets | {self}`` is the group itself:
    ``group_keys`` holds its sorted form, made once per group.
    """
    clause_key: List[Tuple[str, Tuple[int, ...]]] = []
    for clause in node_clauses:
        if len(clause) <= 1:
            clause_key.append(("and", tuple(clause)))
        elif isinstance(clause, GroupClause):
            key = group_keys.get(id(clause.group))
            if key is None:
                key = group_keys[id(clause.group)] = tuple(
                    sorted(clause.group)
                )
            clause_key.append(("or", key))
        else:
            clause_key.append(("or", tuple(sorted(set(clause) | {rank}))))
    return (op_desc.split("@", 1)[0], tuple(clause_key))


def simplify(graph: WaitForGraph) -> AggregatedWfg:
    """Aggregate the wait-for graph into class nodes with range arcs."""
    groups: Dict[_SignatureKey, List[int]] = {}
    group_keys: Dict[int, Tuple[int, ...]] = {}
    for rank in sorted(graph.nodes):
        node = graph.nodes[rank]
        key = _signature(
            rank, node.clauses, node.op_description, group_keys
        )
        groups.setdefault(key, []).append(rank)

    agg = AggregatedWfg(num_processes=graph.num_processes)
    for key, members in groups.items():
        clauses = []
        for kind, targets in key[1]:
            if kind == "or":
                clauses.append(
                    AggregatedClause(
                        targets=RankSet.from_ranks(targets), exclude_self=True
                    )
                )
            else:
                clauses.append(
                    AggregatedClause(targets=RankSet.from_ranks(targets))
                )
        agg.nodes.append(
            AggregatedNode(
                members=RankSet.from_ranks(members),
                op_description=key[0],
                clauses=tuple(clauses),
            )
        )
    return agg


def render_aggregated_dot(agg: AggregatedWfg, *, name: str = "wfg") -> str:
    """DOT text for the simplified graph: one node per class."""
    out = io.StringIO()
    out.write(f"digraph {name} {{\n  rankdir=LR;\n")
    out.write("  node [shape=box, fontname=\"Helvetica\"];\n")
    for idx, node in enumerate(agg.nodes):
        label = (
            f"ranks {node.members.describe()} ({node.members.count()}): "
            f"{node.op_description}"
        )
        label = label.replace("\"", "\\\"")
        out.write(f"  c{idx} [label=\"{label}\"];\n")
    # Arcs between classes: a class arc exists when a clause's rank set
    # intersects the member set of the target class.
    for si, src in enumerate(agg.nodes):
        for clause in src.clauses:
            for di, dst in enumerate(agg.nodes):
                if _ranges_intersect(clause.targets.ranges, dst.members.ranges):
                    attrs = (
                        f" [style=dashed, label=\"any of {clause.describe()}\"]"
                        if clause.targets.count() > 1
                        else ""
                    )
                    out.write(f"  c{si} -> c{di}{attrs};\n")
    out.write("}\n")
    return out.getvalue()


def _ranges_intersect(
    a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...]
) -> bool:
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            if lo1 <= hi2 and lo2 <= hi1:
                return True
    return False
