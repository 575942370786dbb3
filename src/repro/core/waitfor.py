"""Wait-for condition extraction for blocked processes.

Given a state of the transition system and a blocked process, this
module derives *why* the process cannot advance, as a CNF condition:
an AND of clauses, each clause an OR of target ranks. This is the
payload of the ``requestWaits`` reply in the distributed protocol
(Section 5) and the input to wait-for-graph construction [9]:

* a send/receive/probe waits for its (potential) partner — a single
  singleton clause, except wildcard receives which wait for *any*
  possible sender (one OR clause, the paper's "OR semantic");
* a collective yields one singleton clause per group member that has
  not activated its participating operation (AND semantics);
* ``Wait``/``Waitall`` yields the AND of its unsatisfied requests'
  conditions; ``Waitany``/``Waitsome`` the OR (one flattened clause).

The distributed tool never spells a wildcard wait out rank by rank: it
ships, resolves, checks and renders one :class:`GroupClause` ("anyone
in this communicator but me") from the first layer to the report, and
:func:`resolve_conditions` is the one place gathered wait info turns
into conditions — for the root and for the trace-artifact reader.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
    overload,
)

from repro.core.messages import CollectiveWait, P2PWait, RankWaitInfo
from repro.core.transition import TransitionSystem
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.ops import Operation, OpRef
from repro.util.errors import ProtocolError

_T = TypeVar("_T")


@dataclass(frozen=True)
class WaitTarget:
    """One rank a blocked process waits for, with the reason."""

    rank: int
    reason: str


_TARGET_CACHE: Dict[Tuple[int, str], WaitTarget] = {}


def intern_target(rank: int, reason: str) -> WaitTarget:
    """Shared WaitTarget instances.

    Collective waits (and the centralized model's wildcard receives)
    create up to p-1 targets per blocked process with identical
    reasons; interning keeps the object count linear in p rather than
    quadratic.
    """
    key = (rank, reason)
    cached = _TARGET_CACHE.get(key)
    if cached is None:
        cached = WaitTarget(rank, reason)
        if len(_TARGET_CACHE) < 1_000_000:
            _TARGET_CACHE[key] = cached
    return cached


class GroupClause(Sequence[int]):
    """One OR clause: every member of ``group`` except ``rank``.

    This is the wait of a blocked wildcard receive or probe — "any
    sender of my communicator qualifies" — with one ``reason`` shared by
    all targets. ``group`` is the communicator's own group tuple, held
    by reference: a clause costs three words whatever the group size,
    and clauses over one communicator share one tuple (pickle keeps
    the sharing within a batch). ``rank`` must be a member of ``group``
    — a process only receives on communicators it belongs to — which
    makes ``len`` O(1).

    As a ``Sequence[int]`` it reads like the expanded tuple of target
    ranks, in group order; two clauses are equal when they exclude the
    same rank from equal groups for the same reason. Consumers that
    would otherwise pay per target use :meth:`ranks` and
    :meth:`per_target` instead of iterating.
    """

    __slots__ = ("group", "rank", "reason")

    group: Tuple[int, ...]
    rank: int
    reason: str

    def __init__(self, group: Tuple[int, ...], rank: int, reason: str) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "reason", reason)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GroupClause is immutable")

    def __reduce__(
        self,
    ) -> Tuple[Type["GroupClause"], Tuple[Tuple[int, ...], int, str]]:
        return (GroupClause, (self.group, self.rank, self.reason))

    def ranks(self) -> Tuple[int, ...]:
        """The target ranks as a plain tuple (one slice-and-join)."""
        i = self.group.index(self.rank)
        return self.group[:i] + self.group[i + 1:]

    def per_target(
        self,
        make: Callable[[int], _T],
        memo: Dict[Tuple[int, str], List[_T]],
    ) -> List[_T]:
        """``[make(k) for k in self]``, calling ``make`` once per
        member of the group instead of once per target: clauses over
        the same group with the same reason share the items through
        ``memo``. The memo is keyed by the group's identity, so it must
        not outlive the clauses it served.
        """
        key = (id(self.group), self.reason)
        items = memo.get(key)
        if items is None:
            items = memo[key] = [make(k) for k in self.group]
        i = self.group.index(self.rank)
        return items[:i] + items[i + 1:]

    def __len__(self) -> int:
        return len(self.group) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranks())

    def __contains__(self, rank: object) -> bool:
        return rank != self.rank and rank in self.group

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> Tuple[int, ...]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[int, Tuple[int, ...]]:
        return self.ranks()[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupClause):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.reason == other.reason
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self) -> int:
        return hash((len(self.group), self.rank, self.reason))

    def __repr__(self) -> str:
        return (
            f"GroupClause(<{len(self.group)} ranks>, rank={self.rank}, "
            f"reason={self.reason!r})"
        )


#: One OR clause of a condition: explicit targets, each with its own
#: reason, or the compact wildcard form.
Clause = Union[Tuple[WaitTarget, ...], GroupClause]


@dataclass
class WaitForCondition:
    """CNF wait-for condition of one blocked process."""

    rank: int
    op_ref: OpRef
    op_description: str
    #: AND over clauses; each clause is an OR over targets.
    clauses: List[Clause] = field(default_factory=list)

    def target_ranks(self) -> Set[int]:
        ranks: Set[int] = set()
        for clause in self.clauses:
            if isinstance(clause, GroupClause):
                ranks.update(clause.ranks())
            else:
                ranks.update(t.rank for t in clause)
        return ranks

    def reason_for(self, target: int) -> Optional[str]:
        """Why this process waits for ``target``: the reason of the
        first clause naming it, or None when none does."""
        for clause in self.clauses:
            if isinstance(clause, GroupClause):
                if target in clause:
                    return clause.reason
            else:
                for t in clause:
                    if t.rank == target:
                        return t.reason
        return None

    def arc_count(self) -> int:
        return sum(len(clause) for clause in self.clauses)

    def is_pure_and(self) -> bool:
        return all(len(clause) == 1 for clause in self.clauses)


def _p2p_clause(
    ts: TransitionSystem,
    state: Sequence[int],
    ref: OpRef,
    op: Operation,
) -> Optional[Tuple[WaitTarget, ...]]:
    """Clause for an unsatisfied point-to-point operation (or target)."""
    match = ts.matched.match_of(ref)
    if match is not None:
        k, n = match
        if state[k] >= n:
            return None  # satisfied — contributes no clause
        partner = ts.trace.op(match).describe()
        return (WaitTarget(k, f"matched with {partner}, not yet active"),)
    # Unmatched: derive potential partners from the envelope.
    if op.is_send():
        return (
            WaitTarget(
                op.peer,  # type: ignore[arg-type]
                "no matching receive posted",
            ),
        )
    # Receive or probe.
    if op.peer == ANY_SOURCE:
        comm = ts.matched.comms.get(op.comm_id)
        targets = tuple(
            intern_target(k, "wildcard receive: any sender qualifies")
            for k in comm.group
            if k != op.rank
        )
        # A wildcard receive on a self-communicator waits for nobody —
        # an unconditional deadlock, encoded as an empty clause.
        return targets
    return (
        WaitTarget(
            op.peer,  # type: ignore[arg-type]
            "no matching send posted",
        ),
    )


def _collective_clauses(
    ts: TransitionSystem,
    state: Sequence[int],
    ref: OpRef,
    op: Operation,
) -> List[Tuple[WaitTarget, ...]]:
    comm = ts.matched.comms.get(op.comm_id)
    match = ts.matched.collective_match(ref)
    if match is not None:
        members: Dict[int, int] = {k: n for (k, n) in match.members}
    else:
        pending = ts.matched.pending_collective_of(ref)
        members = (
            {r: rref[1] for r, rref in pending.arrived.items()}
            if pending is not None
            else {}
        )
    clauses: List[Tuple[WaitTarget, ...]] = []
    name = op.kind.value
    for k in comm.group:
        if k == op.rank:
            continue
        if k in members:
            if state[k] >= members[k]:
                continue
            reason = f"{name} participant not yet active"
        else:
            reason = f"never called {name} on communicator {op.comm_id}"
        clauses.append((WaitTarget(k, reason),))
    return clauses


def wait_for_condition(
    ts: TransitionSystem, state: Sequence[int], rank: int
) -> WaitForCondition:
    """Derive the wait-for condition of ``rank``, blocked in ``state``."""
    l = state[rank]
    op = ts.trace.op((rank, l))
    cond = WaitForCondition(
        rank=rank, op_ref=(rank, l), op_description=op.describe()
    )
    if op.is_p2p():
        clause = _p2p_clause(ts, state, (rank, l), op)
        if clause is not None:
            cond.clauses.append(clause)
        else:
            raise ValueError(
                f"{op.describe()} reported blocked but its p2p premise holds"
            )
        return cond
    if op.is_collective():
        cond.clauses.extend(_collective_clauses(ts, state, (rank, l), op))
        return cond
    if op.is_completion():
        sub: List[Tuple[WaitTarget, ...]] = []
        for target in ts.matched.completion_targets((rank, l)):
            if ts._completion_target_satisfied(state, target):
                continue
            top = ts.trace.op(target)
            clause = _p2p_clause(ts, state, target, top)
            if clause is not None:
                sub.append(clause)
        from repro.mpi.constants import completion_needs_all

        if completion_needs_all(op.kind):
            cond.clauses.extend(sub)
        else:
            # OR over all sub-conditions: flatten into one clause.
            flat: List[WaitTarget] = []
            for clause in sub:
                flat.extend(clause)
            cond.clauses.append(tuple(flat))
        return cond
    raise ValueError(f"{op.describe()} cannot be a blocked operation")


def wait_for_conditions(
    ts: TransitionSystem, state: Sequence[int]
) -> Dict[int, WaitForCondition]:
    """Conditions for every blocked process of ``state``."""
    return {
        i: wait_for_condition(ts, state, i)
        for i in sorted(ts.blocked_processes(state))
    }


def resolve_conditions(
    infos: Iterable[RankWaitInfo],
    group_of: Callable[[int], Sequence[int]],
) -> Dict[int, WaitForCondition]:
    """CNF conditions from the gathered ``requestWaits`` replies.

    ``group_of`` maps a communicator id to its process group. A rank
    blocked in wave W waits (AND) for every group member whose own
    blocked operation is *not* W: under strict blocking semantics
    nobody can have passed an incomplete wave, so non-reporters of W
    provably have not activated it. A wildcard wait stays the one
    :class:`GroupClause` the first layer sent, unless it is one of the
    alternatives of a ``Waitany``/``Waitsome``, which flatten into a
    single explicit clause.
    """
    by_rank: Dict[int, RankWaitInfo] = {}
    blocked_wave: Dict[int, Tuple[int, int]] = {}
    for info in infos:
        by_rank[info.rank] = info
        for entry in info.entries:
            if isinstance(entry, CollectiveWait):
                blocked_wave[info.rank] = (entry.comm_id, entry.wave_index)
    conditions: Dict[int, WaitForCondition] = {}
    for rank in sorted(by_rank):
        info = by_rank[rank]
        cond = WaitForCondition(
            rank=rank,
            op_ref=(rank, -1),
            op_description=info.op_description,
        )
        or_clause: List[WaitTarget] = []
        for entry in info.entries:
            if isinstance(entry, CollectiveWait):
                wave = (entry.comm_id, entry.wave_index)
                for k in group_of(entry.comm_id):
                    if k == rank or blocked_wave.get(k) == wave:
                        continue
                    cond.clauses.append(
                        (intern_target(k, "has not activated the wave"),)
                    )
            elif isinstance(entry, P2PWait):
                targets = entry.or_targets
                if info.or_semantics:
                    or_clause.extend(
                        intern_target(t, entry.reason) for t in targets
                    )
                elif isinstance(targets, GroupClause):
                    cond.clauses.append(targets)
                else:
                    cond.clauses.append(
                        tuple(intern_target(t, entry.reason) for t in targets)
                    )
            else:
                raise ProtocolError(
                    f"unknown wait entry {type(entry).__name__}"
                )
        if info.or_semantics:
            cond.clauses.append(tuple(or_clause))
        conditions[rank] = cond
    return conditions
