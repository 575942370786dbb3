"""Symbolic channel matching for the parameterized prover.

Bridges the symbolic term trees of :mod:`.symexec` to the
eventually-periodic size algebra of :mod:`.solver`:

* :func:`admit_terms` decides whether a term tree lies in the
  **uniform-affine** fragment — unit coefficients on ``rank``/``size``
  and loop variables, constant moduli, bounded constant offsets — and,
  when it does, derives the certificate frame: a threshold ``T``
  (twice the largest constant offset past which wrap-around patterns
  have stabilized), a period ``Λ`` (lcm of the residue-split moduli),
  and the finite confirmation window ``[MIN_SIZE, window_hi)`` that a
  :func:`~repro.analysis.sequential.match_linear` sweep must
  clear before deadlock-freedom extrapolates to all ``p``.

* :func:`analyze_channels` pairs send/recv/collective sites by solving
  their endpoint equations (``dst = (rank+1) mod size`` against
  ``src = rank - 1`` under the enclosing role splits and ``Repeat``
  trip counts) and classifies every site as **always-matched**,
  **never-matched**, or **p-dependent** with an exact
  :class:`~repro.analysis.symbolic.solver.SizeSet` of unmatched sizes.
  Endpoint equations are solved the same way the solver decides
  everything else — bounded evaluation over the certificate window
  with verified periodic extrapolation — so a site whose matching
  behavior is *not* eventually periodic raises
  :class:`~repro.analysis.symbolic.solver.PeriodicityError` instead of
  yielding a bogus certificate.

The p-dependent residues feed the falsifier in :mod:`.prove`: each
residue class's minimal representative becomes a candidate size whose
deadlock is confirmed (or refuted) through the authoritative
``match_linear`` path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.symbolic.sexpr import Affine, Cond
from repro.analysis.symbolic.solver import (
    MIN_SIZE,
    VERIFY_PERIODS,
    SizeSet,
)
from repro.analysis.symbolic.symexec import Branch, Repeat, SymOp, Term
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    OpKind,
    is_collective_kind,
    is_recv_kind,
    is_send_kind,
)

#: Channel classifications.
ALWAYS_MATCHED = "always-matched"
NEVER_MATCHED = "never-matched"
P_DEPENDENT = "p-dependent"

#: The confirmation window always covers at least ``[2, 18)`` so the
#: small sizes users actually launch (and the property suite samples,
#: ``p in 2..16``) are confirmed directly, never by extrapolation.
DEFAULT_WINDOW_HI = 18

#: Hard cap on the confirmation window. A uniform-affine program whose
#: constants push the derived window past this is refused (UNKNOWN)
#: rather than swept forever.
MAX_WINDOW_HI = 48

#: Budget on term-tree walks across the whole window (ops evaluated);
#: guards against symbolic trip counts exploding the enumeration.
_EVAL_BUDGET = 250_000


class ChannelBudgetExceeded(Exception):
    """Channel enumeration outgrew its evaluation budget."""


@dataclass(frozen=True)
class Admission:
    """Uniform-affine admission verdict plus the certificate frame."""

    admitted: bool
    reason: str = ""
    #: Largest constant offset seen (drives the threshold).
    max_const: int = 0
    #: lcm of the residue-split moduli (drives the period).
    modulus_lcm: int = 1
    #: Stabilization threshold for the periodic extrapolation.
    threshold: int = MIN_SIZE
    #: First size *not* confirmed by the linear sweep.
    window_hi: int = DEFAULT_WINDOW_HI

    @property
    def sizes(self) -> Tuple[int, ...]:
        """The confirmation window, ascending."""
        return tuple(range(MIN_SIZE, self.window_hi))


@dataclass(frozen=True)
class ChannelVerdict:
    """Matching classification of one send/recv/collective site."""

    site: str
    lineno: int
    kind: str
    classification: str
    live: SizeSet
    unmatched: SizeSet

    @property
    def candidate_sizes(self) -> Tuple[int, ...]:
        """Minimal representatives of the unmatched residues —
        the falsifier's candidate process counts."""
        return tuple(self.unmatched.sample(3))

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "line": self.lineno,
            "kind": self.kind,
            "classification": self.classification,
            "live": self.live.render(),
            "unmatched": self.unmatched.render(),
            "candidate_sizes": list(self.candidate_sizes),
        }


@dataclass
class ChannelAnalysis:
    """Per-site matching classifications over the certificate window."""

    channels: List[ChannelVerdict] = field(default_factory=list)

    def count(self, classification: str) -> int:
        return sum(
            1 for c in self.channels
            if c.classification == classification
        )

    @property
    def candidate_sizes(self) -> Tuple[int, ...]:
        sizes: Set[int] = set()
        for channel in self.channels:
            sizes.update(channel.candidate_sizes)
        return tuple(sorted(sizes))


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------

def _uniform(affine: Affine) -> bool:
    return (
        abs(affine.c_rank) <= 1
        and abs(affine.c_size) <= 1
        and all(abs(coeff) <= 1 for _, coeff in affine.c_vars)
    )


class _AdmissionScan:
    def __init__(self) -> None:
        self.max_const = 0
        self.moduli: List[int] = []
        self.offender: Optional[Tuple[str, int]] = None

    def _affine(
        self, affine: Optional[Affine], lineno: int, *,
        count_const: bool = True,
    ) -> None:
        if affine is None or self.offender is not None:
            return
        if not _uniform(affine):
            self.offender = (affine.render(), lineno)
            return
        if count_const:
            self.max_const = max(self.max_const, abs(affine.c0))

    def walk(self, terms: Sequence[Term]) -> None:
        for term in terms:
            if self.offender is not None:
                return
            if isinstance(term, SymOp):
                self._affine(term.peer, term.lineno)
                self._affine(term.root, term.lineno)
                # A constant tag is matching-relevant but never
                # size-dependent; only rank/size/loop-var tags widen
                # the certificate frame.
                self._affine(
                    term.tag, term.lineno,
                    count_const=not term.tag.is_const,
                )
            elif isinstance(term, Repeat):
                self._affine(term.count, term.lineno)
                self._affine(term.start, term.lineno)
                if abs(term.step) > 1:
                    self.max_const = max(self.max_const, abs(term.step))
                self.walk(term.body)
            else:
                self._affine(term.cond.lhs, term.lineno)
                self._affine(term.cond.rhs, term.lineno)
                if term.cond.lhs_mod is not None:
                    self.moduli.append(term.cond.lhs_mod)
                    self.max_const = max(
                        self.max_const, abs(term.cond.lhs_mod)
                    )
                self.walk(term.then)
                self.walk(term.orelse)


def admit_terms(
    terms: Sequence[Term], *, max_window: int = MAX_WINDOW_HI
) -> Admission:
    """Admit a term tree to the uniform-affine certificate fragment."""
    scan = _AdmissionScan()
    scan.walk(terms)
    if scan.offender is not None:
        rendered, lineno = scan.offender
        return Admission(
            admitted=False,
            reason=(
                f"non-uniform affine term `{rendered}` at line "
                f"{lineno} (coefficients beyond ±1 leave the "
                f"certificate fragment)"
            ),
        )
    period = 1
    for modulus in scan.moduli:
        if modulus > 1:
            period = math.lcm(period, modulus)
    threshold = MIN_SIZE + 2 * (scan.max_const + 2)
    window_hi = max(
        DEFAULT_WINDOW_HI, threshold + (1 + VERIFY_PERIODS) * period
    )
    if window_hi > max_window:
        return Admission(
            admitted=False,
            reason=(
                f"certificate window [2, {window_hi}) exceeds the "
                f"{max_window}-size cap (constant offsets up to "
                f"{scan.max_const}, modulus lcm {period})"
            ),
            max_const=scan.max_const,
            modulus_lcm=period,
            threshold=threshold,
            window_hi=window_hi,
        )
    return Admission(
        admitted=True,
        max_const=scan.max_const,
        modulus_lcm=period,
        threshold=threshold,
        window_hi=window_hi,
    )


# ----------------------------------------------------------------------
# Channel enumeration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Site:
    """A static send/recv/collective site in the term tree."""

    index: int
    op: SymOp
    role: str

    @property
    def kind_label(self) -> str:
        if is_send_kind(self.op.kind):
            return "send"
        if is_recv_kind(self.op.kind):
            return "recv"
        if is_collective_kind(self.op.kind):
            return "collective"
        return "completion"


class _WindowEnumerator:
    """Concrete walk of one term tree at one ``(rank, size)``.

    Mirrors the control-flow evaluation of the instantiator but
    records only the matching envelope per site — ``(src, dst, tag)``
    instance counts for point-to-point, per-rank occurrence/root lists
    for collectives — which is all the endpoint equations need.
    """

    def __init__(
        self, sites: Dict[int, _Site], rank: int, size: int,
        budget: List[int],
    ) -> None:
        self.sites = sites
        self.rank = rank
        self.size = size
        self.budget = budget
        self.bindings: Dict[str, int] = {}
        #: site index -> list of (peer, tag) instances at this rank.
        self.p2p: Dict[int, List[Tuple[int, int]]] = {}
        #: site index -> list of root values (None for unrooted).
        self.collectives: Dict[int, List[Optional[int]]] = {}
        #: collective occurrence list in program order:
        #: (kind, root, site index).
        self.collective_order: List[
            Tuple[OpKind, Optional[int], int]
        ] = []

    def _spend(self) -> None:
        self.budget[0] -= 1
        if self.budget[0] <= 0:
            raise ChannelBudgetExceeded(
                "channel enumeration exceeded its evaluation budget"
            )

    def walk(self, terms: Sequence[Term], site_ids: Dict[int, int]) -> None:
        for term in terms:
            if isinstance(term, SymOp):
                self._record(term, site_ids[id(term)])
            elif isinstance(term, Repeat):
                self._repeat(term, site_ids)
            else:
                taken = term.cond.evaluate(
                    self.rank, self.size, self.bindings
                )
                self.walk(
                    term.then if taken else term.orelse, site_ids
                )

    def _repeat(self, term: Repeat, site_ids: Dict[int, int]) -> None:
        count = term.count.evaluate(self.rank, self.size, self.bindings)
        if term.var is None or term.start is None:
            for _ in range(max(0, count)):
                self.walk(term.body, site_ids)
            return
        start = term.start.evaluate(self.rank, self.size, self.bindings)
        for iteration in range(max(0, count)):
            self.bindings[term.var] = start + iteration * term.step
            self.walk(term.body, site_ids)
        self.bindings.pop(term.var, None)

    def _record(self, op: SymOp, site_index: int) -> None:
        self._spend()
        kind = op.kind
        if is_send_kind(kind) or is_recv_kind(kind):
            assert op.peer is not None
            peer = op.peer.evaluate(self.rank, self.size, self.bindings)
            if peer == PROC_NULL:
                return
            tag = op.tag.evaluate(self.rank, self.size, self.bindings)
            self.p2p.setdefault(site_index, []).append((peer, tag))
        elif is_collective_kind(kind):
            root = (
                op.root.evaluate(self.rank, self.size, self.bindings)
                if op.root is not None else None
            )
            self.collectives.setdefault(site_index, []).append(root)
            self.collective_order.append((kind, root, site_index))
        # Completions (wait/waitall) carry no matching envelope.


def _collect_sites(terms: Sequence[Term]) -> Tuple[
    Dict[int, _Site], Dict[int, int]
]:
    """Index every matching-relevant SymOp, with its role context."""
    sites: Dict[int, _Site] = {}
    site_ids: Dict[int, int] = {}

    def visit(terms: Sequence[Term], role: List[str]) -> None:
        for term in terms:
            if isinstance(term, SymOp):
                if (
                    is_send_kind(term.kind)
                    or is_recv_kind(term.kind)
                    or is_collective_kind(term.kind)
                ):
                    index = len(sites)
                    label = term.describe()
                    if role:
                        label += f"  [{' and '.join(role)}]"
                    sites[index] = _Site(index, term, label)
                    site_ids[id(term)] = index
                else:
                    site_ids[id(term)] = -1
            elif isinstance(term, Repeat):
                visit(term.body, role)
            else:
                rendered = term.cond.render()
                visit(term.then, role + [rendered])
                visit(
                    term.orelse,
                    role + [term.cond.negate().render()],
                )

    visit(list(terms), [])
    return sites, site_ids


def _unmatched_sites_at(
    terms: Sequence[Term],
    sites: Dict[int, _Site],
    site_ids: Dict[int, int],
    size: int,
    budget: List[int],
) -> Tuple[Set[int], Set[int]]:
    """``(live, unmatched)`` site indices at one concrete size.

    Point-to-point matching solves the endpoint equations by counting:
    for every ``(src, dst)`` pair the send tags must be coverable by
    the recv tags (``ANY_TAG`` receives cover any leftover). A site is
    *unmatched* when it contributes instances to a bucket with a
    deficit — a send nobody receives, a receive nobody sends to, or a
    collective the other ranks do not join symmetrically.
    """
    walkers = []
    for rank in range(size):
        walker = _WindowEnumerator(sites, rank, size, budget)
        walker.walk(terms, site_ids)
        walkers.append(walker)

    live: Set[int] = set()
    unmatched: Set[int] = set()

    # -- point-to-point: bucket instances by (src, dst) ----------------
    # bucket -> tag -> count and contributing sites. ANY_TAG receives
    # are wildcard slots within their bucket.
    sends: Dict[Tuple[int, int], Dict[int, int]] = {}
    recvs: Dict[Tuple[int, int], Dict[int, int]] = {}
    send_sites: Dict[Tuple[int, int], Set[int]] = {}
    recv_sites: Dict[Tuple[int, int], Set[int]] = {}
    for walker in walkers:
        for site_index, instances in walker.p2p.items():
            site = sites[site_index]
            live.add(site_index)
            for peer, tag in instances:
                if is_send_kind(site.op.kind):
                    if not 0 <= peer < size:
                        unmatched.add(site_index)
                        continue
                    bucket = (walker.rank, peer)
                    sends.setdefault(bucket, {})
                    sends[bucket][tag] = sends[bucket].get(tag, 0) + 1
                    send_sites.setdefault(bucket, set()).add(site_index)
                else:
                    src = peer if peer != ANY_SOURCE else ANY_SOURCE
                    if src != ANY_SOURCE and not 0 <= src < size:
                        unmatched.add(site_index)
                        continue
                    bucket = (src, walker.rank)
                    recvs.setdefault(bucket, {})
                    recvs[bucket][tag] = recvs[bucket].get(tag, 0) + 1
                    recv_sites.setdefault(bucket, set()).add(site_index)

    for bucket in set(sends) | set(recvs):
        send_tags = dict(sends.get(bucket, {}))
        recv_tags = dict(recvs.get(bucket, {}))
        wildcard = recv_tags.pop(ANY_TAG, 0)
        send_deficit = 0
        recv_deficit = 0
        for tag, count in send_tags.items():
            take = min(count, recv_tags.get(tag, 0))
            recv_tags[tag] = recv_tags.get(tag, 0) - take
            remaining = count - take
            absorb = min(remaining, wildcard)
            wildcard -= absorb
            send_deficit += remaining - absorb
        recv_deficit = sum(recv_tags.values()) + wildcard
        if send_deficit:
            unmatched.update(send_sites.get(bucket, set()))
        if recv_deficit:
            unmatched.update(recv_sites.get(bucket, set()))

    # -- collectives: the per-rank occurrence streams must agree ------
    streams = [walker.collective_order for walker in walkers]
    for walker in walkers:
        for site_index in walker.collectives:
            live.add(site_index)
    reference = streams[0]
    symmetric = all(
        len(stream) == len(reference)
        and all(
            a[0] is b[0] and a[1] == b[1]
            for a, b in zip(stream, reference)
        )
        for stream in streams[1:]
    )
    if not symmetric:
        for stream in streams:
            for _, _, site_index in stream:
                unmatched.add(site_index)

    return live, unmatched


def analyze_channels(
    terms: Sequence[Term], admission: Admission
) -> ChannelAnalysis:
    """Classify every channel site over the certificate window.

    Raises :class:`~repro.analysis.symbolic.solver.PeriodicityError`
    when a site's matching behavior does not extrapolate and
    :class:`ChannelBudgetExceeded` when enumeration outgrows its
    budget — the prover maps both to UNKNOWN.
    """
    sites, site_ids = _collect_sites(terms)
    analysis = ChannelAnalysis()
    if not sites:
        return analysis

    budget = [_EVAL_BUDGET]
    live_at: Dict[int, Set[int]] = {}
    unmatched_at: Dict[int, Set[int]] = {}
    for size in admission.sizes:
        live, unmatched = _unmatched_sites_at(
            terms, sites, site_ids, size, budget
        )
        live_at[size] = live
        unmatched_at[size] = unmatched

    for index in sorted(sites):
        site = sites[index]
        live_set = SizeSet.from_predicate(
            lambda s, i=index: i in live_at[s],
            admission.threshold,
            admission.modulus_lcm,
        )
        unmatched_set = SizeSet.from_predicate(
            lambda s, i=index: i in unmatched_at[s],
            admission.threshold,
            admission.modulus_lcm,
        )
        if unmatched_set.is_empty():
            classification = ALWAYS_MATCHED
        elif unmatched_set.semantically_equal(live_set):
            classification = NEVER_MATCHED
        else:
            classification = P_DEPENDENT
        analysis.channels.append(
            ChannelVerdict(
                site=site.role,
                lineno=site.op.lineno,
                kind=site.kind_label,
                classification=classification,
                live=live_set,
                unmatched=unmatched_set,
            )
        )
    return analysis
