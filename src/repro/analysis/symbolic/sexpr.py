"""Symbolic value domain of the interprocedural extractor.

The dataflow lattice tracks every integer the analyzed rank program
can compute from its identity: affine forms ``c0 + c_r*rank +
c_s*size`` with an optional trailing ``mod size`` (the ubiquitous
``(rank + 1) % size`` neighbour arithmetic), plus the non-integer
values the MPI call protocol threads through the program — request
handles, request lists, and opaque runtime results.

Everything outside the domain collapses to :data:`UNKNOWN` (the
lattice top); the extractor then either proves the unknown value
irrelevant (both branches of an unknown condition extract to the same
sequence) or classifies the fragment ``UNDECIDABLE``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union


@dataclass(frozen=True)
class Affine:
    """``c0 + c_rank*rank + c_size*size + Σ c_v*v``, opt. ``mod size``.

    The ``c_vars`` terms range over *bound loop variables* — the
    symbolic extractor keeps a ``for w in range(1, size)`` index
    symbolic in the loop body and instantiation supplies a concrete
    binding per iteration. Variable names are internal (unique per
    loop); :meth:`render` strips the disambiguating suffix.

    ``mod_size`` marks the *outermost* operation: the expression is
    ``(...) % size``. Arithmetic on a modded value loses the closed
    form (MPI neighbour expressions virtually never nest it), so such
    combinations go to UNKNOWN.
    """

    c0: int
    c_rank: int = 0
    c_size: int = 0
    mod_size: bool = False
    #: Sorted ``(variable, coefficient)`` pairs, nonzero coefficients.
    c_vars: Tuple[Tuple[str, int], ...] = ()

    @property
    def is_const(self) -> bool:
        return (
            self.c_rank == 0 and self.c_size == 0
            and not self.mod_size and not self.c_vars
        )

    @property
    def const_value(self) -> Optional[int]:
        return self.c0 if self.is_const else None

    def depends_on_rank(self) -> bool:
        return self.c_rank != 0

    def free_vars(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.c_vars)

    def evaluate(
        self, rank: int, size: int,
        bindings: Optional[Mapping[str, int]] = None,
    ) -> int:
        value = self.c0 + self.c_rank * rank + self.c_size * size
        for name, coeff in self.c_vars:
            if bindings is None or name not in bindings:
                raise KeyError(f"unbound loop variable {name!r}")
            value += coeff * bindings[name]
        if self.mod_size:
            value %= size
        return value

    def render(self) -> str:
        if self.is_const:
            return str(self.c0)
        terms = []
        if self.c_rank:
            terms.append("rank" if self.c_rank == 1 else f"{self.c_rank}*rank")
        if self.c_size:
            terms.append("size" if self.c_size == 1 else f"{self.c_size}*size")
        for name, coeff in self.c_vars:
            display = name.split("#", 1)[0]
            terms.append(display if coeff == 1 else f"{coeff}*{display}")
        if self.c0 or not terms:
            terms.append(str(self.c0))
        body = " + ".join(terms).replace("+ -", "- ")
        return f"({body}) % size" if self.mod_size else body


class _UnknownType:
    """Singleton lattice top. What is taken out of it — an element, an
    iteration — is unknown too, so library code handed symbolic values
    (the ``Rank`` builders' ``tuple(requests)``) runs through it."""

    _instance: Optional["_UnknownType"] = None

    def __new__(cls) -> "_UnknownType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __iter__(self) -> Iterator["_UnknownType"]:
        return iter((self,))

    def __getitem__(self, index: object) -> "_UnknownType":
        return self


UNKNOWN = _UnknownType()


@dataclass(frozen=True)
class RequestVal:
    """A request handle returned by a nonblocking/persistent call.

    ``sym_id`` numbers request-creating symbolic operations in
    extraction order within one evaluation context; instantiation maps
    them onto the engine's per-rank request numbering.
    """

    sym_id: int
    persistent: bool = False


@dataclass(frozen=True)
class RequestTuple:
    """An immutable list/tuple of request handles (``waitall`` input)."""

    items: Tuple[RequestVal, ...]

    def __iter__(self) -> Iterator[RequestVal]:
        return iter(self.items)


#: A value in the environment.
SymValue = Union[Affine, _UnknownType, RequestVal, RequestTuple]


def const(value: int) -> Affine:
    return Affine(c0=value)


def var(name: str) -> Affine:
    """A bound loop variable as an affine term."""
    return Affine(c0=0, c_vars=((name, 1),))


RANK = Affine(c0=0, c_rank=1)
SIZE = Affine(c0=0, c_size=1)


def _merge_vars(
    a: Tuple[Tuple[str, int], ...],
    b: Tuple[Tuple[str, int], ...],
    sign: int,
) -> Tuple[Tuple[str, int], ...]:
    coeffs: Dict[str, int] = dict(a)
    for name, coeff in b:
        coeffs[name] = coeffs.get(name, 0) + sign * coeff
    return tuple(
        (name, coeff) for name, coeff in sorted(coeffs.items()) if coeff
    )


def _scale_vars(
    vars_: Tuple[Tuple[str, int], ...], k: int
) -> Tuple[Tuple[str, int], ...]:
    if k == 0:
        return ()
    return tuple((name, k * coeff) for name, coeff in vars_)


def join(a: SymValue, b: SymValue) -> SymValue:
    """Lattice join of two branch results (equal or top)."""
    if a == b:
        return a
    return UNKNOWN


def add(a: SymValue, b: SymValue) -> SymValue:
    if isinstance(a, Affine) and isinstance(b, Affine) \
            and not a.mod_size and not b.mod_size:
        return Affine(a.c0 + b.c0, a.c_rank + b.c_rank, a.c_size + b.c_size,
                      c_vars=_merge_vars(a.c_vars, b.c_vars, 1))
    return UNKNOWN


def sub(a: SymValue, b: SymValue) -> SymValue:
    if isinstance(a, Affine) and isinstance(b, Affine) \
            and not a.mod_size and not b.mod_size:
        return Affine(a.c0 - b.c0, a.c_rank - b.c_rank, a.c_size - b.c_size,
                      c_vars=_merge_vars(a.c_vars, b.c_vars, -1))
    return UNKNOWN


def neg(a: SymValue) -> SymValue:
    if isinstance(a, Affine) and not a.mod_size:
        return Affine(-a.c0, -a.c_rank, -a.c_size,
                      c_vars=_scale_vars(a.c_vars, -1))
    return UNKNOWN


def mul(a: SymValue, b: SymValue) -> SymValue:
    if not (isinstance(a, Affine) and isinstance(b, Affine)):
        return UNKNOWN
    if a.mod_size or b.mod_size:
        return UNKNOWN
    if a.is_const:
        k = a.c0
        return Affine(k * b.c0, k * b.c_rank, k * b.c_size,
                      c_vars=_scale_vars(b.c_vars, k))
    if b.is_const:
        k = b.c0
        return Affine(k * a.c0, k * a.c_rank, k * a.c_size,
                      c_vars=_scale_vars(a.c_vars, k))
    return UNKNOWN


def mod(a: SymValue, b: SymValue) -> SymValue:
    """``a % b`` — closed only for ``% size`` and const ``%`` const."""
    if not (isinstance(a, Affine) and isinstance(b, Affine)):
        return UNKNOWN
    if a.mod_size or b.mod_size:
        return UNKNOWN
    if b == SIZE:
        return Affine(a.c0, a.c_rank, a.c_size, mod_size=True,
                      c_vars=a.c_vars)
    if a.is_const and b.is_const and b.c0 != 0:
        return const(a.c0 % b.c0)
    return UNKNOWN


def floordiv(a: SymValue, b: SymValue) -> SymValue:
    if (
        isinstance(a, Affine) and isinstance(b, Affine)
        and a.is_const and b.is_const and b.c0 != 0
    ):
        return const(a.c0 // b.c0)
    return UNKNOWN


# ----------------------------------------------------------------------
# Conditions
# ----------------------------------------------------------------------

class Relop(Enum):
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_NEGATED = {
    Relop.EQ: Relop.NE,
    Relop.NE: Relop.EQ,
    Relop.LT: Relop.GE,
    Relop.LE: Relop.GT,
    Relop.GT: Relop.LE,
    Relop.GE: Relop.LT,
}


@dataclass(frozen=True)
class Cond:
    """``lhs <relop> rhs`` over affine expressions.

    ``lhs_mod`` optionally wraps the left side in ``% k`` for a
    constant ``k`` (the ``rank % 2 == 0`` parity split).
    """

    lhs: Affine
    op: Relop
    rhs: Affine
    lhs_mod: Optional[int] = None

    def negate(self) -> "Cond":
        return Cond(self.lhs, _NEGATED[self.op], self.rhs, self.lhs_mod)

    def depends_on_rank(self) -> bool:
        return self.lhs.depends_on_rank() or self.rhs.depends_on_rank()

    def free_vars(self) -> Tuple[str, ...]:
        return self.lhs.free_vars() + self.rhs.free_vars()

    def evaluate(
        self, rank: int, size: int,
        bindings: Optional[Mapping[str, int]] = None,
    ) -> bool:
        left = self.lhs.evaluate(rank, size, bindings)
        if self.lhs_mod is not None:
            left %= self.lhs_mod
        right = self.rhs.evaluate(rank, size, bindings)
        if self.op is Relop.EQ:
            return left == right
        if self.op is Relop.NE:
            return left != right
        if self.op is Relop.LT:
            return left < right
        if self.op is Relop.LE:
            return left <= right
        if self.op is Relop.GT:
            return left > right
        return left >= right

    def render(self) -> str:
        lhs = self.lhs.render()
        if self.lhs_mod is not None:
            lhs = f"{lhs} % {self.lhs_mod}"
        return f"{lhs} {self.op.value} {self.rhs.render()}"
