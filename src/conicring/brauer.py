"""F2 linear algebra on 2-torsion Brauer classes of Q.

A class is stored as its ramification set: the finite, even-cardinality set
of places where the local symbol is -1.  Addition is symmetric difference.
A subgroup is stored as the unique reduced echelon basis with respect to the
canonical place order, which makes subgroup equality structural and lets
subgroups serve as map keys.

Row reduction runs on int bitsets over the finitely many places that occur
in a given computation, in the style of a dense GF(2) row reduction; bit i
of a row corresponds to the i-th smallest place in play.  Membership reduces
a class's place set against the basis directly.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence

from .numtheory import Place
from .value import Value


@functools.total_ordering
class BrauerClass(Value):
    """A 2-torsion Brauer class, i.e. an even finite set of places."""

    __slots__ = ("places",)  # a sorted tuple of places

    def __init__(self, places: Iterable[Place] = ()):
        normalized = tuple(sorted(set(places)))
        if len(normalized) % 2:
            raise ValueError(f"ramification set must have even size: {normalized}")
        self._init(normalized)

    @property
    def is_trivial(self) -> bool:
        return not self.places

    def __lt__(self, other: "BrauerClass") -> bool:
        return self.places < other.places

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.places) + "}"

    def __repr__(self) -> str:
        return f"BrauerClass({self})"


TRIVIAL_CLASS = BrauerClass()


def class_add(x: BrauerClass, y: BrauerClass) -> BrauerClass:
    """Group law: symmetric difference of ramification sets."""
    return BrauerClass(set(x.places) ^ set(y.places))


class Subgroup(Value):
    """A finite F2-subspace of classes in canonical reduced echelon form.

    The pivot of a basis class is its smallest place.  Canonical form means
    pivots are strictly increasing and no pivot place is ramified in any
    other basis class; the representation of a subgroup is therefore unique
    and equality/hashing are structural.
    """

    __slots__ = ("basis",)  # a tuple of classes

    def __init__(self, basis: Iterable[BrauerClass] = ()):
        basis = tuple(basis)
        pivots = []
        for cls in basis:
            if cls.is_trivial:
                raise ValueError("zero class in a basis")
            pivots.append(cls.places[0])
        if any(q <= p for p, q in zip(pivots, pivots[1:])):
            raise ValueError("basis pivots must be strictly increasing")
        for i, cls in enumerate(basis):
            for j, pivot in enumerate(pivots):
                if i != j and pivot in cls.places:
                    raise ValueError("pivot place ramified in another basis class")
        self._init(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_trivial(self) -> bool:
        return not self.basis

    def sort_key(self):
        return (self.dim, self.basis)

    def __str__(self) -> str:
        return "<" + ",".join(str(c) for c in self.basis) + ">"

    def __repr__(self) -> str:
        return f"Subgroup({self})"


TRIVIAL_SUBGROUP = Subgroup()


def _from_bits(bits: int, places: Sequence[Place]) -> BrauerClass:
    return BrauerClass(p for i, p in enumerate(places) if (bits >> i) & 1)


def _rref(rows: list[int], n_cols: int) -> tuple[int, list[tuple[int, int]]]:
    """Reduce rows in place to reduced row echelon form over GF(2).

    Only transvections rows[j] ^= rows[i] are applied, a swap being three of
    them.  Returns the rank, i.e. the number of leading nonzero rows (in pivot
    order), and the moves (i, j) in the order they were applied.
    """
    moves: list[tuple[int, int]] = []
    cur = 0
    for col in range(n_cols):
        bit = 1 << col
        pivot = next((r for r in range(cur, len(rows)) if rows[r] & bit), None)
        if pivot is None:
            continue
        if pivot != cur:
            for i, j in ((pivot, cur), (cur, pivot), (pivot, cur)):
                rows[j] ^= rows[i]
                moves.append((i, j))
        for r in range(len(rows)):
            if r != cur and rows[r] & bit:
                rows[r] ^= rows[cur]
                moves.append((cur, r))
        cur += 1
        if cur == len(rows):
            break
    return cur, moves


def _bit_rows(classes: Sequence[BrauerClass]) -> tuple[list[Place], list[int]]:
    """The places in play, ascending, and each class as a row of bits over them."""
    places = sorted({p for cls in classes for p in cls.places})
    index = {p: 1 << i for i, p in enumerate(places)}
    return places, [sum(index[p] for p in cls.places) for cls in classes]


def span(classes: Iterable[BrauerClass]) -> Subgroup:
    """Canonical basis of the F2-span; independent of the input order."""
    places, rows = _bit_rows(list(classes))
    rank, _ = _rref(rows, len(places))
    return Subgroup(_from_bits(r, places) for r in rows[:rank])


def join(g1: Subgroup, g2: Subgroup) -> Subgroup:
    """Smallest subgroup containing both: the span of the two bases."""
    return span(g1.basis + g2.basis)


def contains(group: Subgroup, x: BrauerClass) -> bool:
    """Whether x reduces to the trivial class against the basis.

    A basis class is added to the remainder when the remainder holds its
    pivot.  No pivot is ramified in another basis class, so one pass decides.
    """
    rest = set(x.places)
    for cls in group.basis:
        if cls.places[0] in rest:
            rest.symmetric_difference_update(cls.places)
    return not rest


def subgroup_leq(g1: Subgroup, g2: Subgroup) -> bool:
    """Inclusion test via basis reduction."""
    return all(contains(g2, cls) for cls in g1.basis)


class TransvectionOp(Value):
    """The elementary move e[j] <- e[i] + e[j] on a list of classes."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if i == j:
            raise ValueError("transvection needs distinct indices")
        if i < 0 or j < 0:
            raise ValueError("transvection indices must be nonnegative")
        self._init(i, j)


def replay(classes: Sequence[BrauerClass], ops: Iterable[TransvectionOp]) -> list[BrauerClass]:
    """Apply transvections sequentially to a copy of the list."""
    state = list(classes)
    for op in ops:
        if op.i >= len(state) or op.j >= len(state):
            raise IndexError(f"transvection {op} out of range for {len(state)} classes")
        state[op.j] = class_add(state[op.i], state[op.j])
    return state


def reduce_generators(
    classes: Sequence[BrauerClass],
) -> tuple[list[TransvectionOp], Subgroup]:
    """Transform a generating collection into (canonical basis, zero classes).

    Returns a transvection script and the canonical basis of the span.
    Replaying the script on a copy of the input yields exactly the basis
    classes in positions 0..dim-1 and the trivial class everywhere after.
    Every transvection is invertible over F2, so each intermediate state
    spans the same subgroup; position swaps are emulated by three
    transvections.
    """
    places, rows = _bit_rows(classes)
    rank, moves = _rref(rows, len(places))
    ops = [TransvectionOp(i, j) for i, j in moves]
    return ops, Subgroup(_from_bits(r, places) for r in rows[:rank])
