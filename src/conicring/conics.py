"""Smooth conics over Q as quaternion symbols.

A conic is the diagonal curve x1^2 - a*x2^2 - b*x3^2 = 0, stored with a, b
reduced to squarefree integers (square-class representatives).  Its Brauer
class is the set of places where the local symbol (a, b) is -1, which is a
complete isomorphism invariant; the conic has a rational point exactly when
that set is empty.

The product of two classes is realized on conics through a common quadratic
splitting field Q(sqrt(d)): both conics are rewritten as (d, b') and (d, c'),
and (d, b'c') represents the sum of the classes.  Every bounded search here
is deterministic (height order) and verified exactly before returning.  The
search for a conic realizing a given class filters coefficient pairs by their
local symbols, as bitmasks over the odd primes and the real place, and
classifies only the pair that passes.

The factor bound applies in one place only: `new_conic`, where input
rationals are reduced to squarefree integers.  Everything downstream reads
the coefficients of an existing Conic, which are already fully trial-divided.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .brauer import BrauerClass, class_add
from .errors import InvalidConic, SearchBoundExceeded
from .numtheory import (
    DEFAULT_FACTOR_BOUND,
    Place,
    _legendre,
    candidate_places,
    factor,
    hilbert_symbol,
    squarefree_part,
)
from .value import Value

DEFAULT_SEARCH_BOUND = 10**4

#: Entries kept by each cache of this module, least recently used dropped
#: first, so a long-running process holds at most this many per cache.  An
#: 18 s run of any bench workload meets fewer distinct conics.
CACHE_SIZE = 4096


class Conic(Value):
    """Diagonal conic x1^2 - a*x2^2 - b*x3^2 = 0 with squarefree a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        for c in (a, b):
            if c == 0:
                raise InvalidConic("coefficients of a smooth conic must be nonzero")
            if not _squarefree_small(abs(c)):
                raise InvalidConic(f"{c} is not squarefree; construct via new_conic")
        self._init(a, b)

    def __str__(self) -> str:
        return f"Conic({self.a},{self.b})"

    def text_form(self) -> str:
        """The two-column file syntax, e.g. "-1 3"."""
        return f"{self.a} {self.b}"

    def value_at(self, x1, x2, x3):
        """Evaluate x1^2 - a*x2^2 - b*x3^2; accepts rationals or QuadExtElem."""
        x1, x2, x3 = (_as_quad(v) for v in (x1, x2, x3))
        return x1 * x1 - self.a * (x2 * x2) - self.b * (x3 * x3)


def new_conic(a, b, factor_bound: int = DEFAULT_FACTOR_BOUND) -> Conic:
    """Validate and square-class-reduce coefficients into a Conic.

    This is the only place the factor bound applies: trial division of the
    input numerators and denominators stops at `factor_bound`, and a cofactor
    it cannot certify raises FactorBoundExceeded.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise InvalidConic("coefficients of a smooth conic must be nonzero")
    return Conic(squarefree_part(a, factor_bound), squarefree_part(b, factor_bound))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _ramification(a: int, b: int) -> BrauerClass:
    # Conic.__init__ has already trial-divided a and b up to their square
    # roots (`_squarefree_small`), so factoring them in full costs no more
    # than construction did.
    ramified = [
        v for v in candidate_places(a, b, max(abs(a), abs(b)))
        if hilbert_symbol(a, b, v) == -1
    ]
    return BrauerClass(ramified)


def brauer_class(conic: Conic) -> BrauerClass:
    """The ramification set of the conic's quaternion symbol."""
    return _ramification(conic.a, conic.b)


def has_rational_point(conic: Conic) -> bool:
    """Split test: a point exists over Q iff no place ramifies (Hasse-Minkowski)."""
    return brauer_class(conic).is_trivial


def is_isomorphic(c1: Conic, c2: Conic) -> bool:
    """Conics are isomorphic iff their classes agree."""
    return brauer_class(c1) == brauer_class(c2)


def admits_rational_map(c1: Conic, c2: Conic) -> bool:
    """Whether a rational map c1 -> c2 exists: c2 is split, or c1 and c2 are isomorphic."""
    cls2 = brauer_class(c2)
    return cls2.is_trivial or brauer_class(c1) == cls2


def _signed_squarefree(limit: int) -> Iterator[int]:
    """1, -1, 2, -2, 3, -3, 5, -5, 6, ... : squarefree integers in height order."""
    for n in range(1, limit + 1):
        if _squarefree_small(n):
            yield n
            yield -n


@functools.lru_cache(maxsize=CACHE_SIZE)
def _squarefree_small(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _nonsquare_in_completion(d: int, place: Place) -> bool:
    """Whether a squarefree d is a nonsquare in the completion at the place."""
    if place.is_real:
        return d < 0
    p = place.p
    if d % p == 0:
        return True  # odd valuation
    if p == 2:
        return d % 8 != 1
    return _legendre(d, p) == -1  # p is an odd Place prime


def _splitting_discriminants(c1: Conic, c2: Conic, search_bound: int) -> Iterator[int]:
    """Squarefree d with |d| <= search_bound splitting both conics, in height order.

    d works iff it is a nonsquare in the completion at every ramified place
    of either conic.
    """
    ramified = sorted(set(brauer_class(c1).places) | set(brauer_class(c2).places))
    for d in _signed_squarefree(search_bound):
        if all(_nonsquare_in_completion(d, v) for v in ramified):
            yield d


def common_splitting_discriminant(
    c1: Conic, c2: Conic, search_bound: int = DEFAULT_SEARCH_BOUND
) -> int:
    """Smallest squarefree d (by |d|, ties positive) with Q(sqrt(d)) splitting both.

    d = 1 is returned exactly when both conics are split.
    """
    for d in _splitting_discriminants(c1, c2, search_bound):
        return d
    raise SearchBoundExceeded(
        f"no common splitting discriminant with |d| <= {search_bound}"
    )


def _signed_subset_products(base: int, primes: set[int], bound: int) -> list[int]:
    """Every +-base*prod(S) <= bound in absolute value, S a subset of the primes.

    Sorted by (|v|, v < 0): height order, positive first.
    """
    values = []
    for size in range(len(primes) + 1):
        for combo in itertools.combinations(primes, size):
            v = base * math.prod(combo)
            if v <= bound:
                values.extend((v, -v))
    return sorted(values, key=lambda v: (abs(v), v < 0))


def _rewrite_candidates(target: BrauerClass, d: int, search_bound: int) -> list[int]:
    """Candidate second coefficients for presenting `target` as (d, e).

    The symbol (d, e) ramifies at an odd prime q not dividing d only when
    q divides e, so the odd primes of the target outside d are mandatory
    factors.  The remaining local conditions (at 2, the real place, and the
    primes of d) are adjusted by the sign, a factor of 2, primes dividing d,
    and small auxiliary primes at which d is a square (those never add
    ramification of their own).
    """
    odd_target = {v.p for v in target.places if not v.is_real and v.p != 2}
    mandatory = math.prod(q for q in odd_target if d % q != 0)
    _, d_factors = factor(d, abs(d))
    optional = {2} | {q for q in d_factors if q != 2} | {
        r for r in (3, 5, 7, 11, 13)  # odd primes, so `_legendre` needs no check
        if r not in odd_target and d % r != 0 and _legendre(d, r) == 1
    }
    return _signed_subset_products(mandatory, optional, search_bound)


def rewrite_with_discriminant(
    conic: Conic, d: int, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Conic:
    """Present the conic's class as (d, e): same Brauer class, first coefficient d.

    e is found by a bounded height-order search over squarefree integers
    built from the primes relevant to the conic's class and small auxiliary
    primes; every candidate is verified exactly by class equality, so the
    result is correct by construction.
    """
    target = brauer_class(conic)
    if d == 1 and not target.is_trivial:
        raise ValueError("d = 1 cannot present a non-split conic")
    for v in target.places:
        if not _nonsquare_in_completion(d, v):
            raise ValueError(f"Q(sqrt({d})) does not split {conic}")
    for e in _rewrite_candidates(target, d, search_bound):
        candidate = Conic(d, e)
        if brauer_class(candidate) == target:
            return candidate
    raise SearchBoundExceeded(
        f"no coefficient e with |e| <= {search_bound} presents {conic} over sqrt({d})"
    )


def brauer_product(
    c1: Conic, c2: Conic, search_bound: int = DEFAULT_SEARCH_BOUND
) -> Conic:
    """A conic whose class is the sum of the two input classes.

    With a shared first coefficient the product of (a, b) and (a, c) is
    (a, bc) directly.  Otherwise both conics are rewritten over a common
    splitting discriminant: candidates d are scanned in height order and the
    first one whose two rewrites fit the search bound wins.  The class
    additivity of the result is checked exactly before returning.
    """
    if c1.a == c2.a:
        left, right = c1, c2
    else:
        for d in _splitting_discriminants(c1, c2, search_bound):
            try:
                left = rewrite_with_discriminant(c1, d, search_bound)
                right = rewrite_with_discriminant(c2, d, search_bound)
            except SearchBoundExceeded:
                continue
            break
        else:
            raise SearchBoundExceeded(
                f"no common presentation of {c1} and {c2} within {search_bound}"
            )
    g = math.gcd(left.b, right.b)  # both squarefree: this is the squarefree part
    product = Conic(left.a, left.b * right.b // g**2)
    if brauer_class(product) != class_add(brauer_class(c1), brauer_class(c2)):
        raise AssertionError(
            f"product {product} of {c1}, {c2} fails class additivity"
        )
    return product


def _symbol_masks(values: list[int], odd: list[int]) -> list[tuple[int, int]]:
    """Local data of each value at the odd primes and the real place, as bitmasks.

    The values are signed squarefree products of 2 and the primes in `odd`.
    Bit k < len(odd) stands for odd[k]: it is set in `divides` when odd[k]
    divides v, and in `nonresidue` when the odd[k]-free part of v is a
    quadratic nonresidue mod odd[k].  Bit len(odd) stands for the real place,
    read as the "prime" -1 = 3 mod 4: it is set in `divides` when v < 0 and
    never in `nonresidue`.  The Legendre symbol is multiplicative, so
    `nonresidue` is the XOR of the nonresidue bits of -1 and of v's primes.
    """

    def nonresidue_bits(g: int) -> int:
        # `odd` holds Place primes and small constant primes, all odd.
        return sum(1 << k for k, p in enumerate(odd) if g % p and _legendre(g, p) == -1)

    real = 1 << len(odd)
    minus = nonresidue_bits(-1)
    factors = [(2, 0, nonresidue_bits(2))]
    factors += [(p, 1 << k, nonresidue_bits(p)) for k, p in enumerate(odd)]
    masks = []
    for v in values:
        divides, nonresidue = (real, minus) if v < 0 else (0, 0)
        for p, bit, chi in factors:
            if v % p == 0:
                divides |= bit
                nonresidue ^= chi
        masks.append((divides, nonresidue))
    return masks


def _ramified_masks(masks: list[tuple[int, int]], b: tuple[int, int], m3: int) -> list[int]:
    """For each a in `masks`: the bits of the places where the symbol (a, b) is -1.

    Places and masks are as in `_symbol_masks`; m3 marks the places = 3 mod 4,
    where (-1/p) = -1.  At an odd prime p with squarefree a, b the symbol is
    (b/p) when p divides a only, (a/p) when p divides b only, and
    (-1/p)(a'/p)(b'/p) for the p-free parts a', b' when p divides both; at
    the real place that last case is -1 exactly when a, b < 0.  Per bit that is
    (da & ~db & rb) | (db & ~da & ra) | (da & db & (m3 ^ ra ^ rb)), written
    below with the parts that depend on b alone taken out of the loop.
    """
    db, rb = b
    only_a = rb & ~db
    both = m3 ^ rb
    return [(da & only_a) | (db & (ra ^ (da & both))) for da, ra in masks]


def conic_from_class(cls: BrauerClass, search_bound: int = DEFAULT_SEARCH_BOUND) -> Conic:
    """A conic realizing a given ramification set, by verified bounded search.

    Candidate coefficients are signed squarefree products of the odd primes
    in the set together with 2 and a few small auxiliary primes; pairs are
    tried in height order.  Each pair is filtered by its local symbols at the
    odd primes in play and the real place, as bitmasks (`_symbol_masks`,
    `_ramified_masks`); by Hilbert reciprocity a pair that matches the class
    there matches at 2 as well.  The symbol is symmetric, so of (a, b) and
    (b, a) only the first in height order is tested.  The one pair that
    passes is checked exactly by classification before it is returned.
    """
    primes = {p.p for p in cls.places if not p.is_real} | {2, 3, 5, 7, 11, 13}
    values = _signed_subset_products(1, primes, search_bound)
    odd = sorted(primes - {2})
    real = 1 << len(odd)
    target = sum(real if v.is_real else 1 << odd.index(v.p) for v in cls.places if v.p != 2)
    m3 = real | sum(1 << k for k, p in enumerate(odd) if p % 4 == 3)
    masks = _symbol_masks(values, odd)
    for n, b in enumerate(masks):
        ramified = _ramified_masks(masks[: n + 1], b, m3)
        if target in ramified:
            candidate = Conic(values[ramified.index(target)], values[n])
            if brauer_class(candidate) != cls:
                raise AssertionError(f"{candidate} passed the local filter for {cls}")
            return candidate
    raise SearchBoundExceeded(
        f"no conic with coefficients <= {search_bound} realizes {cls}"
    )


class QuadExtElem(Value):
    """An element u + v*sqrt(d) of Q(sqrt(d)), d a squarefree nonzero integer.

    Rational elements are normalized to d = 1 with v = 0, so equality is
    structural; elements over different nontrivial discriminants cannot be
    combined.
    """

    __slots__ = ("d", "u", "v")  # int, Fraction, Fraction

    def __init__(self, d: int, u, v=0):
        if d == 0 or not _squarefree_small(abs(d)):
            raise ValueError("discriminant must be a squarefree nonzero integer")
        u, v = Fraction(u), Fraction(v)
        if d == 1:
            u, v = u + v, Fraction(0)
        elif v == 0:
            d = 1
        self._init(d, u, v)

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def _common_d(self, other: "QuadExtElem") -> int:
        if self.d == other.d or other.d == 1:
            return self.d
        if self.d == 1:
            return other.d
        raise ValueError(f"incompatible discriminants {self.d} and {other.d}")

    def __add__(self, other):
        other = _as_quad(other)
        return QuadExtElem(self._common_d(other), self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElem(self.d, -self.u, -self.v)

    def __sub__(self, other):
        return self + (-_as_quad(other))

    def __rsub__(self, other):
        return _as_quad(other) + (-self)

    def __mul__(self, other):
        other = _as_quad(other)
        d = self._common_d(other)
        return QuadExtElem(
            d,
            self.u * other.u + d * self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.v == 0:
            return str(self.u)
        head = f"{self.u}+" if self.u else ""
        return f"{head}{self.v}*sqrt({self.d})"


def _as_quad(value) -> QuadExtElem:
    if isinstance(value, QuadExtElem):
        return value
    return QuadExtElem(1, Fraction(value))


def sqrt_of(d: int) -> QuadExtElem:
    """The element sqrt(d) of Q(sqrt(d))."""
    return QuadExtElem(d, 0, 1)


def phi_forward(
    a,
    x: tuple[QuadExtElem, QuadExtElem, QuadExtElem],
    y: tuple[QuadExtElem, QuadExtElem, QuadExtElem],
) -> tuple[QuadExtElem, QuadExtElem, QuadExtElem]:
    """The bilinear map (x, y) -> (x1*y1 + a*x2*y2, x1*y2 + x2*y1, x3*y3).

    Satisfies z1^2 - a*z2^2 = (x1^2 - a*x2^2)(y1^2 - a*y2^2) identically, so
    it carries a pair of points on conics with shared first coefficient a to
    a point on the conic (a, bc).
    """
    a = Fraction(a)
    x1, x2, x3 = (_as_quad(v) for v in x)
    y1, y2, y3 = (_as_quad(v) for v in y)
    return (x1 * y1 + a * (x2 * y2), x1 * y2 + x2 * y1, x3 * y3)


class ProjPoint(Value):
    """A projective point with coordinates in a common Q(sqrt(d))."""

    __slots__ = ("coords",)  # a tuple of three QuadExtElem

    def __init__(self, coords: Iterable):
        coords = tuple(_as_quad(c) for c in coords)
        if len(coords) != 3:
            raise ValueError("projective point needs three coordinates")
        if all(c.is_zero for c in coords):
            raise ValueError("projective point cannot be all zero")
        d = 1
        for c in coords:
            if c.d != 1:
                if d != 1 and c.d != d:
                    raise ValueError("coordinates over different discriminants")
                d = c.d
        self._init(coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        a, b = self.coords, other.coords
        return all(
            (a[i] * b[j] - a[j] * b[i]).is_zero
            for i, j in ((0, 1), (0, 2), (1, 2))
        )

    __hash__ = None

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def rational_point(conic: Conic, search_bound: int = DEFAULT_SEARCH_BOUND) -> tuple[int, int, int]:
    """Deterministic primitive integer point on a split conic.

    Enumerates triples by ascending maximum coordinate, normalizing the sign
    so the first nonzero coordinate is positive.
    """
    a, b = conic.a, conic.b
    for h in range(1, search_bound + 1):
        for x1 in range(-h, h + 1):
            for x2 in range(-h, h + 1):
                for x3 in range(-h, h + 1):
                    if max(abs(x1), abs(x2), abs(x3)) != h:
                        continue
                    if x1 * x1 - a * x2 * x2 - b * x3 * x3 != 0:
                        continue
                    if math.gcd(math.gcd(abs(x1), abs(x2)), abs(x3)) != 1:
                        continue
                    sign = 1 if next(v for v in (x1, x2, x3) if v) > 0 else -1
                    return (sign * x1, sign * x2, sign * x3)
    raise SearchBoundExceeded(
        f"no rational point of height <= {search_bound} on {conic}"
    )


def point_over_splitting_field(
    conic: Conic, search_bound: int = DEFAULT_SEARCH_BOUND
) -> ProjPoint:
    """A point on the conic over its splitting field.

    A split conic gets a rational point by bounded height search.  A
    non-split conic must be presented as (d, e) with d its splitting
    discriminant; the point is then (sqrt(d) : 1 : 0).
    """
    if has_rational_point(conic):
        return ProjPoint(rational_point(conic, search_bound))
    return ProjPoint((sqrt_of(conic.a), 1, 0))
