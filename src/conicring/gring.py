"""The ring generated by conic classes, in normal form.

Every product of conics is equivalent to a unique expression
C(G) * [P^1]^m, where G is the subgroup spanned by the factors' Brauer
classes and m is the number of factors minus dim G.  The ring itself is the
free abelian group on terms Term(G, m) with the multiplication rule

    Term(G1, m1) * Term(G2, m2)
        = Term(<G1, G2>, m1 + m2 + dim G1 + dim G2 - dim <G1, G2>).

Elements are stored as sorted tuples of (term, nonzero integer coefficient),
so ring equality is structural.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .brauer import (
    TRIVIAL_SUBGROUP,
    BrauerClass,
    Subgroup,
    contains,
    join,
    span,
    subgroup_leq,
)
from .conics import Conic, brauer_class
from .errors import ZeroElement
from .value import Value


class Term(Value):
    """A basis element C(G) * [P^1]^m of the free abelian group."""

    __slots__ = ("group", "lefschetz_power")

    def __init__(self, group: Subgroup, lefschetz_power: int):
        if lefschetz_power < 0:
            raise ValueError("lefschetz power must be nonnegative")
        self._init(group, lefschetz_power)

    def sort_key(self):
        return (self.group.sort_key(), self.lefschetz_power)


IDENTITY_TERM = Term(TRIVIAL_SUBGROUP, 0)


def term_mul(t1: Term, t2: Term) -> Term:
    """Term product; the exponent increment dim G1 + dim G2 - dim join is >= 0."""
    joined = join(t1.group, t2.group)
    power = (
        t1.lefschetz_power
        + t2.lefschetz_power
        + t1.group.dim
        + t2.group.dim
        - joined.dim
    )
    return Term(joined, power)


class RingElement(Value):
    """A finite integer combination of terms; immutable, structurally equal."""

    __slots__ = ("terms",)  # a sorted tuple of (Term, nonzero int) pairs

    def __init__(self, terms: Mapping[Term, int] | Iterable[tuple[Term, int]] = ()):
        acc: dict[Term, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for term, coeff in items:
            acc[term] = acc.get(term, 0) + coeff
        normalized = tuple(
            (t, c) for t, c in sorted(acc.items(), key=lambda tc: tc[0].sort_key()) if c
        )
        self._init(normalized)

    @classmethod
    def zero(cls) -> "RingElement":
        return cls()

    @classmethod
    def one(cls) -> "RingElement":
        return cls({IDENTITY_TERM: 1})

    @classmethod
    def lefschetz(cls, power: int = 1) -> "RingElement":
        """The class of (P^1)^power."""
        return cls({Term(TRIVIAL_SUBGROUP, power): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, term: Term) -> int:
        for t, c in self.terms:
            if t == term:
                return c
        return 0

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(list(self.terms) + list(other.terms))

    def __neg__(self) -> "RingElement":
        return RingElement((t, -c) for t, c in self.terms)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        acc: dict[Term, int] = {}
        for t1, c1 in self.terms:
            for t2, c2 in other.terms:
                t = term_mul(t1, t2)
                acc[t] = acc.get(t, 0) + c1 * c2
        return RingElement(acc)

    def __pow__(self, s: int) -> "RingElement":
        if s < 0:
            raise ValueError("exponent must be nonnegative")
        if s and len(self.terms) == 1 and self.terms[0][1] in (1, -1):
            # The term law applied s - 1 times: (+-Term(G, m))^s
            # = (+-1)^s * Term(G, s*m + (s-1)*dim G), as in power_coefficient_check.
            (term, coeff), = self.terms
            power = s * term.lefschetz_power + (s - 1) * term.group.dim
            return RingElement({Term(term.group, power): coeff if s % 2 else 1})
        result = RingElement.one()
        for _ in range(s):
            result = result * self
        return result

    def __str__(self) -> str:
        return render_element(self)


def leading_term(x: RingElement) -> tuple[Term, int]:
    """The deterministic leading term of a nonzero element.

    Restrict to terms whose subgroup is inclusion-minimal among the
    subgroups present; among those pick the smallest subgroup in the total
    order (dimension, then basis lexicographically), then the smallest
    lefschetz power.
    """
    if x.is_zero:
        raise ZeroElement("the zero element has no leading term")
    groups = {t.group for t, _ in x.terms}
    minimal = [
        g for g in groups
        if not any(h != g and subgroup_leq(h, g) for h in groups)
    ]
    g0 = min(minimal, key=Subgroup.sort_key)
    m0 = min(t.lefschetz_power for t, _ in x.terms if t.group == g0)
    term = Term(g0, m0)
    return term, x.coefficient(term)


def power_coefficient_check(x: RingElement, s: int) -> bool:
    """Verify the lowest-order coefficient of x**s.

    For leading term (G0, m) with coefficient g, the coefficient of
    Term(G0, s*m + (s-1)*dim G0) in x**s must be g**s; in particular x**s
    is never zero, so the ring has no nilpotents.
    """
    if s < 1:
        raise ValueError("exponent must be positive")
    term, gamma = leading_term(x)
    target = Term(
        term.group,
        s * term.lefschetz_power + (s - 1) * term.group.dim,
    )
    return (x ** s).coefficient(target) == gamma ** s


class ConicProduct(Value):
    """A finite list of conic factors; the empty product is Spec Q."""

    __slots__ = ("factors",)  # a tuple of conics

    def __init__(self, factors: Iterable[Conic] = ()):
        self._init(tuple(factors))

    def __len__(self) -> int:
        return len(self.factors)


def canonical_of_product(product: ConicProduct) -> tuple[int, Subgroup]:
    """Normal form (m, G) of a product: G spans the factor classes, m = n - dim G."""
    classes = [brauer_class(c) for c in product.factors]
    group = span(classes)
    return len(classes) - group.dim, group


def from_conic_product(product: ConicProduct) -> RingElement:
    """The ring element of a product: a single term with coefficient 1."""
    m, group = canonical_of_product(product)
    return RingElement({Term(group, m): 1})


class Decision(Value):
    """Outcome of an equivalence decision, with a machine-readable reason."""

    __slots__ = ("equivalent", "reason", "size_left", "size_right", "witness")

    def __init__(self, equivalent: bool, reason: str, size_left: int, size_right: int,
                 witness: BrauerClass | None = None):
        self._init(equivalent, reason, size_left, size_right, witness)


def _span_witness(g1: Subgroup, g2: Subgroup) -> BrauerClass | None:
    """A class in exactly one of the two spans, if the spans differ."""
    for cls in g1.basis:
        if not contains(g2, cls):
            return cls
    for cls in g2.basis:
        if not contains(g1, cls):
            return cls
    return None


def decide_equal_products(left: ConicProduct, right: ConicProduct) -> Decision:
    """Products are equal in the ring iff sizes match and spans coincide."""
    decision = decide_stably_birational(left, right)
    if len(left) != len(right):
        return Decision(False, "size-mismatch", len(left), len(right))
    if decision.equivalent:
        return Decision(True, "size-and-span-match", len(left), len(right))
    return decision


def decide_stably_birational(left: ConicProduct, right: ConicProduct) -> Decision:
    """Products are stably birational iff the spans coincide; size is irrelevant."""
    g1 = span(brauer_class(c) for c in left.factors)
    g2 = span(brauer_class(c) for c in right.factors)
    n1, n2 = len(left), len(right)
    if g1 != g2:
        return Decision(False, "span-mismatch", n1, n2, _span_witness(g1, g2))
    return Decision(True, "span-match", n1, n2)


def _term_str(term: Term) -> str:
    if term.group.is_trivial:
        head = "C(0)"
    else:
        head = "C(" + ",".join(str(c) for c in term.group.basis) + ")"
    if term.lefschetz_power:
        head += f"[L]^{term.lefschetz_power}"
    return head


def render_element(x: RingElement) -> str:
    """Canonical text form, terms in leading order; "0" for the zero element."""
    if x.is_zero:
        return "0"
    parts = []
    for k, (term, coeff) in enumerate(x.terms):
        body = _term_str(term)
        magnitude = body if abs(coeff) == 1 else f"{abs(coeff)}*{body}"
        if k == 0:
            parts.append(magnitude if coeff > 0 else "-" + magnitude)
        else:
            parts.append((" + " if coeff > 0 else " - ") + magnitude)
    return "".join(parts)
