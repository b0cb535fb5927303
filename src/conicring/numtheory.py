"""Exact rational arithmetic, bounded factorization, and local Hilbert symbols over Q.

Everything is pure and exact.  Rationals are `fractions.Fraction` (always in
lowest terms with positive denominator, so equality is structural).
Factorization is trial division with an explicit bound that fails loudly
rather than ever returning a wrong answer.  Hilbert symbols factor nothing:
they are evaluated by the classical closed-form local formulas, which need
only signs at the real place, the valuation parities and Legendre symbols of
the p-free parts at odd primes, and the epsilon/omega characters of the odd
parts at 2, so they are exact on arguments of any size.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction

from .errors import FactorBoundExceeded, ParseError
from .value import Value

#: The coefficient field of every conic: exact arbitrary-precision fractions.
Rational = Fraction

DEFAULT_FACTOR_BOUND = 10**6

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str, line: int | None = None, column: int | None = None) -> Fraction:
    """Parse the restricted rational syntax: optional sign, integer, optional /positive-integer.

    `line` and `column` give the position of `text` in its document; every
    ParseError raised carries them.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"not a rational number: {text!r}", line, column)
    num, slash, den = text.partition("/")
    try:
        numerator, denominator = int(num), int(den) if slash else 1
    except ValueError:  # a part is longer than Python's int-string limit
        digits, limit = max(len(num.lstrip("+-")), len(den)), sys.get_int_max_str_digits()
        raise ParseError(
            f"number has {digits} digits, more than the limit of {limit}", line, column
        ) from None
    if denominator == 0:
        raise ParseError(f"zero denominator: {text!r}", line, column)
    return Fraction(numerator, denominator)


def is_prime(n: int) -> bool:
    """Primality by trial division; intended for desk-scale inputs."""
    # The bound's square exceeds n, so `factor` certifies any cofactor left.
    return n > 1 and factor(n, math.isqrt(n) + 1)[1] == {n: 1}


def factor(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer by trial division up to `bound`.

    Returns (sign, {prime: exponent}) with primes ascending.  A leftover
    cofactor with no divisor <= bound is prime whenever it is <= bound**2 and
    is then included; a larger one raises FactorBoundExceeded since trial
    division cannot certify it.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    if bound < 1:
        raise ValueError("bound must be positive")
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: dict[int, int] = {}
    d = 2
    while d <= bound and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors[d] = e
        d += 1 if d == 2 else 2
    if m > 1:
        if m > bound * bound:
            raise FactorBoundExceeded(m, bound)
        factors[m] = factors.get(m, 0) + 1
    return sign, factors


def squarefree_part(q: Fraction | int, bound: int = DEFAULT_FACTOR_BOUND) -> int:
    """The squarefree integer representing the square class of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    # n/d and n*d differ by the square d^2.
    sign, factors = factor(q.numerator * q.denominator, bound)
    part = sign
    for p, e in factors.items():
        if e % 2:
            part *= p
    return part


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@functools.total_ordering
class Place(Value):
    """A place of Q: a finite prime p, or the real place (p is None).

    The canonical total order is 2 < 3 < 5 < ... < real.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self._init(p)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __lt__(self, other: "Place") -> bool:
        return self.p is not None and (other.p is None or self.p < other.p)

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)

    def __repr__(self) -> str:
        return f"Place({self.p!r})"


REAL = Place.real()


def _odd_part(n: int, p: int) -> tuple[int, int]:
    """Write n = p**e * u with p not dividing u; return (e, u)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _eps(u: int) -> int:
    """(u - 1)/2 mod 2 for odd u: detects u = 3 mod 4."""
    return ((u - 1) // 2) % 2


def _omega(u: int) -> int:
    """(u^2 - 1)/8 mod 2 for odd u: detects u = +-3 mod 8."""
    return ((u * u - 1) // 8) % 2


def hilbert_symbol(a: Fraction | int, b: Fraction | int, place: Place) -> int:
    """Local Hilbert symbol (a, b) at a place of Q, in {+1, -1}.

    +1 exactly when x^2 - a*y^2 - b*z^2 = 0 has a nontrivial solution over
    the completion at the place.  Nothing is factored: a rational n/d is read
    as the integer n*d of the same square class, and at a prime p only the
    parity of its p-adic valuation and its p-free part enter the formula.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    # n/d and n*d differ by the square d^2.
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if place.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    alpha, u = _odd_part(a, p)
    beta, w = _odd_part(b, p)
    alpha, beta = alpha % 2, beta % 2
    if p == 2:
        exponent = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exponent % 2 else 1
    sign = 1
    if alpha and beta and ((p - 1) // 2) % 2:
        sign = -sign
    if beta:
        sign *= legendre(u, p)
    if alpha:
        sign *= legendre(w, p)
    return sign


def candidate_places(
    a: Fraction | int,
    b: Fraction | int,
    factor_bound: int = DEFAULT_FACTOR_BOUND,
) -> list[Place]:
    """Every place where the symbol (a, b) could be -1, in canonical order.

    Always includes 2 and the real place, plus the odd primes dividing a
    numerator or denominator of either argument; at any other place both
    arguments are units at an odd prime, so the symbol is +1.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("candidate places require nonzero arguments")
    odd: set[int] = set()
    for n in (a.numerator, a.denominator, b.numerator, b.denominator):
        _, factors = factor(n, factor_bound)
        odd.update(q for q in factors if q != 2)
    return [Place.finite(2), *(Place.finite(q) for q in sorted(odd)), REAL]
