"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths they check: the primality oracle
tries every divisor, the Legendre oracle squares every residue, the local
solvability oracle enumerates solutions modulo prime powers on a numpy
grid, the span oracles enumerate all subset sums of a generating
collection, and the representative oracle classifies every coefficient
pair it tries instead of filtering pairs by local symbols.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from conicring import BrauerClass, Conic, Place, SearchBoundExceeded, brauer_class


def brute_is_prime(n: int) -> bool:
    """Primality by trying every divisor 2..n-1."""
    return n > 1 and all(n % d for d in range(2, n))


def brute_legendre(a: int, p: int) -> int:
    """Legendre symbol by squaring every residue mod p."""
    if a % p == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a % p in squares else -1


@functools.lru_cache(maxsize=None)
def _local_tables(p: int):
    modulus = 64 if p == 2 else p**3
    ys = np.arange(modulus, dtype=np.int64)
    y2 = (ys * ys) % modulus
    is_square = np.zeros(modulus, dtype=bool)
    is_square[np.unique(y2)] = True
    primitive = (ys[:, None] % p != 0) | (ys[None, :] % p != 0)
    return modulus, y2, is_square, primitive


def local_solvable(a: int, b: int, place: Place) -> bool:
    """Primitive solvability of x^2 - a*y^2 - b*z^2 = 0 in the completion.

    Real place: sign analysis.  Finite p: exhaustive search for a primitive
    solution modulo p^3 (2^6 at p = 2).  Any primitive solution has y or z
    a unit, since y = z = 0 (mod p) forces p | x; so it suffices to scan all
    (y, z) pairs that are not both divisible by p and ask whether
    a*y^2 + b*z^2 is a square in Z/p^3.
    """
    if place.is_real:
        return a > 0 or b > 0
    modulus, y2, is_square, primitive = _local_tables(place.p)
    targets = (a * y2[:, None] + b * y2[None, :]) % modulus
    return bool(np.any(is_square[targets] & primitive))


def subset_sums(classes) -> set[BrauerClass]:
    """Every class expressible as a sum of a sub-collection; the full span."""
    sums = set()
    classes = list(classes)
    for r in range(len(classes) + 1):
        for combo in combinations(range(len(classes)), r):
            total = BrauerClass()
            for k in combo:
                total = BrauerClass(set(total.places) ^ set(classes[k].places))
            sums.add(total)
    return sums


def span_dim(classes) -> int:
    """F2 rank via the size of the set of subset sums (2**rank)."""
    return len(subset_sums(classes)).bit_length() - 1


def first_realizing_pair(cls: BrauerClass, bound: int) -> Conic:
    """`conic_from_class` by classifying every pair it tries.

    The candidates are +-prod(S) <= bound for subsets S of the odd primes of
    the class, 2, 3, 5, 7, 11 and 13, in height order (positive first); for
    each new value v_n the pairs (v_i, v_n) and (v_n, v_i), i <= n, are
    classified in turn and the first one with class `cls` is returned.
    """
    primes = sorted({v.p for v in cls.places if not v.is_real} | {2, 3, 5, 7, 11, 13})
    values = []
    for size in range(len(primes) + 1):
        for combo in combinations(primes, size):
            v = math.prod(combo)
            if v <= bound:
                values += [v, -v]
    values.sort(key=lambda v: (abs(v), v < 0))
    for n, vn in enumerate(values):
        for vi in values[: n + 1]:
            for a, b in [(vi, vn)] if vi == vn else [(vi, vn), (vn, vi)]:
                if brauer_class(Conic(a, b)) == cls:
                    return Conic(a, b)
    raise SearchBoundExceeded(f"no conic with coefficients <= {bound} realizes {cls}")
