"""Output checks that never call the code they check.

Places are ints for primes and `INF` for the real place; a Brauer class is
a frozenset of places.  Local solvability, F2 spans and the ring product are
computed here from first principles (brute force modulo 64, the Jacobi
symbol, bitmask row reduction), and `tests/oracles.py` is used read-only:
`span_dim` for product/reduce dimensions and `local_solvable` for the
representatives at the places where its p**3 grid stays small.

Every checker raises `WrongOutput` on the first mismatch.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple

INF = math.inf  # str(INF) == "inf", and it sorts after every prime

#: Largest prime at which `tests/oracles.local_solvable` is affordable: its
#: grid has p**6 entries.
ORACLE_MAX_PRIME = 7


class WrongOutput(Exception):
    """The program printed something other than the right answer."""


def odd_primes(n: int) -> frozenset[int]:
    """Odd primes dividing n, by trial division (small inputs only)."""
    n, out, d = abs(n), set(), 3
    while n % 2 == 0 and n:
        n //= 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 2
    if n > 1:
        out.add(n)
    return frozenset(out)


def is_squarefree(n: int) -> bool:
    n, d = abs(n), 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return n != 0


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def _two_adic(a: int, b: int) -> bool:
    """Primitive solution of x^2 = a y^2 + b z^2 modulo 64 (y or z odd)."""
    squares = {x * x % 64 for x in range(64)}
    return any(
        (a * y * y + b * z * z) % 64 in squares
        for y in range(64) for z in range(64) if (y | z) & 1
    )


def solvable(a: int, b: int, p) -> bool:
    """Whether x^2 = a y^2 + b z^2 has a nontrivial solution over Q_p (R for INF).

    a and b must be squarefree.  At p = 2 this searches for a primitive
    solution modulo 64, as the oracle does.  At an odd prime a primitive
    solution exists iff one exists modulo p^2, which comes down to whether
    the unit named below is a square mod p; that is decided by the Jacobi
    symbol (reciprocity, where the program uses Euler's criterion).
    """
    if p == INF:
        return a > 0 or b > 0
    if p == 2:
        return _two_adic(a % 64, b % 64)
    pa, pb = a % p == 0, b % p == 0
    if pa and pb:
        unit = -(a // p) * (b // p)
    elif pa:
        unit = b
    elif pb:
        unit = a
    else:
        return True
    return _jacobi(unit, p) == 1


def conic_class(a: int, b: int, primes=None) -> frozenset:
    """Ramification set of the squarefree conic (a, b).

    `primes`, when given, are the odd primes dividing a*b; otherwise they
    are found by trial division.
    """
    if primes is None:
        primes = odd_primes(a) | odd_primes(b)
    return frozenset(v for v in (2, INF, *primes) if not solvable(a, b, v))


def fmt_class(cls) -> str:
    return "{" + ",".join(str(p) for p in sorted(cls)) + "}"


def parse_class(text: str) -> frozenset:
    return frozenset(INF if t == "inf" else int(t) for t in text.split(",") if t)


# --- F2 spans on bitmasks -------------------------------------------------

def rref(rows) -> tuple[int, ...]:
    """Reduced echelon basis of the span; pivot = lowest bit, rows by pivot."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            if r & (b & -b):
                r ^= b
        if r:
            p = r & -r
            basis = [b ^ r if b & p else b for b in basis]
            basis.append(r)
    return tuple(sorted(basis, key=lambda b: b & -b))


class Places:
    """Bit index over a sorted set of places (bit i = i-th smallest)."""

    def __init__(self, places):
        self.order = sorted(set(places))
        self.index = {p: i for i, p in enumerate(self.order)}

    def bits(self, cls) -> int:
        return sum(1 << self.index[p] for p in cls)

    def places(self, bits: int) -> tuple:
        return tuple(p for i, p in enumerate(self.order) if bits >> i & 1)


def span_basis(classes) -> list[frozenset]:
    """Canonical basis of the span, as classes, in pivot order."""
    classes = list(classes)
    idx = Places(p for c in classes for p in c)
    return [frozenset(idx.places(r)) for r in rref(idx.bits(c) for c in classes)]


def same_span(xs, ys) -> bool:
    return span_basis(xs) == span_basis(ys)


def in_span(x, classes) -> bool:
    classes = list(classes)
    return span_basis(classes) == span_basis(classes + [x])


# --- oracle adapters ------------------------------------------------------

class _Place(NamedTuple):
    """Duck-typed stand-in for conicring.Place as the oracle reads it."""

    p: int | None
    is_real: bool


def oracle_solvable(oracles, a: int, b: int, p) -> bool:
    """`oracles.local_solvable`; a, b are reduced mod the oracle's modulus.

    The oracle only uses a and b modulo 64 (p = 2) or p**3, and they are
    squarefree, so the reduction keeps their valuations.
    """
    if p == INF:
        return oracles.local_solvable(a, b, _Place(None, True))
    m = 64 if p == 2 else p ** 3
    return oracles.local_solvable(a % m, b % m, _Place(p, False))


def oracle_span_dim(oracles, classes) -> int:
    def to_oracle(cls):
        return oracles.BrauerClass(
            oracles.Place(None if p == INF else p) for p in cls
        )
    return oracles.span_dim([to_oracle(c) for c in classes])


# --- ring arithmetic ------------------------------------------------------

class Ring:
    """The ring of terms C(G)[L]^m over a fixed place universe.

    An element is a dict {(rref rows, m): coefficient}; zero coefficients
    are dropped.  This is an independent model of the product rule, used
    only to predict `ring-eval` output.
    """

    def __init__(self, places):
        self.idx = Places(places)
        self._join: dict = {}

    def literal(self, classes) -> dict:
        rows = rref(self.idx.bits(c) for c in classes)
        return {(rows, len(classes) - len(rows)): 1}

    @staticmethod
    def const(k: int) -> dict:
        return {((), 0): k} if k else {}

    @staticmethod
    def lefschetz() -> dict:
        return {((), 1): 1}

    @staticmethod
    def add(x: dict, y: dict, sign: int = 1) -> dict:
        out = dict(x)
        for t, c in y.items():
            out[t] = out.get(t, 0) + sign * c
        return {t: c for t, c in out.items() if c}

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for (g1, m1), c1 in x.items():
            for (g2, m2), c2 in y.items():
                key = (g1, g2)
                g = self._join.get(key)
                if g is None:
                    g = self._join[key] = rref(g1 + g2)
                t = (g, m1 + m2 + len(g1) + len(g2) - len(g))
                out[t] = out.get(t, 0) + c1 * c2
        return {t: c for t, c in out.items() if c}

    def pow(self, x: dict, e: int) -> dict:
        result = self.const(1)
        for _ in range(e):
            result = self.mul(result, x)
        return result

    def render(self, x: dict) -> str:
        """The program's canonical text form: terms by (dim, basis, m)."""
        def key(tc):
            (rows, m), _ = tc
            return (len(rows), tuple(self.idx.places(r) for r in rows), m)

        parts = []
        for k, ((rows, m), c) in enumerate(sorted(x.items(), key=key)):
            body = "C(" + ",".join(fmt_class(self.idx.places(r)) for r in rows) + ")"
            if not rows:
                body = "C(0)"
            if m:
                body += f"[L]^{m}"
            mag = body if abs(c) == 1 else f"{abs(c)}*{body}"
            if k == 0:
                parts.append(mag if c > 0 else "-" + mag)
            else:
                parts.append((" + " if c > 0 else " - ") + mag)
        return "".join(parts) or "0"


# --- per-subcommand checkers ----------------------------------------------

_CLASSIFY = re.compile(
    r"Conic\((-?\d+),(-?\d+)\): class \{([^}]*)\}, (split|non-split)"
    r"(?:, point \((-?\d+):(-?\d+):(-?\d+)\))?"
)
_PRODUCT = re.compile(r"m=(\d+), dim G=(\d+), basis \[(.*)\]")
_REP = re.compile(r"representative \{([^}]*)\}: (-?\d+) (-?\d+)")
_SCRIPT = re.compile(r"(\d+) \+= (\d+)  # C\1 <- C\2 \* C\1")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def check_classify(expect, out: str, oracles) -> None:
    """expect: (search bound, [(a, b, class)]) with a, b squarefree."""
    bound, conics = expect
    lines = out.splitlines()
    _require(len(lines) == len(conics), f"{len(lines)} lines for {len(conics)} conics")
    for line, (a, b, cls) in zip(lines, conics):
        m = _CLASSIFY.fullmatch(line)
        _require(m is not None, f"unparsable line {line!r}")
        _require((int(m[1]), int(m[2])) == (a, b), f"{line!r}: expected Conic({a},{b})")
        _require(parse_class(m[3]) == cls, f"{line!r}: expected class {fmt_class(cls)}")
        _require((m[4] == "split") == (not cls), f"{line!r}: wrong verdict")
        if not cls:
            _require(m[5] is not None, f"{line!r}: split conic without a point")
            x1, x2, x3 = int(m[5]), int(m[6]), int(m[7])
            _require(x1 * x1 - a * x2 * x2 - b * x3 * x3 == 0, f"{line!r}: point off the conic")
            _require(math.gcd(x1, x2, x3) == 1, f"{line!r}: point not primitive")
            _require(max(abs(x1), abs(x2), abs(x3)) <= bound, f"{line!r}: point above the bound")
        else:
            _require(m[5] is None, f"{line!r}: point on a non-split conic")


def _check_representative(cls, a: int, b: int, oracles, line: str) -> None:
    _require(is_squarefree(a) and is_squarefree(b), f"{line!r}: not squarefree")
    for v in {2, INF} | odd_primes(a) | odd_primes(b) | set(cls):
        if v == INF or v <= ORACLE_MAX_PRIME:
            ok = oracle_solvable(oracles, a, b, v)
        else:
            ok = solvable(a, b, v)
        _require(ok != (v in cls), f"{line!r}: local solvability at {v} contradicts the class")


def check_product(expect, out: str, oracles) -> None:
    """expect: classes of the factors."""
    classes = expect
    lines = out.splitlines()
    _require(bool(lines), "no output")
    m = _PRODUCT.fullmatch(lines[0])
    _require(m is not None, f"unparsable line {lines[0]!r}")
    mult, dim = int(m[1]), int(m[2])
    basis = [parse_class(t) for t in re.findall(r"\{([^}]*)\}", m[3])]
    _require(mult + dim == len(classes), f"m + dim G = {mult + dim}, {len(classes)} factors")
    _require(dim == oracle_span_dim(oracles, classes), "dim G disagrees with oracles.span_dim")
    _require(len(basis) == dim and span_basis(basis) == span_basis(classes),
             "basis does not span the factors' classes")
    reps = lines[1:]
    _require(len(reps) == dim, f"{len(reps)} representatives for dim {dim}")
    for line, cls in zip(reps, basis):
        r = _REP.fullmatch(line)
        _require(r is not None and parse_class(r[1]) == cls, f"unparsable line {line!r}")
        _check_representative(cls, int(r[2]), int(r[3]), oracles, line)


def check_reduce(expect, out: str, oracles) -> None:
    """expect: classes of the factors."""
    classes = expect
    lines = out.splitlines()
    n = len(classes)
    _require(len(lines) >= 2 * n + 2, "output too short")
    head, tail = lines[:n], lines[-n:]
    for k, (line, cls) in enumerate(zip(head, classes)):
        _require(line == f"e{k} = {fmt_class(cls)}", f"{line!r}: expected class {fmt_class(cls)}")
    _require(lines[n] == "script:" and lines[-n - 1] == "final:", "missing script/final header")
    state = list(classes)
    for line in lines[n + 1:-n - 1]:
        s = _SCRIPT.fullmatch(line)
        _require(s is not None, f"unparsable script line {line!r}")
        j, i = int(s[1]), int(s[2])
        _require(i != j and i < n and j < n, f"{line!r}: bad indices")
        state[j] = state[i] ^ state[j]
    final = []
    for k, line in enumerate(tail):
        _require(line.startswith(f"e{k} = {{") and line.endswith("}"), f"unparsable line {line!r}")
        final.append(parse_class(line[len(f"e{k} = {{"):-1]))
    _require(final == state, "replaying the script does not give the final classes")
    dim = sum(1 for c in final if c)
    _require(all(final[:dim]) and not any(final[dim:]), "nonzero classes after a zero class")
    _require(dim == oracle_span_dim(oracles, classes), "dim G disagrees with oracles.span_dim")
    _require(span_basis(final[:dim]) == span_basis(classes), "final classes span another group")


def check_decision(expect, out: str, oracles) -> None:
    """expect: (command, classes of A, classes of B)."""
    command, left, right = expect
    lines = out.splitlines()
    _require(len(lines) == 2, "expected two lines")
    span_equal = same_span(left, right)
    n1, n2 = len(left), len(right)
    if command == "equal":
        if n1 != n2:
            verdict, reason = "NOT_EQUAL", "size-mismatch"
        elif span_equal:
            verdict, reason = "EQUAL", "size-and-span-match"
        else:
            verdict, reason = "NOT_EQUAL", "span-mismatch"
    else:
        verdict, reason = (
            ("STABLY_BIRATIONAL", "span-match") if span_equal
            else ("NOT_STABLY_BIRATIONAL", "span-mismatch")
        )
    _require(lines[0] == verdict, f"verdict {lines[0]!r}, expected {verdict!r}")
    detail = lines[1]
    if reason == "span-mismatch":
        prefix = "reason: span-mismatch witness={"
        _require(detail.startswith(prefix) and detail.endswith("}"), f"{detail!r}: no witness")
        w = parse_class(detail[len(prefix):-1])
        _require(in_span(w, left) != in_span(w, right), f"{detail!r}: witness in both or neither span")
    else:
        sizes = f" |A|={n1} |B|={n2}" if reason.startswith("size") else ""
        _require(detail == f"reason: {reason}{sizes}", f"{detail!r}: expected reason {reason!r}")


def check_ring(expect, out: str, oracles) -> None:
    """expect: the canonical text computed by `Ring`."""
    _require(out == expect + "\n", f"ring-eval printed {out.strip()!r}, expected {expect!r}")


CHECKERS = {
    "classify": check_classify,
    "product": check_product,
    "reduce": check_reduce,
    "decision": check_decision,
    "ring": check_ring,
}
