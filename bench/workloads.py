"""Seeded inputs for the four workloads.

Each workload is a list of fixed rows (today only `ring` has one) followed
by an endless, seeded stream of distinct ops.  Every op is meant to
succeed: inputs on which the program fails today are left out.  An op is one CLI invocation: an argv whose
file arguments were written here, plus what its output must show.  Nothing
here imports conicring; expected answers come from `checks`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

from checks import INF, Ring, conic_class, odd_primes, span_basis

CLASSIFY_SEARCH_BOUND = 25
PRODUCT_SEARCH_BOUND = 1000
RING_FACTOR_BOUND = 1000

#: |squarefree part| of the small coefficients in `classify`.  Every split
#: conic in this range has a point of height <= 17 < CLASSIFY_SEARCH_BOUND.
SMALL_RANGE = 24
#: Largest prime factor of the 8-12 digit coefficients; trial division
#: has to walk up to the second largest one.
LARGE_PRIME_LIMIT = 30_000


@dataclass
class Op:
    label: str    # subcommand, or "fixed:<row>" for a fixed row
    argv: list    # arguments after the program name
    kind: str     # key into checks.CHECKERS
    expect: object


class Files:
    """Writes each op's input files into one directory, numbered in order."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        path = self.root / f"in{self.count:06d}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(n) if sieve[p]]


PRIMES = _primes_below(LARGE_PRIME_LIMIT)
PRIMES_200 = [p for p in PRIMES if 2 < p < 200]
SMALL_SQUAREFREE = [
    s * v for v in range(1, SMALL_RANGE + 1)
    if all(v % (d * d) for d in range(2, v)) for s in (1, -1)
]


@dataclass(frozen=True)
class Coef:
    """A coefficient as written in a file, with its known square class."""

    text: str
    sqf: int
    primes: frozenset  # odd primes dividing sqf


def small_coef(rng: random.Random, s: int) -> Coef:
    """Write squarefree s as s, s*k^2 or s*k^2/l^2 (same square class)."""
    k, l = rng.randint(1, 4), rng.randint(2, 4)
    form = rng.random()
    if form < 0.5:
        text = str(s)
    elif form < 0.75:
        text = str(s * k * k)
    else:
        g = math.gcd(s * k * k, l * l)
        text = f"{s * k * k // g}/{l * l // g}" if l * l // g > 1 else str(s * k * k // g)
    return Coef(text, s, odd_primes(s))


def large_coef(rng: random.Random, digits: int) -> Coef:
    """A signed squarefree product of primes below LARGE_PRIME_LIMIT.

    Its magnitude lies in [5, 10) * 10**(digits - 1), a narrow range so
    that the cost of the program's checks on it varies little.
    """
    while True:
        n, primes = 1, set()
        while n < 5 * 10 ** (digits - 1):
            p = rng.choice(PRIMES) if rng.random() < 0.7 else rng.choice(PRIMES[:25])
            if p not in primes:
                n *= p
                primes.add(p)
        if n < 10 ** digits:
            break
    sign = rng.choice((1, -1))
    return Coef(str(sign * n), sign * n, frozenset(primes - {2}))


@dataclass(frozen=True)
class ConicSpec:
    a: Coef
    b: Coef

    @property
    def cls(self) -> frozenset:
        return conic_class(self.a.sqf, self.b.sqf, self.a.primes | self.b.primes)

    def line(self) -> str:
        return f"{self.a.text} {self.b.text}"

    def pair(self) -> str:
        return f"({self.a.text},{self.b.text})"

    def expect(self) -> tuple:
        return (self.a.sqf, self.b.sqf, self.cls)


def plain(a: int, b: int) -> ConicSpec:
    return ConicSpec(Coef(str(a), a, odd_primes(a)), Coef(str(b), b, odd_primes(b)))


# --- classify -------------------------------------------------------------

def classify_op(label: str, files: Files, conics: list[ConicSpec]) -> Op:
    path = files.write("".join(c.line() + "\n" for c in conics))
    return Op(
        label,
        ["classify", "--search-bound", str(CLASSIFY_SEARCH_BOUND), path],
        "classify",
        (CLASSIFY_SEARCH_BOUND, [c.expect() for c in conics]),
    )


def large_nonsplit(rng: random.Random, digits: int) -> ConicSpec:
    """A non-split conic with one `digits`-digit and one small coefficient.

    Split conics with such coefficients have points far above any search
    bound a run can afford, so only non-split ones are drawn.
    """
    while True:
        a = large_coef(rng, digits)
        b = small_coef(rng, rng.choice(SMALL_SQUAREFREE))
        c = ConicSpec(*rng.sample((a, b), 2))
        if c.cls:
            return c


def classify_stream(rng: random.Random, files: Files):
    """Each file: one small-coefficient conic and one 8-12 digit conic.

    The large coefficient's length cycles through 8..12 digits, so every
    five consecutive ops hold the same mix of sizes.  The small pairs are
    dealt from a shuffled deck of all pairs in SMALL_RANGE, so no small
    conic repeats before the deck runs out.
    """
    pairs = [(a, b) for a in SMALL_SQUAREFREE for b in SMALL_SQUAREFREE]
    rng.shuffle(pairs)
    for i in itertools.count():
        a, b = pairs[i % len(pairs)]
        conics = [ConicSpec(small_coef(rng, a), small_coef(rng, b)),
                  large_nonsplit(rng, 8 + i % 5)]
        rng.shuffle(conics)
        yield classify_op("classify", files, conics)


# --- ring -----------------------------------------------------------------

RING_PRIMES = (-1, 2, 3, 5, 7, 11, 13)
RING_PLACES = (2, 3, 5, 7, 11, 13, INF)


def ring_pools() -> list[list[ConicSpec]]:
    """Seven fixed pools of 6..12 small conics with distinct nontrivial classes.

    The classes live over {2..13, inf}, a 6-dimensional space, so pools of
    more than six generators are dependent and smaller ones often are.  The
    pools do not depend on the seed: every run shares the same conics, and
    the seed only picks the expressions.
    """
    rng = random.Random("ring-pools")
    values = sorted({
        math.prod(c) for r in (1, 2) for c in itertools.combinations(RING_PRIMES, r)
    })
    pools = []
    for size in range(6, 13):
        pool, seen = [], set()
        while len(pool) < size:
            c = ConicSpec(small_coef(rng, rng.choice(values)),
                          small_coef(rng, rng.choice(values)))
            if c.cls and c.cls not in seen:
                seen.add(c.cls)
                pool.append(c)
        pools.append(pool)
    return pools


def ring_op(label: str, files: Files, ring: Ring, text: str, value: dict) -> Op:
    path = files.write(text + "\n")
    return Op(label, ["ring-eval", "--factor-bound", str(RING_FACTOR_BOUND), path],
              "ring", ring.render(value))


def _literal(ring: Ring, conics: list[ConicSpec]):
    return "[" + ",".join(c.pair() for c in conics) + "]", ring.literal([c.cls for c in conics])


def ring_fixed(files: Files) -> list[Op]:
    gens = [plain(a, b) for a, b in
            ((-1, -1), (-1, 3), (2, 5), (-3, 7), (-1, 11), (5, 13), (-2, 17))]
    ring = Ring(p for c in gens for p in c.cls)
    value, parts = {}, []
    for c in gens:
        text, lit = _literal(ring, [c])
        parts.append(text)
        value = ring.add(value, lit)
    return [ring_op("fixed:7-gen^12", files, ring, "(" + " + ".join(parts) + ")^12",
                    ring.pow(value, 12))]


def ring_expression(rng: random.Random, ring: Ring, pool: list[ConicSpec], e: int):
    """(s1 +- s2 +- ...)^e: 2-4 summands of literals from the pool."""
    text, value = "", {}
    for k in range(rng.randint(2, 4)):
        lit_text, lit = _literal(ring, rng.sample(pool, rng.randint(1, 3)))
        r = rng.random()
        if r < 0.25:
            coef = rng.randint(2, 3)
            lit_text, lit = f"{coef}*{lit_text}", ring.mul(ring.const(coef), lit)
        elif r < 0.5:
            lit_text, lit = f"{lit_text}*P1", ring.mul(lit, ring.lefschetz())
        elif r < 0.65:
            t2, l2 = _literal(ring, rng.sample(pool, 1))
            lit_text, lit = f"{lit_text}*{t2}", ring.mul(lit, l2)
        sign = 1 if k == 0 or rng.random() < 0.7 else -1
        text += lit_text if k == 0 else (" + " if sign > 0 else " - ") + lit_text
        value = ring.add(value, lit, sign)
    return f"({text})^{e}", ring.pow(value, e)


def ring_stream(rng: random.Random, files: Files):
    """Op i draws from pool i mod 7 and raises to the power 2 + (i div 7) mod 5.

    So every 35 consecutive ops cover each pool size and exponent equally.
    """
    pools, ring = ring_pools(), Ring(RING_PLACES)
    seen = set()
    for i in itertools.count():
        while True:
            text, value = ring_expression(rng, ring, pools[i % 7], 2 + i // 7 % 5)
            if text not in seen:
                break
        seen.add(text)
        yield ring_op("ring-eval", files, ring, text, value)


# --- product / reduce / equal / stably-birational -------------------------

def product_coef(rng: random.Random) -> Coef:
    """+-(1 or 2) times one or two primes below 200."""
    v = math.prod(rng.sample(PRIMES_200, rng.choice((1, 1, 2))))
    v *= 2 if rng.random() < 0.3 else 1
    return small_coef(rng, rng.choice((1, -1)) * v)


def product_pool() -> list[ConicSpec]:
    """A fixed pool of conics over primes < 200 with 2- or 4-place classes.

    The pool does not depend on the seed: every run shares the same conics,
    and the seed only picks the files.
    """
    rng = random.Random("product-pool")
    pool = []
    while len(pool) < 100:
        c = ConicSpec(product_coef(rng), product_coef(rng))
        if len(c.cls) in (2, 4):
            pool.append(c)
    return pool


def conics_file(files: Files, conics: list[ConicSpec]) -> str:
    return files.write("".join(c.line() + "\n" for c in conics))


def product_op(label: str, files: Files, conics: list[ConicSpec]) -> Op:
    return Op(label, ["product", "--search-bound", str(PRODUCT_SEARCH_BOUND),
                      conics_file(files, conics)], "product", [c.cls for c in conics])


def _product_files(rng: random.Random, pool: list[ConicSpec]) -> list[ConicSpec]:
    """2-4 pool conics whose span's canonical basis has 2-place classes only.

    Representative searches for 4-place classes take seconds or fail, so
    they are left out.
    """
    while True:
        conics = rng.sample(pool, rng.randint(2, 4))
        if all(len(c) == 2 for c in span_basis(c.cls for c in conics)):
            return conics


#: Files in the fixed deck that `product` ops are dealt from: a little more
#: than a run's `product` ops at the seed commit.
PRODUCT_DECK = 480


def product_stream(rng: random.Random, files: Files, pool: list[ConicSpec]):
    """Equal shares of product, reduce, equal and stably-birational.

    Representative searches vary in cost by two orders of magnitude and
    depend on what earlier searches left in the class cache, so the
    `product` files come from a fixed deck of PRODUCT_DECK files in a fixed
    order, and every run works through nearly the same searches; the seed
    draws the other three subcommands' files.  Past the deck, `product`
    files are drawn afresh.
    """
    deck_rng = random.Random("product-deck")
    deck = [_product_files(deck_rng, pool) for _ in range(PRODUCT_DECK)]
    for i in itertools.count():
        kind = ("product", "reduce", "equal", "stably-birational")[i % 4]
        if kind == "product":
            conics = deck[i // 4] if i // 4 < len(deck) else _product_files(rng, pool)
            yield product_op("product", files, conics)
        elif kind == "reduce":
            conics = rng.sample(pool, rng.randint(3, 8))
            yield Op("reduce", ["reduce", conics_file(files, conics)], "reduce",
                     [c.cls for c in conics])
        else:
            left = rng.sample(pool, rng.randint(2, 6))
            r = rng.random()
            if r < 0.35:    # same span, same size
                right = rng.sample(left, len(left))
            elif r < 0.7:   # same span, one more factor
                right = rng.sample(left, len(left)) + [rng.choice(left)]
            else:
                right = rng.sample(pool, rng.randint(2, 6))
            yield Op(kind, [kind, conics_file(files, left), conics_file(files, right)],
                     "decision", (kind, [c.cls for c in left], [c.cls for c in right]))


# --- cold_cli -------------------------------------------------------------

def cold_stream(rng: random.Random, files: Files):
    """Every subcommand in turn on small fresh inputs (primes <= 13)."""
    pool, ring = ring_pools()[3], Ring(RING_PLACES)
    for i in itertools.count():
        kind = ("classify", "product", "equal", "stably-birational", "reduce", "ring-eval")[i % 6]
        if kind == "classify":
            conics = [ConicSpec(small_coef(rng, rng.choice(SMALL_SQUAREFREE[:16])),
                                small_coef(rng, rng.choice(SMALL_SQUAREFREE[:16])))
                      for _ in range(2)]
            yield classify_op(kind, files, conics)
        elif kind == "product":
            yield product_op(kind, files, _product_files(rng, pool))
        elif kind == "reduce":
            conics = rng.sample(pool, 3)
            yield Op(kind, [kind, conics_file(files, conics)], "reduce", [c.cls for c in conics])
        elif kind == "ring-eval":
            lit_text, lit = _literal(ring, rng.sample(pool, 2))
            text, value = f"({lit_text} + P1)^2", ring.pow(ring.add(lit, ring.lefschetz()), 2)
            yield ring_op(kind, files, ring, text, value)
        else:
            left = rng.sample(pool, 3)
            right = rng.sample(left, 3) if rng.random() < 0.5 else rng.sample(pool, 3)
            yield Op(kind, [kind, conics_file(files, left), conics_file(files, right)],
                     "decision", (kind, [c.cls for c in left], [c.cls for c in right]))


# --- registry -------------------------------------------------------------

def make_ops(workload: str, seed: int, root: Path):
    """(fixed rows, endless stream) for a workload; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    files = Files(root)
    if workload == "classify":
        return [], classify_stream(rng, files)
    if workload == "ring":
        return ring_fixed(files), ring_stream(rng, files)
    if workload == "product":
        return [], product_stream(rng, files, product_pool())
    if workload == "cold_cli":
        return [], cold_stream(rng, files)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str, root: Path) -> Op:
    """A tiny fixed op run once during set-up; never counted."""
    files = Files(root / "warmup")
    files.root.mkdir(parents=True, exist_ok=True)
    if workload == "ring":
        ring = Ring({2, INF})
        text, lit = _literal(ring, [plain(-1, -1)])
        return ring_op("warmup", files, ring, f"{text}^2", ring.pow(lit, 2))
    if workload == "product":
        return product_op("warmup", files, [plain(-1, -1)])
    return classify_op("warmup", files, [plain(1, 1), plain(-1, -1)])


WORKLOADS = ("classify", "ring", "product", "cold_cli")
