#!/usr/bin/env python3
"""Random survey of products of conics.

Draws random products, puts each in normal form along two independent routes
(direct span computation vs. replaying the transvection script with Brauer
product substitutions), and tabulates how often random pairs of products are
equal in the ring, stably birational, or neither.

Usage: python3 scripts/survey_products.py --trials 200 --seed 7
"""

from __future__ import annotations

import argparse
from collections import Counter
from fractions import Fraction
from random import Random

from conicring import (
    BrauerClass,
    ConicProduct,
    brauer_class,
    brauer_product,
    canonical_of_product,
    decide_equal_products,
    decide_stably_birational,
    new_conic,
    reduce_generators,
)


def random_product(rng: Random, args: argparse.Namespace) -> ConicProduct:
    def coeff():
        value = 0
        while value == 0:
            value = rng.randint(-args.height, args.height)
        return Fraction(value)

    size = rng.randint(0, args.max_factors)
    return ConicProduct(new_conic(coeff(), coeff()) for _ in range(size))


def cross_check_normal_form(product: ConicProduct) -> tuple[int, int]:
    m, group = canonical_of_product(product)
    classes = [brauer_class(c) for c in product.factors]
    ops, basis = reduce_generators(classes)
    rewritten = list(product.factors)
    for op in ops:
        rewritten[op.j] = brauer_product(rewritten[op.i], rewritten[op.j])
    final = [brauer_class(c) for c in rewritten]
    expected = list(basis.basis) + [BrauerClass()] * (len(classes) - basis.dim)
    if final != expected or (m, group) != (len(classes) - basis.dim, basis):
        raise AssertionError(f"route mismatch for {product}")
    return m, group.dim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--max-factors", type=int, default=5)
    parser.add_argument("--height", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = Random(args.seed)

    shapes = Counter()
    verdicts = Counter()
    for _ in range(args.trials):
        left = random_product(rng, args)
        right = random_product(rng, args)
        shapes[cross_check_normal_form(left)] += 1
        shapes[cross_check_normal_form(right)] += 1
        equal = decide_equal_products(left, right).equivalent
        stably = decide_stably_birational(left, right).equivalent
        if equal:
            verdicts["equal"] += 1
        elif stably:
            verdicts["stably birational only"] += 1
        else:
            verdicts["distinct"] += 1

    print(f"{2 * args.trials} products, factors <= {args.max_factors}, "
          f"height <= {args.height}, seed {args.seed}")
    print("\nnormal forms (m, dim G):")
    for (m, dim), count in sorted(shapes.items()):
        print(f"  m={m} dim={dim}: {count}")
    print("\npairwise verdicts:")
    for verdict, count in verdicts.most_common():
        print(f"  {verdict}: {count}")
    print("\nboth normal-form routes agreed on every product")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
