#!/usr/bin/env python3
"""Atlas of conic classes at small height.

Enumerates all conics with squarefree coefficients up to a height bound,
classifies them, and prints one row per Brauer class: how many presentations
hit it, its smallest representative, and a rational point when split.

Usage: python3 scripts/class_atlas.py --height 12
"""

from __future__ import annotations

import argparse
from collections import defaultdict

from conicring import Conic, brauer_class, rational_point, squarefree_part


def squarefree_values(height: int) -> list[int]:
    return [v for n in range(1, height + 1) if squarefree_part(n) == n for v in (n, -n)]


def build_atlas(height: int) -> dict:
    atlas = defaultdict(list)
    for a in squarefree_values(height):
        for b in squarefree_values(height):
            conic = Conic(a, b)
            atlas[brauer_class(conic)].append(conic)
    return atlas


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--height", type=int, default=10)
    parser.add_argument("--no-points", action="store_true")
    args = parser.parse_args()

    atlas = build_atlas(args.height)
    classes = sorted(atlas, key=lambda c: (len(c.places), c.places))
    total = sum(len(v) for v in atlas.values())
    print(f"{total} conics of height <= {args.height}, {len(classes)} classes\n")
    print(f"{'class':<18}{'count':>6}  representative")
    for cls in classes:
        assert len(cls.places) % 2 == 0
        rep = min(atlas[cls], key=lambda c: (abs(c.a), abs(c.b), c.a, c.b))
        row = f"{str(cls):<18}{len(atlas[cls]):>6}  {rep.text_form()}"
        if not args.no_points and cls.is_trivial:
            x, y, z = rational_point(rep)
            row += f"   point ({x}:{y}:{z})"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
