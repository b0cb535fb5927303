"""Command-line front end.

Subcommands: classify, product, equal, stably-birational, reduce, ring-eval.
Input files are UTF-8; '#' starts a comment and blank lines are ignored.
Exit codes: 0 success (any verdict), 1 malformed input, 2 resource bound
exceeded.  Output is deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .brauer import BrauerClass, reduce_generators, replay
from .conics import (
    DEFAULT_SEARCH_BOUND,
    Conic,
    brauer_class,
    conic_from_class,
    new_conic,
    rational_point,
)
from .errors import InvalidConic, ParseError, ResourceBoundExceeded
from .gring import (
    ConicProduct,
    canonical_of_product,
    decide_equal_products,
    decide_stably_birational,
    render_element,
)
from .numtheory import DEFAULT_FACTOR_BOUND, parse_rational
from .ringexpr import parse_ring_expression


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def read_conics(path: str, factor_bound: int) -> list[Conic]:
    """Parse a conic-per-line file: two whitespace-separated rationals."""
    conics = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = list(re.finditer(r"\S+", line))
        if len(tokens) != 2:
            raise ParseError(
                f"expected two rationals, got {len(tokens)} token(s)", lineno, 1
            )
        values = []
        for tok in tokens:
            try:
                values.append(parse_rational(tok.group()))
            except ParseError as exc:
                raise ParseError(str(exc), lineno, tok.start() + 1) from None
        try:
            conics.append(new_conic(values[0], values[1], factor_bound))
        except InvalidConic as exc:
            raise InvalidConic(f"line {lineno}: {exc}") from None
    return conics


def _class_json(cls: BrauerClass) -> list[str]:
    return [str(p) for p in cls.places]


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_classify(args) -> int:
    conics = read_conics(args.path, args.factor_bound)
    results = []
    for conic in conics:
        cls = brauer_class(conic)
        point = None if not cls.is_trivial else rational_point(conic, args.search_bound)
        results.append((conic, cls, point))
    if args.json:
        _print_json({
            "command": "classify",
            "conics": [
                {
                    "a": conic.a,
                    "b": conic.b,
                    "class": _class_json(cls),
                    "split": cls.is_trivial,
                    "point": list(point) if point else None,
                }
                for conic, cls, point in results
            ],
        })
    else:
        for conic, cls, point in results:
            verdict = "split" if cls.is_trivial else "non-split"
            line = f"{conic}: class {cls}, {verdict}"
            if point:
                line += f", point ({point[0]}:{point[1]}:{point[2]})"
            print(line)
    return 0


def cmd_product(args) -> int:
    conics = read_conics(args.path, args.factor_bound)
    m, group = canonical_of_product(ConicProduct(conics))
    reps = [conic_from_class(cls, args.search_bound) for cls in group.basis]
    if args.json:
        _print_json({
            "command": "product",
            "m": m,
            "dim": group.dim,
            "basis": [_class_json(cls) for cls in group.basis],
            "representatives": [[c.a, c.b] for c in reps],
        })
    else:
        basis_text = "[" + ", ".join(str(cls) for cls in group.basis) + "]"
        print(f"m={m}, dim G={group.dim}, basis {basis_text}")
        for cls, rep in zip(group.basis, reps):
            print(f"representative {cls}: {rep.text_form()}")
    return 0


def cmd_decide(args) -> int:
    """equal and stably-birational; each subparser sets args.decide and args.verdicts."""
    left = ConicProduct(read_conics(args.path_a, args.factor_bound))
    right = ConicProduct(read_conics(args.path_b, args.factor_bound))
    decision = args.decide(left, right)
    verdict = args.verdicts[0] if decision.equivalent else args.verdicts[1]
    if args.json:
        _print_json({
            "command": args.command,
            "verdict": verdict,
            "reason": decision.reason,
            "size_a": decision.size_left,
            "size_b": decision.size_right,
            "witness": _class_json(decision.witness) if decision.witness else None,
        })
    else:
        print(verdict)
        detail = f"reason: {decision.reason}"
        if decision.reason.startswith("size"):
            detail += f" |A|={decision.size_left} |B|={decision.size_right}"
        if decision.witness is not None:
            detail += f" witness={decision.witness}"
        print(detail)
    return 0


def cmd_reduce(args) -> int:
    conics = read_conics(args.path, args.factor_bound)
    classes = [brauer_class(c) for c in conics]
    ops, basis = reduce_generators(classes)
    final = replay(classes, ops)
    expected = list(basis.basis) + [BrauerClass()] * (len(classes) - basis.dim)
    if final != expected:
        raise AssertionError("replayed script does not reach the canonical basis")
    if args.json:
        _print_json({
            "command": "reduce",
            "classes": [_class_json(c) for c in classes],
            "script": [{"target": op.j, "source": op.i} for op in ops],
            "dim": basis.dim,
            "final": [_class_json(c) for c in final],
        })
    else:
        for k, cls in enumerate(classes):
            print(f"e{k} = {cls}")
        print("script:")
        for op in ops:
            print(f"{op.j} += {op.i}  # C{op.j} <- C{op.i} * C{op.j}")
        print("final:")
        for k, cls in enumerate(final):
            print(f"e{k} = {cls}")
    return 0


def cmd_ring_eval(args) -> int:
    element = parse_ring_expression(_read_text(args.path), args.factor_bound)
    if args.json:
        _print_json({
            "command": "ring-eval",
            "terms": [
                {
                    "coefficient": coeff,
                    "basis": [_class_json(cls) for cls in term.group.basis],
                    "lefschetz": term.lefschetz_power,
                }
                for term, coeff in element.terms
            ],
        })
    else:
        print(render_element(element))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicring",
        description="Exact computations with products of smooth conics over Q.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--factor-bound", type=int, default=DEFAULT_FACTOR_BOUND,
        help="trial-division bound for the input coefficients only (default %(default)s)",
    )
    common.add_argument(
        "--search-bound", type=int, default=DEFAULT_SEARCH_BOUND,
        help="height bound for discriminant/coefficient/point searches (default %(default)s)",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify each conic in a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("product", parents=[common],
                       help="canonical form of a product of conics")
    p.add_argument("path")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("equal", parents=[common],
                       help="decide equality of two products in the ring")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_decide, decide=decide_equal_products,
                   verdicts=("EQUAL", "NOT_EQUAL"))

    p = sub.add_parser("stably-birational", parents=[common],
                       help="decide stable birationality of two products")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_decide, decide=decide_stably_birational,
                   verdicts=("STABLY_BIRATIONAL", "NOT_STABLY_BIRATIONAL"))

    p = sub.add_parser("reduce", parents=[common],
                       help="transvection script reducing conic classes to a basis")
    p.add_argument("path")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("ring-eval", parents=[common],
                       help="evaluate a ring expression to canonical form")
    p.add_argument("path")
    p.set_defaults(func=cmd_ring_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidConic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
