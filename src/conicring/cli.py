"""Command-line front end.

Subcommands: classify, product, equal, stably-birational, reduce, ring-eval,
one row of `COMMANDS` each.  Every handler returns a JSON payload and the
text report; `main` prints one of them.
Input files are UTF-8; '#' starts a comment and blank lines are ignored.
Exit codes: 0 success (any verdict), 1 malformed input, 2 resource bound
exceeded.  Output is deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
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
from .errors import InvalidConic, ParseError, ResourceBoundExceeded, SearchBoundExceeded
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
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None


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
        values = [parse_rational(tok.group(), lineno, tok.start() + 1) for tok in tokens]
        try:
            conics.append(new_conic(values[0], values[1], factor_bound))
        except InvalidConic as exc:
            raise InvalidConic(f"line {lineno}: {exc}") from None
    return conics


def _class_json(cls: BrauerClass) -> list[str]:
    return [str(p) for p in cls.places]


def cmd_classify(args):
    conics, lines = [], []
    for conic in read_conics(args.path, args.factor_bound):
        cls = brauer_class(conic)
        point = rational_point(conic, args.search_bound) if cls.is_trivial else None
        conics.append({
            "a": conic.a,
            "b": conic.b,
            "class": _class_json(cls),
            "split": cls.is_trivial,
            "point": list(point) if point else None,
        })
        line = f"{conic}: class {cls}, {'split' if cls.is_trivial else 'non-split'}"
        if point:
            line += f", point ({point[0]}:{point[1]}:{point[2]})"
        lines.append(line)
    return {"conics": conics}, lines


def _representative(cls: BrauerClass, factors: list[Conic], search_bound: int) -> Conic:
    """`conic_from_class`, or else the first input factor whose class is `cls`."""
    try:
        return conic_from_class(cls, search_bound)
    except SearchBoundExceeded:
        found = next((c for c in factors if brauer_class(c) == cls), None)
        if found is None:
            raise
        return found


def cmd_product(args):
    factors = read_conics(args.path, args.factor_bound)
    m, group = canonical_of_product(ConicProduct(factors))
    reps = [_representative(cls, factors, args.search_bound) for cls in group.basis]
    basis_text = ", ".join(str(cls) for cls in group.basis)
    lines = [f"m={m}, dim G={group.dim}, basis [{basis_text}]"]
    lines += [f"representative {cls}: {rep.text_form()}" for cls, rep in zip(group.basis, reps)]
    return {
        "m": m,
        "dim": group.dim,
        "basis": [_class_json(cls) for cls in group.basis],
        "representatives": [[c.a, c.b] for c in reps],
    }, lines


def cmd_decide(args):
    """equal and stably-birational; their COMMANDS rows set args.decide and args.verdicts."""
    left = ConicProduct(read_conics(args.path_a, args.factor_bound))
    right = ConicProduct(read_conics(args.path_b, args.factor_bound))
    decision = args.decide(left, right)
    verdict = args.verdicts[0] if decision.equivalent else args.verdicts[1]
    detail = f"reason: {decision.reason}"
    if decision.reason.startswith("size"):
        detail += f" |A|={decision.size_left} |B|={decision.size_right}"
    if decision.witness is not None:
        detail += f" witness={decision.witness}"
    return {
        "verdict": verdict,
        "reason": decision.reason,
        "size_a": decision.size_left,
        "size_b": decision.size_right,
        "witness": _class_json(decision.witness) if decision.witness else None,
    }, [verdict, detail]


def cmd_reduce(args):
    classes = [brauer_class(c) for c in read_conics(args.path, args.factor_bound)]
    ops, basis = reduce_generators(classes)
    final = replay(classes, ops)
    expected = list(basis.basis) + [BrauerClass()] * (len(classes) - basis.dim)
    if final != expected:
        raise AssertionError("replayed script does not reach the canonical basis")
    lines = [f"e{k} = {cls}" for k, cls in enumerate(classes)]
    lines.append("script:")
    lines += [f"{op.j} += {op.i}  # C{op.j} <- C{op.i} * C{op.j}" for op in ops]
    lines.append("final:")
    lines += [f"e{k} = {cls}" for k, cls in enumerate(final)]
    return {
        "classes": [_class_json(c) for c in classes],
        "script": [{"target": op.j, "source": op.i} for op in ops],
        "dim": basis.dim,
        "final": [_class_json(c) for c in final],
    }, lines


def cmd_ring_eval(args):
    element = parse_ring_expression(_read_text(args.path), args.factor_bound)
    limit = sys.get_int_max_str_digits()
    # 10**limit exceeds 8**limit, so a coefficient of at most 3*limit bits is
    # below it; only a longer one pays for computing 10**limit.
    if limit and any(
        coeff.bit_length() > 3 * limit and abs(coeff) >= 10**limit for _, coeff in element.terms
    ):
        raise ResourceBoundExceeded(
            f"a coefficient of the result has more than {limit} digits, "
            f"Python's int-string limit"
        )
    terms = [{"coefficient": coeff, "basis": [_class_json(c) for c in term.group.basis],
              "lefschetz": term.lefschetz_power} for term, coeff in element.terms]
    return {"terms": terms}, [render_element(element)]


#: name -> (handler, positional inputs, what --search-bound bounds (None: no
#: bounded search, no flag), help, extra defaults for the handler)
COMMANDS = {
    "classify": (cmd_classify, ("path",),
                 "height of the rational point sought on each split conic",
                 "classify each conic in a file", {}),
    "product": (cmd_product, ("path",),
                "absolute value of the coefficients tried for each representative",
                "canonical form of a product of conics", {}),
    "equal": (cmd_decide, ("path_a", "path_b"), None,
              "decide equality of two products in the ring",
              {"decide": decide_equal_products, "verdicts": ("EQUAL", "NOT_EQUAL")}),
    "stably-birational": (cmd_decide, ("path_a", "path_b"), None,
                          "decide stable birationality of two products",
                          {"decide": decide_stably_birational,
                           "verdicts": ("STABLY_BIRATIONAL", "NOT_STABLY_BIRATIONAL")}),
    "reduce": (cmd_reduce, ("path",), None,
               "transvection script reducing conic classes to a basis", {}),
    "ring-eval": (cmd_ring_eval, ("path",), None,
                  "evaluate a ring expression to canonical form", {}),
}


def _positive_int(text: str) -> int:
    """The type of --factor-bound: trial division needs a bound of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicring",
        description="Exact computations with products of smooth conics over Q.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--factor-bound", type=_positive_int, default=DEFAULT_FACTOR_BOUND,
        help="trial-division bound for the input coefficients only (default %(default)s)",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, inputs, searched, help_text, defaults) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if searched:
            p.add_argument(
                "--search-bound", type=int, default=DEFAULT_SEARCH_BOUND,
                help=f"bound on the {searched} (default %(default)s)",
            )
        for dest in inputs:
            p.add_argument(dest)
        p.set_defaults(func=handler, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # argparse cannot tell whether an unknown option takes a value, so the
        # value may have been read as an input path and a path left over
        # (`equal --search-bound 5 a b`); name the unknown options only.
        unknown = [arg for arg in extras if arg.startswith("-")] or extras
        parser.error(f"{args.command}: unrecognized arguments: {' '.join(unknown)}")
    try:
        payload, lines = args.func(args)
    except (ParseError, InvalidConic, ResourceBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ResourceBoundExceeded) else 1
    if args.json:
        import json
        print(json.dumps({"command": args.command, **payload}, indent=2))
    else:
        for line in lines:
            print(line)
    return 0
