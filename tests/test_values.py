"""The contract of the immutable value classes.

Each class compares equal by its fields, hashes as the tuple of its fields in
declaration order, prints as ``Name(field=value, ...)`` unless it has its own
repr, takes its fields as keywords, refuses assignment and deletion, and
survives copy, deepcopy and pickle.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from conicring import (
    BrauerClass,
    Conic,
    ConicProduct,
    Decision,
    Place,
    ProjPoint,
    QuadExtElem,
    RingElement,
    Subgroup,
    Term,
    TransvectionOp,
)
from conicring.ringexpr import _Token

P2, P3, INF = Place(2), Place(3), Place(None)
CLS = BrauerClass([INF, P2])
GROUP = Subgroup([CLS])
TERM = Term(GROUP, 2)


def generated_repr(name, fields):
    return name + "(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"


#: id -> (the object, an equal object built apart, an unequal object of the same
#: class, its fields in declaration order, its repr, or None for the generated one)
CASES = {
    "Place": (P3, Place(3), P2, {"p": 3}, "Place(3)"),
    "BrauerClass": (CLS, BrauerClass([P2, INF]), BrauerClass([P3, INF]),
                    {"places": (P2, INF)}, "BrauerClass({2,inf})"),
    "Subgroup": (GROUP, Subgroup([BrauerClass([P2, INF])]), Subgroup(),
                 {"basis": (CLS,)}, "Subgroup(<{2,inf}>)"),
    "TransvectionOp": (TransvectionOp(0, 1), TransvectionOp(0, 1), TransvectionOp(1, 0),
                       {"i": 0, "j": 1}, None),
    "Conic": (Conic(-1, 3), Conic(-1, 3), Conic(3, -1), {"a": -1, "b": 3}, None),
    "QuadExtElem": (QuadExtElem(2, 1, 3), QuadExtElem(2, Fraction(2, 2), 3),
                    QuadExtElem(3, 1, 3),
                    {"d": 2, "u": Fraction(1), "v": Fraction(3)}, None),
    "Term": (TERM, Term(Subgroup([CLS]), 2), Term(GROUP, 1),
             {"group": GROUP, "lefschetz_power": 2}, None),
    "RingElement": (RingElement({TERM: 3}), RingElement([(TERM, 1), (TERM, 2)]),
                    RingElement({TERM: -3}), {"terms": ((TERM, 3),)}, None),
    "ConicProduct": (ConicProduct([Conic(-1, 3)]), ConicProduct((Conic(-1, 3),)),
                     ConicProduct(), {"factors": (Conic(-1, 3),)}, None),
    "Decision": (Decision(False, "span-mismatch", 1, 2, CLS),
                 Decision(False, "span-mismatch", 1, 2, BrauerClass([INF, P2])),
                 Decision(False, "span-mismatch", 1, 2),
                 {"equivalent": False, "reason": "span-mismatch", "size_left": 1,
                  "size_right": 2, "witness": CLS}, None),
    "_Token": (_Token("number", "12", 1, 3), _Token("number", "12", 1, 3),
               _Token("number", "12", 1, 4),
               {"kind": "number", "text": "12", "line": 1, "column": 3}, None),
}
HASHABLE = sorted(CASES)

POINT = ProjPoint((1, 0, 1))


class Other:
    """Stands for any object of another class."""


@pytest.mark.parametrize("name", HASHABLE)
class TestHashableValues:
    def test_equality(self, name):
        x, same, different, _, _ = CASES[name]
        assert x == same and not x != same
        assert x != different and not x == different
        assert x.__eq__(Other()) is NotImplemented
        assert x != Other()

    def test_fields_and_hash(self, name):
        x, same, _, fields, _ = CASES[name]
        assert tuple(getattr(x, k) for k in fields) == tuple(fields.values())
        assert hash(x) == hash(tuple(fields.values())) == hash(same)
        assert hash(x) == hash(x)

    def test_repr(self, name):
        x, _, _, fields, expected = CASES[name]
        assert repr(x) == (expected or generated_repr(type(x).__qualname__, fields))

    def test_keyword_construction(self, name):
        x, _, _, fields, _ = CASES[name]
        assert type(x)(**fields) == x

    def test_frozen(self, name):
        x, _, _, fields, _ = CASES[name]
        field = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(x, field, fields[field])
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert getattr(x, field) == fields[field]

    def test_copy_deepcopy_pickle(self, name):
        x = CASES[name][0]
        for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(clone) is type(x)
            assert clone == x and hash(clone) == hash(x)
            assert repr(clone) == repr(x)


def test_decision_witness_defaults_to_none():
    decision = Decision(equivalent=True, reason="span-match", size_left=1, size_right=1)
    assert decision.witness is None
    assert decision == Decision(True, "span-match", 1, 1, witness=None)


class TestProjPoint:
    def test_projective_equality(self):
        assert POINT == ProjPoint((2, 0, 2)) and not POINT != ProjPoint((-1, 0, -1))
        assert POINT != ProjPoint((1, 1, 0))
        assert POINT.__eq__(Other()) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(POINT)

    def test_repr_and_keyword_construction(self):
        coords = tuple(QuadExtElem(1, c) for c in (1, 0, 1))
        assert POINT.coords == coords
        assert repr(POINT) == generated_repr("ProjPoint", {"coords": coords})
        assert ProjPoint(coords=(1, 0, 1)) == POINT

    def test_frozen(self):
        with pytest.raises(AttributeError):
            POINT.coords = ()
        with pytest.raises(AttributeError):
            del POINT.coords

    def test_copy_deepcopy_pickle(self):
        for clone in (copy.copy(POINT), copy.deepcopy(POINT), pickle.loads(pickle.dumps(POINT))):
            assert type(clone) is ProjPoint
            assert clone == POINT and clone.coords == POINT.coords


class TestTrusted:
    """`Value._trusted` builds an instance without running `__init__`."""

    def test_equal_to_the_checked_instance(self):
        built = Subgroup._trusted((BrauerClass._trusted((P2, INF)),))
        assert built == GROUP and hash(built) == hash(GROUP) and repr(built) == repr(GROUP)
        assert Place._trusted(3) == P3

    def test_skips_the_checks(self):
        with pytest.raises(ValueError):
            Place(4)
        assert Place._trusted(4).p == 4

    def test_called_only_where_fields_are_valid_by_construction(self):
        """Places from `factor`'s primes and classes from `_rref`'s rows; nowhere else."""
        package = Path(__file__).resolve().parents[1] / "src" / "conicring"
        callers = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_trusted"):
                    callers.add(path.name)
        assert {"numtheory.py", "brauer.py"} <= callers <= {"value.py", "numtheory.py", "brauer.py"}
