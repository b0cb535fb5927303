import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conicring import (
    SearchBoundExceeded,
    BrauerClass,
    Conic,
    InvalidConic,
    Place,
    ProjPoint,
    QuadExtElem,
    admits_rational_map,
    brauer_class,
    brauer_product,
    class_add,
    common_splitting_discriminant,
    conic_from_class,
    has_rational_point,
    is_isomorphic,
    new_conic,
    phi_forward,
    point_over_splitting_field,
    rational_point,
    rewrite_with_discriminant,
    sqrt_of,
)

from conicring.conics import _ramification, _ramified_masks, _symbol_masks
from conftest import conics, small_rationals
from oracles import brute_legendre, first_realizing_pair, local_solvable

C_SPLIT = new_conic(1, 1)
C_II = new_conic(-1, -1)
C_I3 = new_conic(-1, 3)


def oracle_class(conic):
    """Ramification set via the brute-force local solvability oracle."""
    places = [Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7), Place.real()]
    return BrauerClass(
        v for v in places if not local_solvable(conic.a, conic.b, v)
    )


class TestNewConic:
    def test_strips_squares(self):
        assert new_conic(4, 9) == Conic(1, 1)

    def test_clears_denominators(self):
        assert new_conic(Fraction(-1, 2), 3) == Conic(-2, 3)

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidConic):
            new_conic(0, 1)
        with pytest.raises(InvalidConic):
            new_conic(2, 0)


class TestClassification:
    def test_split_conic(self):
        assert brauer_class(C_SPLIT) == BrauerClass()

    def test_sum_of_three_squares(self):
        assert brauer_class(C_II) == oracle_class(C_II)
        assert str(brauer_class(C_II)) == "{2,inf}"

    def test_minus_one_three(self):
        assert brauer_class(C_I3) == oracle_class(C_I3)
        assert str(brauer_class(C_I3)) == "{2,3}"

    @given(conics)
    def test_even_ramification(self, conic):
        assert len(brauer_class(conic).places) % 2 == 0

    @given(conics, st.integers(-7, 7).filter(bool), st.integers(-7, 7).filter(bool))
    def test_square_class_invariant(self, conic, s, t):
        rescaled = new_conic(Fraction(conic.a) * s * s, Fraction(conic.b) * t * t)
        assert brauer_class(rescaled) == brauer_class(conic)

    @given(conics)
    def test_symbol_symmetry(self, conic):
        assert brauer_class(conic) == brauer_class(Conic(conic.b, conic.a))


class TestRationalPoints:
    def test_split_has_point(self):
        assert has_rational_point(C_SPLIT)

    def test_sum_of_squares_has_none(self):
        assert not has_rational_point(C_II)

    def test_witness_two_one_one(self):
        conic = new_conic(-1, 5)
        assert has_rational_point(conic)
        point = rational_point(conic)
        assert point == (2, 1, 1)
        assert 2 * 2 - conic.a * 1 - conic.b * 1 == 0

    def test_point_satisfies_equation(self):
        for conic in (C_SPLIT, new_conic(-1, 5), new_conic(2, 7)):
            if has_rational_point(conic):
                x, y, z = rational_point(conic)
                assert x * x - conic.a * y * y - conic.b * z * z == 0


class TestMaps:
    def test_isomorphic_reflexive(self):
        assert is_isomorphic(C_II, C_II)

    def test_different_classes_not_isomorphic(self):
        assert not is_isomorphic(C_II, C_I3)

    def test_split_conics_isomorphic(self):
        assert is_isomorphic(C_SPLIT, new_conic(1, 7))

    def test_map_to_self(self):
        assert admits_rational_map(C_II, C_II)

    def test_map_to_split(self):
        assert admits_rational_map(C_II, C_SPLIT)

    def test_no_map_between_distinct_nonsplit(self):
        assert not admits_rational_map(C_II, C_I3)

    @given(conics, conics)
    def test_mutual_maps_force_isomorphism(self, c1, c2):
        if admits_rational_map(c1, c2) and admits_rational_map(c2, c1):
            assert is_isomorphic(c1, c2) or (
                has_rational_point(c1) and has_rational_point(c2)
            )


def oracle_nonsquare(d, place):
    """Independent nonsquare test for squarefree d in a completion."""
    if place.is_real:
        return d < 0
    p = place.p
    if d % p == 0:
        return True
    if p == 2:
        return d % 8 not in {x * x % 8 for x in (1, 3, 5, 7)}
    return brute_legendre(d, p) == -1


class TestCommonSplittingDiscriminant:
    def test_both_split(self):
        assert common_splitting_discriminant(C_SPLIT, new_conic(1, 2)) == 1

    def test_minus_one(self):
        for v in (Place.real(), Place.finite(2), Place.finite(3)):
            assert oracle_nonsquare(-1, v)
        assert common_splitting_discriminant(C_II, C_I3) == -1
        assert common_splitting_discriminant(C_II, C_II) == -1

    def test_search_bound_below_smallest_discriminant(self):
        c1 = new_conic(2, 5)  # class {2,5}: -1 is a square at 5, so |d| >= 2
        assert common_splitting_discriminant(c1, C_SPLIT) == 2
        with pytest.raises(SearchBoundExceeded):
            common_splitting_discriminant(c1, C_SPLIT, search_bound=1)

    @given(conics, conics)
    @settings(max_examples=40)
    def test_splits_both(self, c1, c2):
        d = common_splitting_discriminant(c1, c2)
        for conic in (c1, c2):
            for v in brauer_class(conic).places:
                assert oracle_nonsquare(d, v)


class TestRewrite:
    def test_already_in_form(self):
        assert rewrite_with_discriminant(C_II, -1) == C_II

    def test_symbol_symmetry_case(self):
        assert rewrite_with_discriminant(new_conic(3, -1), -1) == C_I3

    def test_other_presentation(self):
        other = new_conic(6, 3)
        result = rewrite_with_discriminant(
            other, common_splitting_discriminant(other, other)
        )
        assert result.a == common_splitting_discriminant(other, other)
        assert brauer_class(result) == brauer_class(other)

    def test_rejects_non_splitting_discriminant(self):
        with pytest.raises(ValueError):
            rewrite_with_discriminant(C_II, 2)  # 2 is a square in R

    def test_rejects_unit_discriminant_for_nonsplit(self):
        with pytest.raises(ValueError):
            rewrite_with_discriminant(C_II, 1)


class TestBrauerProduct:
    def test_shared_first_coefficient(self):
        assert brauer_product(new_conic(5, 2), new_conic(5, 3)) == new_conic(5, 6)

    def test_square_is_split(self):
        for conic in (C_II, C_I3, new_conic(3, 5)):
            assert has_rational_point(brauer_product(conic, conic))

    def test_example_product(self):
        product = brauer_product(C_II, C_I3)
        assert product == Conic(-1, -3)
        assert str(brauer_class(product)) == "{3,inf}"
        assert brauer_class(product) == oracle_class(Conic(-1, -3))

    @given(conics, conics)
    @settings(max_examples=40, deadline=None)
    def test_class_additivity(self, c1, c2):
        # generous bound: classes over several large primes need |e| > 10^4
        product = brauer_product(c1, c2, search_bound=10**5)
        assert brauer_class(product) == class_add(brauer_class(c1), brauer_class(c2))

    def test_mandatory_primes_can_exhaust_default_bound(self):
        c1, c2 = Conic(-1085, -78), Conic(-418, 754)  # classes over 5,7,13,31 / 11,13,19,29
        with pytest.raises(SearchBoundExceeded):
            brauer_product(c1, c2)
        product = brauer_product(c1, c2, search_bound=10**5)
        assert brauer_class(product) == class_add(brauer_class(c1), brauer_class(c2))


PINNED_FACTORS = [Conic(a, b) for a in (-1, 2, -3) for b in (-1, 3, 5, -7)]

#: brauer_product(c1, c2) for c1 the key and c2 running over PINNED_FACTORS.
PINNED_PRODUCTS = {
    (-1, -1): [(-1, 1), (-1, -3), (-1, -5), (-1, 7), (-1, -1), (-1, -3), (-2, -5), (-1, -1), (-1, 3), (-1, -1), (-3, -10), (-1, 3)],
    (-1, 3): [(-1, -3), (-1, 1), (-1, 15), (-1, -21), (-1, 3), (-1, 1), (2, 15), (-1, 3), (-1, -1), (-1, 3), (2, 5), (-1, -1)],
    (-1, 5): [(-1, -5), (-1, 15), (-1, 1), (-1, -35), (1, 1), (-1, 3), (2, 5), (1, 1), (-1, -3), (1, 1), (2, 15), (-1, -3)],
    (-1, -7): [(-1, 7), (-1, -21), (-1, -35), (-1, 1), (-1, -7), (-1, -21), (-2, -35), (-1, -7), (-1, 21), (-1, -7), (-7, -15), (-1, 21)],
    (2, -1): [(-1, -1), (-1, 3), (1, 1), (-1, -7), (2, 1), (2, -3), (2, -5), (2, 7), (-1, -3), (1, 1), (2, 15), (-1, -3)],
    (2, 3): [(-1, -3), (-1, 1), (-1, 3), (-1, -21), (2, -3), (2, 1), (2, 15), (2, -21), (-1, -1), (-1, 3), (2, 5), (-1, -1)],
    (2, 5): [(-2, -5), (2, 15), (2, 5), (-2, -35), (2, -5), (2, 15), (2, 1), (2, -35), (-3, -10), (2, 5), (2, 3), (-3, -10)],
    (2, -7): [(-1, -1), (-1, 3), (1, 1), (-1, -7), (2, 7), (2, -21), (2, -35), (2, 1), (-1, -3), (1, 1), (2, 15), (-1, -3)],
    (-3, -1): [(-1, 3), (-1, -1), (-1, -3), (-1, 21), (-1, -3), (-1, -1), (-3, -10), (-1, -3), (-3, 1), (-3, -3), (-3, -5), (-3, 7)],
    (-3, 3): [(-1, -1), (-1, 3), (1, 1), (-1, -7), (1, 1), (-1, 3), (2, 5), (1, 1), (-3, -3), (-3, 1), (-3, 15), (-3, -21)],
    (-3, 5): [(-3, -10), (2, 5), (2, 15), (-7, -15), (2, 15), (2, 5), (2, 3), (2, 15), (-3, -5), (-3, 15), (-3, 1), (-3, -35)],
    (-3, -7): [(-1, 3), (-1, -1), (-1, -3), (-1, 21), (-1, -3), (-1, -1), (-3, -10), (-1, -3), (-3, 7), (-3, -21), (-3, -35), (-3, 1)],
}

#: conic_from_class of every even class over 2, 3, 5, 7 and inf.
PINNED_REPRESENTATIVES = {
    "": (1, 1),
    "2 3": (-1, 3),
    "2 5": (2, 5),
    "2 7": (-1, 7),
    "2 inf": (-1, -1),
    "3 5": (3, 5),
    "3 7": (3, -7),
    "3 inf": (-1, -3),
    "5 7": (5, 7),
    "5 inf": (-2, -5),
    "7 inf": (-1, -7),
    "2 3 5 7": (3, 35),
    "2 3 5 inf": (-3, -10),
    "2 3 7 inf": (-1, -21),
    "2 5 7 inf": (-2, -35),
    "3 5 7 inf": (-7, -15),
}


def _parse_class(text):
    return BrauerClass(Place(None if t == "inf" else int(t)) for t in text.split())


class TestPinnedSearches:
    """Exact results of the height-ordered searches, not just their classes."""

    def test_brauer_products(self):
        classes = {c: oracle_class(c) for c in PINNED_FACTORS}
        for c1 in PINNED_FACTORS:
            row = PINNED_PRODUCTS[(c1.a, c1.b)]
            for c2, (a, b) in zip(PINNED_FACTORS, row, strict=True):
                product = brauer_product(c1, c2)
                assert product == Conic(a, b), (c1, c2)
                assert oracle_class(product) == class_add(classes[c1], classes[c2])

    def test_representatives(self):
        assert len(PINNED_REPRESENTATIVES) == 16
        for text, (a, b) in PINNED_REPRESENTATIVES.items():
            cls = _parse_class(text)
            assert conic_from_class(cls) == Conic(a, b), text
            assert oracle_class(Conic(a, b)) == cls


class TestQuadExtElem:
    def test_rational_normalization(self):
        assert QuadExtElem(5, 3, 0) == QuadExtElem(1, 3)
        assert QuadExtElem(1, 2, 5) == QuadExtElem(1, 7)

    def test_sqrt_squares_to_d(self):
        root = sqrt_of(-2)
        assert root * root == QuadExtElem(1, -2)

    def test_mixed_discriminants_rejected(self):
        with pytest.raises(ValueError):
            sqrt_of(2) + sqrt_of(3)

    def test_rational_scalars_lift(self):
        elem = QuadExtElem(5, 1, 2)
        assert Fraction(1, 2) * elem == QuadExtElem(5, Fraction(1, 2), 1)
        assert elem + 1 == QuadExtElem(5, 2, 2)

    def test_ring_identities(self):
        x = QuadExtElem(7, Fraction(2, 3), -1)
        y = QuadExtElem(7, 5, Fraction(1, 2))
        z = QuadExtElem(7, -2, 3)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


class TestPhi:
    def test_rational_example(self):
        z1, z2, z3 = phi_forward(2, (3, 1, 1), (1, 1, 1))
        assert (z1, z2, z3) == (QuadExtElem(1, 5), QuadExtElem(1, 4), QuadExtElem(1, 1))
        # z1^2 - a z2^2 = (x1^2 - a x2^2)(y1^2 - a y2^2): 25 - 32 = 7 * (-1)
        assert 25 - 2 * 16 == (9 - 2) * (1 - 2)

    def test_segre_like_point(self):
        d = -1
        x = (sqrt_of(d), QuadExtElem(1, 1), QuadExtElem(1, 0))
        z = phi_forward(d, x, x)
        assert z[0] == QuadExtElem(1, 2 * d)
        assert z[1] == 2 * sqrt_of(d)
        assert z[2].is_zero
        assert (z[0] * z[0] - d * (z[1] * z[1])).is_zero

    def test_unit_like_second_factor(self):
        x = (QuadExtElem(3, 1, 2), QuadExtElem(3, 0, 1), QuadExtElem(1, 4))
        z = phi_forward(7, x, (1, 0, 1))
        assert z == x

    @given(small_rationals.filter(bool), *(small_rationals for _ in range(4)))
    def test_universal_identity_rational(self, a, x1, x2, y1, y2):
        z1, z2, _ = phi_forward(a, (x1, x2, 0), (y1, y2, 0))
        lhs = z1 * z1 - a * (z2 * z2)
        rhs = (x1 * x1 - a * x2 * x2) * (y1 * y1 - a * y2 * y2)
        assert lhs == QuadExtElem(1, rhs)

    def test_carries_product_points(self):
        # points on (d, b') x (d, c') land on the product conic (d, b'c')
        for c1, c2 in [(C_II, C_I3), (new_conic(2, 5), new_conic(-1, -2)),
                       (new_conic(-3, -1), new_conic(5, 2))]:
            d = common_splitting_discriminant(c1, c2)
            left = rewrite_with_discriminant(c1, d)
            right = rewrite_with_discriminant(c2, d)
            product = brauer_product(c1, c2)
            x = point_over_splitting_field(left).coords
            y = point_over_splitting_field(right).coords
            assert left.value_at(*x).is_zero
            assert right.value_at(*y).is_zero
            z = phi_forward(d, x, y)
            target = new_conic(d, Fraction(left.b) * Fraction(right.b))
            assert brauer_class(target) == brauer_class(product)
            assert target.value_at(*z).is_zero

    def test_carries_rational_points_with_nonzero_last_coordinate(self):
        c1, c2 = new_conic(-1, 2), new_conic(-1, 5)  # split, shared coefficient
        x = rational_point(c1)
        y = rational_point(c2)
        assert x[2] and y[2]
        z = phi_forward(-1, x, y)
        assert new_conic(-1, 10).value_at(*z).is_zero
        assert not z[2].is_zero

    @given(
        st.sampled_from([-1, 2, -2, 3, 5, -5]),
        *(st.integers(-4, 4) for _ in range(8)),
    )
    def test_universal_identity_quadratic(self, d, u1, v1, u2, v2, w1, s1, w2, s2):
        a = Fraction(d)  # also exercise a equal to the field discriminant
        x = (QuadExtElem(d, u1, v1), QuadExtElem(d, u2, v2), QuadExtElem(1, 0))
        y = (QuadExtElem(d, w1, s1), QuadExtElem(d, w2, s2), QuadExtElem(1, 0))
        z1, z2, _ = phi_forward(a, x, y)
        lhs = z1 * z1 - a * (z2 * z2)
        rhs = (x[0] * x[0] - a * (x[1] * x[1])) * (y[0] * y[0] - a * (y[1] * y[1]))
        assert lhs == rhs


class TestProjPoint:
    def test_scaling_gives_equal_points(self):
        assert ProjPoint((2, 4, 6)) == ProjPoint((1, 2, 3))
        assert ProjPoint((2, 4, 6)) != ProjPoint((1, 2, 4))

    def test_quadratic_scaling(self):
        root = sqrt_of(5)
        p = ProjPoint((root, 1, 0))
        q = ProjPoint((root * root, root, 0))  # scaled by sqrt(5)
        assert p == q

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((0, 0, 0))


class TestPointOverSplittingField:
    def test_nonsplit_gets_sqrt_point(self):
        point = point_over_splitting_field(C_II)
        assert point == ProjPoint((sqrt_of(-1), 1, 0))
        assert C_II.value_at(*point.coords).is_zero

    def test_nonsplit_other(self):
        point = point_over_splitting_field(C_I3)
        assert point == ProjPoint((sqrt_of(-1), 1, 0))
        assert C_I3.value_at(*point.coords).is_zero

    def test_split_gets_rational_point(self):
        assert point_over_splitting_field(C_SPLIT) == ProjPoint((1, 1, 0))


class TestConicFromClass:
    def test_trivial(self):
        assert conic_from_class(BrauerClass()) == Conic(1, 1)

    def test_two_inf(self):
        cls = BrauerClass([Place.finite(2), Place.real()])
        assert conic_from_class(cls) == Conic(-1, -1)
        assert brauer_class(Conic(-1, -1)) == cls

    def test_two_three(self):
        cls = BrauerClass([Place.finite(2), Place.finite(3)])
        assert conic_from_class(cls) == Conic(-1, 3)

    @given(conics)
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, conic):
        cls = brauer_class(conic)
        assert brauer_class(conic_from_class(cls, search_bound=10**5)) == cls


def _bench_product_classes():
    """Every basis class of the spans of the benchmark's `product` deck files."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
        from checks import INF, span_basis
    finally:
        sys.path.remove(str(bench))
    pool = workloads.product_pool()
    deck_rng = random.Random("product-deck")
    deck = [workloads._product_files(deck_rng, pool) for _ in range(workloads.PRODUCT_DECK)]
    classes = {frozenset(c) for f in deck for c in span_basis(c.cls for c in f)}
    return sorted(BrauerClass(Place(None if p == INF else p) for p in c) for c in classes)


class TestLocalSymbolFilter:
    """conic_from_class against the classify-every-pair reference search."""

    def test_every_even_class_over_small_places(self):
        places = [Place.finite(p) for p in (2, 3, 5, 7, 11, 13)] + [Place.real()]
        classes = [BrauerClass(c) for r in range(0, len(places) + 1, 2)
                   for c in itertools.combinations(places, r)]
        assert len(classes) == 64
        for cls in classes:
            assert conic_from_class(cls, 1000) == first_realizing_pair(cls, 1000), cls

    def test_bench_product_classes(self):
        classes = _bench_product_classes()
        assert len(classes) > 100
        for cls in classes:
            assert conic_from_class(cls, 1000) == first_realizing_pair(cls, 1000), cls

    def test_both_exceed_the_bound(self):
        cls = BrauerClass(Place.finite(p) for p in (101, 103, 107, 109))
        for search in (conic_from_class, first_realizing_pair):
            with pytest.raises(SearchBoundExceeded) as excinfo:
                search(cls, 1000)
            assert str(excinfo.value) == (
                "no conic with coefficients <= 1000 realizes {101,103,107,109}")

    def test_masks_match_classification(self):
        """Every pair of signed squarefree products over 2..19 up to 3000."""
        primes = (2, 3, 5, 7, 11, 13, 17, 19)
        values = sorted(
            s * math.prod(c) for r in range(len(primes) + 1)
            for c in itertools.combinations(primes, r) if math.prod(c) <= 3000
            for s in (1, -1)
        )
        assert len(values) ** 2 == 63504
        odd = list(primes[1:])
        real = 1 << len(odd)
        m3 = real | sum(1 << k for k, p in enumerate(odd) if p % 4 == 3)
        masks = _symbol_masks(values, odd)
        for b, b_masks in zip(values, masks):
            for a, got in zip(values, _ramified_masks(masks, b_masks, m3)):
                places = brauer_class(Conic(a, b)).places
                expected = sum(real if v.is_real else 1 << odd.index(v.p)
                               for v in places if v.p != 2)
                assert got == expected, (a, b)

    def test_one_class_cache_entry_per_search(self):
        cls = BrauerClass([Place.finite(2), Place.finite(1009)])
        before = _ramification.cache_info().currsize
        assert brauer_class(conic_from_class(cls)) == cls
        assert _ramification.cache_info().currsize - before <= 1
