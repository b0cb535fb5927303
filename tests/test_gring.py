import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conicring import (
    IDENTITY_TERM,
    TRIVIAL_SUBGROUP,
    BrauerClass,
    ConicProduct,
    RingElement,
    Term,
    ZeroElement,
    brauer_class,
    brauer_product,
    canonical_of_product,
    decide_equal_products,
    decide_stably_birational,
    from_conic_product,
    leading_term,
    new_conic,
    power_coefficient_check,
    reduce_generators,
    render_element,
    replay,
    span,
    term_mul,
)

from conftest import ring_elements, subgroups

C_SPLIT = new_conic(1, 1)
C_II = new_conic(-1, -1)
C_I3 = new_conic(-1, 3)
G_II = span([brauer_class(C_II)])
G_I3 = span([brauer_class(C_I3)])

P1 = RingElement.lefschetz(1)


def element_of(*conics) -> RingElement:
    return from_conic_product(ConicProduct(conics))


class TestTermProduct:
    def test_identity(self):
        t = Term(G_II, 2)
        assert term_mul(t, IDENTITY_TERM) == t

    def test_same_group_gains_lefschetz(self):
        assert term_mul(Term(G_II, 0), Term(G_II, 0)) == Term(G_II, G_II.dim)

    def test_independent_groups(self):
        t = term_mul(Term(G_II, 0), Term(G_I3, 0))
        assert t.group.dim == 2
        assert t.lefschetz_power == 0  # 0+0+1+1-2

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Term(TRIVIAL_SUBGROUP, -1)


class TestCanonicalOfProduct:
    def test_empty_product(self):
        assert canonical_of_product(ConicProduct()) == (0, TRIVIAL_SUBGROUP)

    def test_single_split_conic(self):
        m, g = canonical_of_product(ConicProduct([C_SPLIT]))
        assert (m, g) == (1, TRIVIAL_SUBGROUP)

    def test_repeated_conic(self):
        m, g = canonical_of_product(ConicProduct([C_II, C_II]))
        assert m == 1
        assert g == G_II

    def test_three_factors_rank_two(self):
        m, g = canonical_of_product(ConicProduct([C_II, C_II, C_I3]))
        assert m == 1
        assert g.dim == 2

    def test_single_term_element(self):
        x = element_of(C_II)
        assert x.terms == ((Term(G_II, 0), 1),)


class TestRingArithmetic:
    def test_additive_inverse(self):
        x = element_of(C_II, C_I3)
        assert (x + (-x)).is_zero

    def test_zero_identity(self):
        y = element_of(C_II)
        assert RingElement.zero() + y == y

    def test_integer_coefficients_combine(self):
        t = Term(G_II, 1)
        assert RingElement({t: 2}) + RingElement({t: -1}) == RingElement({t: 1})

    def test_zero_divisor(self):
        c = element_of(C_II)
        assert ((P1 - c) * c).is_zero
        assert not (P1 - c).is_zero

    def test_square_of_lefschetz_minus_conic(self):
        expanded = (P1 - element_of(C_II)) ** 2
        expected = RingElement({Term(TRIVIAL_SUBGROUP, 2): 1, Term(G_II, 1): -1})
        assert expanded == expected

    def test_pow_zero_is_one(self):
        assert element_of(C_II) ** 0 == RingElement.one()
        assert RingElement.zero() ** 0 == RingElement.one()

    def test_monomial_power(self):
        x = RingElement({Term(G_II, 1): 3})
        assert x ** 3 == RingElement({Term(G_II, 3 + 2 * G_II.dim): 27})

    @given(subgroups(), st.integers(0, 3), st.sampled_from([1, -1]), st.integers(0, 12))
    def test_one_term_power_matches_repeated_products(self, group, power, coeff, s):
        x = RingElement({Term(group, power): coeff})
        product = RingElement.one()
        for _ in range(s):
            product = product * x
        assert x ** s == product

    def test_huge_one_term_powers(self):
        assert P1 ** (10**20) == RingElement.lefschetz(10**20)
        assert (-element_of(C_II)) ** (10**8 + 1) == RingElement({Term(G_II, 10**8): -1})

    @given(ring_elements(), ring_elements(), ring_elements())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * RingElement.one() == x

    @given(ring_elements(), ring_elements())
    @settings(max_examples=60, deadline=None)
    def test_lefschetz_power_monotone(self, x, y):
        # every term of a product carries at least the sum of the input powers
        for tx, _ in x.terms:
            for ty, _ in y.terms:
                t = term_mul(tx, ty)
                assert t.lefschetz_power >= tx.lefschetz_power + ty.lefschetz_power


class TestLeadingTerm:
    def test_single_term(self):
        x = RingElement({Term(G_II, 2): -5})
        assert leading_term(x) == (Term(G_II, 2), -5)

    def test_trivial_group_dominates(self):
        x = P1 - element_of(C_II)
        assert leading_term(x) == (Term(TRIVIAL_SUBGROUP, 1), 1)

    def test_incomparable_groups_tie_break(self):
        x = RingElement({Term(G_II, 0): 1, Term(G_I3, 0): 1})
        # both dim 1 and inclusion-minimal; {2,3} < {2,inf} lexicographically
        assert leading_term(x) == (Term(G_I3, 0), 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            leading_term(RingElement.zero())


class TestPowerCoefficient:
    def test_single_term(self):
        x = RingElement({Term(G_II, 1): 2})
        for s in (1, 2, 3):
            assert power_coefficient_check(x, s)

    def test_lefschetz_minus_conic(self):
        assert power_coefficient_check(P1 - element_of(C_II), 2)

    def test_three_term_element(self):
        x = RingElement({
            Term(TRIVIAL_SUBGROUP, 0): 2,
            Term(G_II, 1): -3,
            Term(G_I3, 0): 1,
        })
        assert power_coefficient_check(x, 3)

    @given(ring_elements(), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_random_elements_never_nilpotent(self, x, s):
        if x.is_zero:
            return
        assert power_coefficient_check(x, s)
        assert not (x ** s).is_zero


class TestDecisions:
    def test_same_product(self):
        p = ConicProduct([C_II])
        decision = decide_equal_products(p, p)
        assert decision.equivalent
        assert decision.reason == "size-and-span-match"

    def test_square_equals_times_split(self):
        decision = decide_equal_products(
            ConicProduct([C_II, C_II]), ConicProduct([C_II, C_SPLIT])
        )
        assert decision.equivalent

    def test_distinct_classes_differ(self):
        decision = decide_equal_products(ConicProduct([C_II]), ConicProduct([C_I3]))
        assert not decision.equivalent
        assert decision.reason == "span-mismatch"
        assert decision.witness == brauer_class(C_II)

    def test_size_mismatch(self):
        decision = decide_equal_products(
            ConicProduct([C_II]), ConicProduct([C_II, C_II])
        )
        assert not decision.equivalent
        assert decision.reason == "size-mismatch"
        assert (decision.size_left, decision.size_right) == (1, 2)

    def test_stably_birational_ignores_size(self):
        decision = decide_stably_birational(
            ConicProduct([C_II]), ConicProduct([C_II, C_II, C_II])
        )
        assert decision.equivalent

    def test_empty_vs_split(self):
        decision = decide_stably_birational(ConicProduct(), ConicProduct([C_SPLIT]))
        assert decision.equivalent

    def test_not_stably_birational(self):
        decision = decide_stably_birational(ConicProduct([C_II]), ConicProduct([C_I3]))
        assert not decision.equivalent
        assert decision.witness is not None

    @given(st.lists(st.sampled_from([C_SPLIT, C_II, C_I3, new_conic(-1, -3)]), max_size=4),
           st.lists(st.sampled_from([C_SPLIT, C_II, C_I3, new_conic(-1, -3)]), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_equal_iff_same_normal_form(self, xs, ys):
        a, b = ConicProduct(xs), ConicProduct(ys)
        structural = from_conic_product(a) == from_conic_product(b)
        assert decide_equal_products(a, b).equivalent == structural


class TestTwoRouteOracle:
    @given(st.lists(st.sampled_from([C_SPLIT, C_II, C_I3, new_conic(-1, -3),
                                     new_conic(-2, 5)]), max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_transvection_route_matches(self, factors):
        product = ConicProduct(factors)
        m, group = canonical_of_product(product)

        classes = [brauer_class(c) for c in factors]
        ops, basis = reduce_generators(classes)
        rewritten = list(factors)
        for op in ops:
            rewritten[op.j] = brauer_product(rewritten[op.i], rewritten[op.j])
        final_classes = [brauer_class(c) for c in rewritten]
        assert final_classes == replay(classes, ops)
        padding = [BrauerClass()] * (len(factors) - basis.dim)
        assert final_classes == list(basis.basis) + padding
        assert (m, group) == (len(factors) - basis.dim, basis)


class TestRendering:
    def test_zero(self):
        assert render_element(RingElement.zero()) == "0"

    def test_identity(self):
        assert render_element(RingElement.one()) == "C(0)"

    def test_single_class(self):
        assert render_element(element_of(C_II)) == "C({2,inf})"

    def test_mixed_signs_and_coefficients(self):
        x = RingElement({
            Term(TRIVIAL_SUBGROUP, 2): 1,
            Term(G_II, 1): -2,
        })
        assert render_element(x) == "C(0)[L]^2 - 2*C({2,inf})[L]^1"

    def test_leading_negative(self):
        x = RingElement({Term(G_II, 0): -1})
        assert render_element(x) == "-C({2,inf})"

    def test_two_class_basis(self):
        g = span([brauer_class(C_II), brauer_class(C_I3)])
        assert render_element(RingElement({Term(g, 0): 1})) == "C({2,inf},{3,inf})"
