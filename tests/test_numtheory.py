import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conicring import (
    FactorBoundExceeded,
    ParseError,
    Place,
    candidate_places,
    factor,
    hilbert_symbol,
    is_prime,
    legendre,
    parse_rational,
    squarefree_part,
)
from conicring.numtheory import _legendre

from conftest import nonzero_rationals
from oracles import brute_is_prime, brute_legendre, local_solvable


class TestFactor:
    def test_unit(self):
        assert factor(1, 10**6) == (1, {})
        assert factor(-1, 10**6) == (-1, {})

    def test_small(self):
        assert factor(-12, 10**6) == (-1, {2: 2, 3: 1})

    def test_primorial_multiplies_back(self):
        n = 2 * 3 * 5 * 7 * 11 * 13
        sign, factors = factor(n, 10**6)
        product = sign
        for p, e in factors.items():
            product *= p**e
        assert product == n
        assert factors == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1}

    def test_cofactor_within_bound_squared_is_prime(self):
        # 10007 is prime and 10007 <= 150**2, so trial division certifies it
        sign, factors = factor(10007 * 4, 150)
        assert (sign, factors) == (1, {2: 2, 10007: 1})

    def test_cofactor_beyond_bound_squared_fails(self):
        with pytest.raises(FactorBoundExceeded):
            factor(101 * 103, 10)
        with pytest.raises(FactorBoundExceeded):
            factor(97, 9)  # prime, but 97 > 9**2 is uncertified

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(0)


class TestSquarefreePart:
    @pytest.mark.parametrize(
        "value,expected",
        [(4, 1), (9, 1), (Fraction(-1, 2), -2), (Fraction(8, 3), 6), (-12, -3)],
    )
    def test_examples(self, value, expected):
        assert squarefree_part(value) == expected

    @given(nonzero_rationals, st.integers(-7, 7).filter(bool))
    def test_square_class_invariance(self, q, s):
        assert squarefree_part(q * s * s) == squarefree_part(q)


class TestLegendre:
    def test_square(self):
        assert legendre(1, 7) == 1

    def test_divisible(self):
        assert legendre(7, 7) == 0

    def test_three_mod_seven(self):
        # oracle: squares mod 7 are {1, 2, 4}, so 3 is a non-residue
        assert brute_legendre(3, 7) == -1
        assert legendre(3, 7) == -1

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_matches_oracle(self, p):
        for a in range(-p, 2 * p):
            assert legendre(a, p) == brute_legendre(a, p)

    def test_rejects_non_prime(self):
        for p in (1, 2, 9, 15):
            with pytest.raises(ValueError, match="not an odd prime"):
                legendre(3, p)

    def test_unchecked_matches_oracle_below_200(self):
        for p in range(3, 200, 2):
            if brute_is_prime(p):
                for a in range(p):
                    assert _legendre(a, p) == brute_legendre(a, p), (a, p)


PLACE_PRIMES = [2, 3, 5, 7, 11, 13, 97, 101, 10007]


class TestPlace:
    def test_order(self):
        places = [Place.real(), Place.finite(5), Place.finite(2), Place.finite(3)]
        assert sorted(places) == [
            Place.finite(2), Place.finite(3), Place.finite(5), Place.real(),
        ]

    def test_str(self):
        assert str(Place.finite(2)) == "2"
        assert str(Place.real()) == "inf"

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            Place.finite(6)

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    @given(st.sampled_from(PLACE_PRIMES + [None]), st.sampled_from(PLACE_PRIMES + [None]))
    def test_order_matches_key(self, p, q):
        x, y = Place(p), Place(q)
        kx, ky = (p is None, p or 0), (q is None, q or 0)
        assert (x < y) == (kx < ky)
        assert (x <= y) == (kx <= ky)


class TestIsPrime:
    def test_matches_oracle(self):
        for n in range(-5, 3001):
            assert is_prime(n) == brute_is_prime(n), n

    @pytest.mark.parametrize(
        "n,expected",
        [
            (10007, True),
            (1000003, True),
            (999999999989, True),
            (561, False),  # a Carmichael number
            (1009 * 1009, False),
            (1009 * 1013, False),
        ],
    )
    def test_fixed_cases(self, n, expected):
        assert is_prime(n) is expected


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [("-3/7", Fraction(-3, 7)), ("5", 5), ("+2/4", Fraction(1, 2)), ("0", 0)],
    )
    def test_good(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "1.5", "3/", "/2", "1/0", "a", "1 2", "1/-2"])
    def test_bad(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)


SMALL_VALUES = [1, -1, 2, -2, 3, -3, 5, -5]
SMALL_PLACES = [Place.finite(2), Place.finite(3), Place.finite(5), Place.real()]


class TestHilbertSymbol:
    def test_both_negative_at_real(self):
        assert hilbert_symbol(-1, -1, Place.real()) == -1

    def test_square_first_argument(self):
        for b in (2, -3, Fraction(5, 7)):
            for v in SMALL_PLACES:
                assert hilbert_symbol(1, b, v) == 1

    def test_minus_one_minus_one_locally(self):
        # oracle: x^2 + y^2 + z^2 = 0 has no primitive solution mod 64 and
        # a primitive solution mod p^3 for odd p
        assert local_solvable(-1, -1, Place.finite(2)) is False
        assert hilbert_symbol(-1, -1, Place.finite(2)) == -1
        for p in (3, 5, 7):
            assert local_solvable(-1, -1, Place.finite(p)) is True
            assert hilbert_symbol(-1, -1, Place.finite(p)) == 1

    def test_small_table_matches_oracle(self):
        for a in SMALL_VALUES:
            for b in SMALL_VALUES:
                for v in SMALL_PLACES:
                    want = 1 if local_solvable(a, b, v) else -1
                    assert hilbert_symbol(a, b, v) == want, (a, b, str(v))

    @given(nonzero_rationals, nonzero_rationals)
    def test_symmetry(self, a, b):
        for v in candidate_places(a, b):
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    @given(nonzero_rationals, nonzero_rationals, st.integers(-7, 7).filter(bool))
    def test_square_invariance(self, a, b, s):
        for v in candidate_places(a, b):
            assert hilbert_symbol(a * s * s, b, v) == hilbert_symbol(a, b, v)

    @given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
    def test_bimultiplicative(self, a1, a2, b):
        for v in candidate_places(a1 * a2 * b, b):
            left = hilbert_symbol(a1 * a2, b, v)
            assert left == hilbert_symbol(a1, b, v) * hilbert_symbol(a2, b, v)

    @given(nonzero_rationals, nonzero_rationals)
    def test_reciprocity(self, a, b):
        product = 1
        for v in candidate_places(a, b):
            product *= hilbert_symbol(a, b, v)
        assert product == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 1, Place.real())

    def test_exact_beyond_the_factor_bound(self):
        # N has two prime factors above 10^6, so trial division to the default
        # bound cannot factor it; the symbol needs only valuations and Legendre
        # symbols, so it is still exact.
        p, q = 1000003, 1000033
        n = p * q
        with pytest.raises(FactorBoundExceeded):
            factor(n)
        places = [Place.finite(r) for r in (2, 3, p, q)] + [Place.real()]
        for b in (3, -1):
            # N has valuation 1 at p and q, where b is a unit: the symbol is (b|p)
            assert hilbert_symbol(n, b, Place.finite(p)) == brute_legendre(b, p)
            assert hilbert_symbol(n, b, Place.finite(q)) == brute_legendre(b, q)
            # at 3, N is a unit: (N|3) when 3 divides b once, 1 when b is a unit too
            at_three = brute_legendre(n, 3) if b == 3 else 1
            assert hilbert_symbol(n, b, Place.finite(3)) == at_three
            assert math.prod(hilbert_symbol(n, b, v) for v in places) == 1


class TestCandidatePlaces:
    def test_trivial(self):
        assert candidate_places(1, 1) == [Place.finite(2), Place.real()]

    def test_supports(self):
        assert candidate_places(-1, 3) == [
            Place.finite(2), Place.finite(3), Place.real(),
        ]
        assert candidate_places(6, -10) == [
            Place.finite(2), Place.finite(3), Place.finite(5), Place.real(),
        ]

    def test_denominators_count(self):
        assert Place.finite(7) in candidate_places(Fraction(1, 7), 1)

    @given(nonzero_rationals, nonzero_rationals)
    def test_same_as_checked_places(self, a, b):
        """The places are built unchecked from `factor`'s primes."""
        odd = {q for n in (a.numerator, a.denominator, b.numerator, b.denominator)
               for q in factor(n)[1] if q != 2}
        checked = [Place(2), *(Place(q) for q in sorted(odd)), Place(None)]
        assert candidate_places(a, b) == checked

    @given(nonzero_rationals, nonzero_rationals)
    def test_symbol_trivial_elsewhere(self, a, b):
        # spot-check a few primes outside the candidate list
        candidates = set(candidate_places(a, b))
        for p in (11, 13, 17):
            place = Place.finite(p)
            if place not in candidates:
                assert hilbert_symbol(a, b, place) == 1
