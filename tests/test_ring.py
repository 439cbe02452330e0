import time

import pytest
from hypothesis import given, settings, strategies as st

from nskoszul.ring import (
    CHAR_ENV,
    DimensionMismatch,
    Polynomial,
    RingSpec,
    default_characteristic,
    grevlex_key,
    is_prime,
    mon_lcm,
    mon_mul,
    monomial_compare,
    monomials_of_wdeg,
    standard_degree,
    weighted_degree,
)


W13 = RingSpec((1, 3), ("x", "y"))
W23 = RingSpec((2, 3), ("x", "y"))
STD2 = RingSpec((1, 1), ("x1", "x2"))


class TestRingSpec:
    def test_companion_flattens_weights(self):
        assert W13.companion().weights == (1, 1)
        assert W13.companion().names == ("x", "y")

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            RingSpec((1, 0))
        with pytest.raises(ValueError):
            RingSpec((-2,))

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            RingSpec((1,), char=32004)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            RingSpec((1, 1), ("x", "x"))

    def test_rejects_characteristic_beyond_int64_kernels(self):
        # 4294967311 is prime, but p**2 overflows the int64 rank kernels
        assert is_prime(4294967311)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            RingSpec((1, 1), char=4294967311)
        assert RingSpec((1, 1), char=2**31 - 1).char == 2**31 - 1
        for bad in (0, 1, -7):
            with pytest.raises(ValueError):
                RingSpec((1,), char=bad)


class TestCharacteristic:
    def test_is_prime_matches_trial_division(self):
        def slow(n):
            return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

        assert [n for n in range(3000) if is_prime(n)] == [
            n for n in range(3000) if slow(n)
        ]

    def test_is_prime_rejects_pseudoprimes(self):
        # Carmichael numbers and strong pseudoprimes to the bases 2, 3, 5, 7
        for n in (561, 1105, 8911, 3215031751, 3825123056546413051):
            assert not is_prime(n)
        for n in (32003, 2**31 - 1, 2**61 - 1):
            assert is_prime(n)
        with pytest.raises(ValueError):
            is_prime(2**89 - 1)  # past the range the fixed bases decide

    def test_env_characteristic_is_range_checked_promptly(self, monkeypatch):
        # trial division never finished on a 61-bit prime
        monkeypatch.setenv(CHAR_ENV, str(2**61 - 1))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=CHAR_ENV):
            default_characteristic()
        assert time.perf_counter() - start < 1.0
        monkeypatch.setenv(CHAR_ENV, "101")
        assert default_characteristic() == 101


class TestDegrees:
    def test_x2y_weights_1_3(self):
        # degree-5 generator of the e=5 truncation
        assert weighted_degree((2, 1), W13) == 5

    def test_unit_monomial(self):
        assert weighted_degree((0, 0), W13) == 0

    def test_x4y2_weights_2_3(self):
        # oracle: 4*2 + 2*3
        assert weighted_degree((4, 2), W23) == 14

    def test_standard_degree(self):
        assert standard_degree((4, 2), W23) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_degree((1, 2, 3), W13)


class TestLabel:
    def test_plain_monomial_and_pair(self):
        assert W13.label((2, 1)) == (0, (2, 1))
        assert W13.label([2, 1], 3) == (3, (2, 1))
        assert W13.label((1, [2, 1])) == (1, (2, 1))

    @pytest.mark.parametrize("bad", [(1, 2, 3), (1,), (0, (1, 2, 3)), (0, (1,))])
    def test_wrong_length_rejected(self, bad):
        with pytest.raises(DimensionMismatch):
            W13.label(bad)

    def test_every_parser_checks_the_length(self):
        from nskoszul.assoc_graded import OrdContext
        from nskoszul.egm import monomial_module
        from nskoszul.gb import monomial_elements

        # a (component, monomial) pair with a 3-exponent monomial in a
        # 2-variable ring used to pass monomial_module and OrdContext
        for build in (
            lambda g: monomial_elements(W13, [g]),
            lambda g: monomial_module(W13, [g], bound=3),
            lambda g: OrdContext(W13, (g,)),
            lambda g: OrdContext(W13, ((0, (1, 0)),)).ord(g),
        ):
            with pytest.raises(DimensionMismatch):
                build((0, (1, 2, 3)))


class TestMonomialCompare:
    def test_reflexive(self):
        assert monomial_compare((2, 1), (2, 1), W13) == 0

    def test_weighted_tie_break(self):
        # both have weighted degree 5; smaller last exponent wins
        assert monomial_compare((5, 0), (2, 1), W13) == 1

    def test_classical_degrevlex(self):
        assert monomial_compare((2, 0), (1, 1), STD2) == 1

    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
    )
    def test_antisymmetric(self, a, b):
        assert monomial_compare(a, b, W13) == -monomial_compare(b, a, W13)

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_transitive_total(self, a, b, c):
        if monomial_compare(a, b, W13) >= 0 and monomial_compare(b, c, W13) >= 0:
            assert monomial_compare(a, c, W13) >= 0

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_multiplicative(self, a, b, c):
        cmp = monomial_compare(a, b, W13)
        assert monomial_compare(mon_mul(a, c), mon_mul(b, c), W13) == cmp

    @given(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
    )
    def test_degree_additivity(self, a, b):
        assert weighted_degree(mon_mul(a, b), W13) == weighted_degree(
            a, W13
        ) + weighted_degree(b, W13)


poly_strategy = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-40000, 40000),
    ),
    max_size=8,
)


class TestPolynomialArithmetic:
    def test_additive_identity(self):
        f = Polynomial.from_terms(W13, [((1, 0), 2), ((0, 1), 5)])
        assert f + Polynomial.zero(W13) == f

    def test_single_term_product(self):
        # y * x^3 has weighted degree 6
        y = Polynomial.variable(W13, 1)
        x3 = Polynomial.term(W13, (3, 0))
        prod = y * x3
        assert prod == Polynomial.term(W13, (3, 1))
        assert prod.homogeneous_degree() == 6

    def test_difference_of_squares(self):
        x = Polynomial.variable(W13, 0)
        y = Polynomial.variable(W13, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_char_arithmetic(self):
        f = Polynomial.constant(W13, 32002) + Polynomial.constant(W13, 1)
        assert f.is_zero()

    @given(poly_strategy)
    def test_canonical_idempotence(self, terms):
        f = Polynomial.from_terms(W13, terms)
        again = Polynomial(W13, dict(f.coeffs))
        assert f == again
        assert all(0 < c < W13.char for c in f.coeffs.values())

    @given(poly_strategy, poly_strategy)
    def test_commutative_product(self, t1, t2):
        f = Polynomial.from_terms(W13, t1)
        g = Polynomial.from_terms(W13, t2)
        assert f * g == g * f

    @given(poly_strategy, poly_strategy, poly_strategy)
    @settings(max_examples=40)
    def test_distributive(self, t1, t2, t3):
        f = Polynomial.from_terms(W13, t1)
        g = Polynomial.from_terms(W13, t2)
        h = Polynomial.from_terms(W13, t3)
        assert f * (g + h) == f * g + f * h

    @given(st.integers(1, 32002), st.integers(1, 32002))
    def test_field_inverses(self, a, b):
        p = 32003
        assert pow(a, -1, p) * a % p == 1
        assert (a + b) % p == (b + a) % p
        assert a * (pow(a, -1, p) * b % p) % p == b % p


class TestTermOrderKeys:
    def test_terms_sorted_strictly_descending(self):
        f = Polynomial.from_terms(W13, [((5, 0), 1), ((2, 1), 1), ((0, 2), 1)])
        terms = f.terms_sorted()
        keys = [grevlex_key(W13, m) for m, _ in terms]
        assert keys == sorted(keys, reverse=True)

    def test_lead_term(self):
        f = Polynomial.from_terms(W13, [((5, 0), 4), ((2, 1), 7)])
        assert f.lead_term() == ((5, 0), 4)


class TestMonomialEnumeration:
    def test_counts_standard(self):
        std = RingSpec((1, 1, 1))
        assert len(monomials_of_wdeg(std, 4)) == 15

    def test_weighted_gap(self):
        spec = RingSpec((2, 3))
        assert monomials_of_wdeg(spec, 1) == ()
        assert set(monomials_of_wdeg(spec, 6)) == {(3, 0), (0, 2)}

    def test_lcm(self):
        assert mon_lcm((5, 0), (2, 1)) == (5, 1)
