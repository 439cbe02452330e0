import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import mon_mul, monomials_of_wdeg
from nskoszul import ring
from nskoszul.assoc_graded import OrdContext, gr_betti, gr_hilbert, gr_module
from nskoszul.construction import construct_gr_betti, ses_hilbert_check
from nskoszul.egm import betti_via_koszul
from nskoszul.koszul_check import koszul_verdict
from nskoszul.ring import (
    DimensionMismatch,
    FreeModuleSpec,
    RingSpec,
    grevlex_key,
    is_prime,
    mon_lcm,
)
from nskoszul.truncation import trunc_gens


W13 = RingSpec((1, 3), ("x", "y"))
W23 = RingSpec((2, 3), ("x", "y"))
STD2 = RingSpec((1, 1), ("x1", "x2"))


class TestRingSpec:
    def test_companion_flattens_weights(self):
        assert W13.companion().weights == (1, 1)
        assert W13.companion().names == ("x", "y")

    def test_derived_rings_are_not_checked_again(self, monkeypatch):
        # the characteristic was checked when the parent ring was built
        specs = [W13, RingSpec((2, 1, 3), char=3), RingSpec((1, 1, 2, 2), ("a", "b", "c", "d"), 2)]
        one = RingSpec((2,), ("y",))
        want = [
            (
                RingSpec((1,) * s.num_vars, s.names, s.char),
                [
                    RingSpec(s.weights[:i] + s.weights[i + 1:], s.names[:i] + s.names[i + 1:], s.char)
                    for i in range(s.num_vars)
                ],
            )
            for s in specs
        ]

        def refused(n):
            raise AssertionError(f"is_prime({n}) called again")

        monkeypatch.setattr(ring, "is_prime", refused)
        got = [(s.companion(), [s.drop_variable(i) for i in range(s.num_vars)]) for s in specs]
        with pytest.raises(ValueError, match="at least one variable"):
            one.drop_variable(0)
        with pytest.raises(ValueError, match="bad variable index"):
            W13.drop_variable(2)
        monkeypatch.undo()
        assert got == want
        assert [hash(flat) for flat, _ in got] == [hash(flat) for flat, _ in want]

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


class TestIntegralInput:
    # non-integral values are refused where they enter, never truncated

    def test_ring_weights(self):
        with pytest.raises(ValueError, match="weight must be an integer"):
            RingSpec((1.5, 2))
        with pytest.raises(ValueError, match="weight must be an integer"):
            RingSpec(("1", 2))
        assert RingSpec((np.int64(1), 2)).weights == (1, 2)

    def test_ring_characteristic(self):
        with pytest.raises(ValueError, match="characteristic must be an integer"):
            RingSpec((1, 2), char=32003.0)
        spec = RingSpec((1, 2), char=np.int64(101))
        assert spec.char == 101 and type(spec.char) is int

    def test_free_module_twists(self):
        with pytest.raises(ValueError, match="twist must be an integer"):
            FreeModuleSpec((0, 2.5))
        assert FreeModuleSpec((np.int64(3), -1)).twists == (3, -1)

    def test_ses_check_weights(self):
        with pytest.raises(ValueError, match="weight must be an integer"):
            ses_hilbert_check((1, 3.0), 5, 0, 8)
        assert ses_hilbert_check((1, 3), 5, 0, 8)[0]

    def test_construction_weights(self):
        with pytest.raises(ValueError, match="weight must be an integer"):
            construct_gr_betti((1, 2.5), 4)

    def test_thresholds(self):
        spec = RingSpec((1, 2, 2))
        for e in (2.5, "3"):
            with pytest.raises(ValueError, match="threshold must be an integer"):
                construct_gr_betti(spec.weights, e)
            with pytest.raises(ValueError, match="threshold must be an integer"):
                trunc_gens(spec, e)
            with pytest.raises(ValueError, match="threshold must be an integer"):
                koszul_verdict(spec, e)
            with pytest.raises(ValueError, match="threshold must be an integer"):
                ses_hilbert_check((1, 3), e, 0, 8)
        # a numpy integer is taken as the equal int, also in the recursion's cache
        table, trace = construct_gr_betti(spec.weights, np.int64(5))
        assert (table, trace) == construct_gr_betti(spec.weights, 5)
        assert type(trace.e) is int and all(type(s.sub_threshold) is int for s in trace.steps)
        assert trunc_gens(spec, np.int64(5)) == trunc_gens(spec, 5)
        report = koszul_verdict(spec, np.int64(5))
        assert report == koszul_verdict(spec, 5) and type(report.e) is int
        assert json.loads(json.dumps(report.to_dict()))["e"] == 5

    def test_degree_bounds(self):
        ctx = OrdContext(W13, ((0, (2, 0)), (0, (0, 1))))
        M = gr_module(ctx, 3)
        for call, good in [
            (lambda b: oracles.module_view(gr_module(ctx, b)), 3),
            (lambda b: gr_hilbert(ctx, b), 3),
            (lambda b: betti_via_koszul(M, b), 3),
            (lambda b: ses_hilbert_check((1, 3), 5, 0, b), 3),
            (lambda i: ses_hilbert_check((1, 3), 5, i, 8), 1),
        ]:
            for bad in (2.5, "3"):
                with pytest.raises(ValueError, match="must be an integer"):
                    call(bad)
            assert call(np.int64(good)) == call(good)

    def test_label_components(self):
        spec = RingSpec((1, 1))
        with pytest.raises(ValueError, match="component must be an integer"):
            spec.label((1.7, (1, 0)))
        with pytest.raises(ValueError, match="component -1 is negative"):
            spec.label((-1, (1, 0)))
        assert spec.label((np.int64(1), (1, 0))) == (1, (1, 0))

    def test_ord_context_components(self):
        # a negative component used to drop its generator from gr silently
        spec = RingSpec((1, 1))
        with pytest.raises(ValueError, match="component -1 is negative"):
            OrdContext(spec, ((-1, (1, 0)), (0, (0, 1))))
        with pytest.raises(ValueError, match="component -1 is negative"):
            OrdContext(spec, ((-1, (1, 0)),))
        with pytest.raises(ValueError, match="component must be an integer"):
            OrdContext(spec, ((0.5, (1, 0)),))
        ctx = OrdContext(spec, ((1, (1, 0)), (0, (0, 1))))
        assert gr_betti(ctx).entries == ((0, 0, 2),)


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


class TestDegrees:
    def test_x2y_weights_1_3(self):
        # degree-5 generator of the e=5 truncation
        assert W13.wdeg((2, 1)) == 5

    def test_unit_monomial(self):
        assert W13.wdeg((0, 0)) == 0

    def test_x4y2_weights_2_3(self):
        # oracle: 4*2 + 2*3
        assert W23.wdeg((4, 2)) == 14

    def test_standard_degree(self):
        assert oracles.sdeg(W23, (4, 2)) == 6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            W13.wdeg((1, 2, 3))


class TestLabel:
    def test_plain_monomial_and_pair(self):
        assert W13.label((2, 1)) == (0, (2, 1))
        assert W13.label([2, 1]) == (0, (2, 1))
        assert W13.label((1, [2, 1])) == (1, (2, 1))

    @pytest.mark.parametrize("bad", [(1, 2, 3), (1,), (0, (1, 2, 3)), (0, (1,))])
    def test_wrong_length_rejected(self, bad):
        with pytest.raises(DimensionMismatch):
            W13.label(bad)

    def test_every_parser_checks_the_length(self):
        from nskoszul.assoc_graded import OrdContext
        from nskoszul.gb import monomial_elements
        from oracles import monomial_module, ord_scan

        # a (component, monomial) pair with a 3-exponent monomial in a
        # 2-variable ring used to pass monomial_module and OrdContext
        for build in (
            lambda g: monomial_elements(W13, [g]),
            lambda g: monomial_module(W13, [g], bound=3),
            lambda g: OrdContext(W13, (g,)),
            lambda g: ord_scan(OrdContext(W13, ((0, (1, 0)),)), g),
        ):
            with pytest.raises(DimensionMismatch):
                build((0, (1, 2, 3)))


class TestMonomialCompare:
    """Weighted degrevlex as grevlex_key orders it: ascending keys, so a
    larger key is a larger monomial."""

    def test_reflexive(self):
        assert grevlex_key(W13, (2, 1)) == grevlex_key(W13, (2, 1))

    def test_weighted_tie_break(self):
        # both have weighted degree 5; smaller last exponent wins
        assert grevlex_key(W13, (5, 0)) > grevlex_key(W13, (2, 1))

    def test_classical_degrevlex(self):
        assert grevlex_key(STD2, (2, 0)) > grevlex_key(STD2, (1, 1))

    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
    )
    def test_antisymmetric(self, a, b):
        # a total order: equal keys only for equal monomials
        assert (grevlex_key(W13, a) == grevlex_key(W13, b)) == (a == b)

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_transitive_total(self, a, b, c):
        ka, kb, kc = (grevlex_key(W13, m) for m in (a, b, c))
        if ka >= kb and kb >= kc:
            assert ka >= kc

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_multiplicative(self, a, b, c):
        ka, kb = grevlex_key(W13, a), grevlex_key(W13, b)
        kac, kbc = grevlex_key(W13, mon_mul(a, c)), grevlex_key(W13, mon_mul(b, c))
        assert (ka < kb, ka == kb) == (kac < kbc, kac == kbc)

    @given(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
    )
    def test_degree_additivity(self, a, b):
        assert W13.wdeg(mon_mul(a, b)) == W13.wdeg(a) + W13.wdeg(b)


class TestRenderTerms:
    def test_descending_order_and_symmetric_coefficients(self):
        terms = {(0, 0): 5, (2, 1): 3, (5, 0): 32002, (0, 2): 1}
        assert W13.render_terms(terms) == "y^2 - x^5 + 3*x^2*y + 5"
        assert W13.render_terms({(0, 0): 32001}) == "-2"
        assert W13.render_terms({}) == "0"


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
