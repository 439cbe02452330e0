import random
from itertools import product

import pytest

from nskoszul.ring import RingSpec, mon_divides
from nskoszul.truncation import filtration_layer, minimalize_monomials, trunc_gens
from oracles import mon_mul, monomials_of_wdeg, trunc_free_gens

W13 = RingSpec((1, 3), ("x", "y"))
W14 = RingSpec((1, 4), ("x", "y"))
W23 = RingSpec((2, 3), ("x", "y"))


class TestTruncGens:
    def test_weights_1_3_e5(self):
        assert trunc_gens(W13, 5) == [(5, 0), (2, 1), (0, 2)]

    def test_weights_1_4_e5(self):
        assert trunc_gens(W14, 5) == [(5, 0), (1, 1), (0, 2)]

    def test_weights_2_3_e7(self):
        # oracle: brute force below
        assert trunc_gens(W23, 7) == [(4, 0), (2, 1), (1, 2), (0, 3)]

    def test_nonpositive_threshold_gives_unit(self):
        assert trunc_gens(W13, 0) == [(0, 0)]
        assert trunc_gens(W13, -4) == [(0, 0)]

    @pytest.mark.parametrize(
        "weights,e",
        [((1, 3), 5), ((1, 4), 5), ((2, 3), 7), ((1, 2, 2), 7), ((3, 3, 4), 11), ((1,), 6)],
    )
    def test_brute_force_oracle(self, weights, e):
        spec = RingSpec(weights)
        gens = trunc_gens(spec, e)
        # a monomial has weighted degree >= e iff some generator divides it
        for d in range(e + 2 * spec.max_weight + 1):
            for m in monomials_of_wdeg(spec, d):
                generated = any(mon_divides(u, m) for u in gens)
                assert generated == (d >= e)
        # minimality: no generator divides another
        for u in gens:
            for v in gens:
                if u != v:
                    assert not mon_divides(u, v)


def gens_by_definition(spec: RingSpec, e: int) -> list:
    """The monomials g with wdeg(g) >= e whose every present variable drops
    them below e, over the box that holds them: (g_t - 1) w_t < e, so
    g_t <= ceil(e / w_t)."""
    box = [range(-(-e // w) + 1) for w in spec.weights]
    out = []
    for g in product(*box):
        d = spec.wdeg(g)
        if d >= e and all(d - w < e for a, w in zip(g, spec.weights) if a):
            out.append(g)
    return sorted(out, reverse=True)


class TestTruncGensAtLargeWeights:
    # the walk visits only monomials of degree below e, so a weight of
    # 10^6 costs nothing; a scan of every degree in [e, e + max weight)
    # would take hours on these rings

    def test_small_thresholds_match_the_definition(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 4)
            weights = [rng.choice((1, 2, 3, 10**6)) for _ in range(n)]
            weights[rng.randrange(n)] = 10**6
            spec = RingSpec(tuple(weights))
            e = rng.randint(1, 9)
            assert trunc_gens(spec, e) == gens_by_definition(spec, e)

    def test_large_thresholds_match_the_definition(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randint(1, 4)
            spec = RingSpec(tuple(10**6 + rng.randint(0, 3) for _ in range(n)))
            e = rng.randint(1, 4 * 10**6)
            assert trunc_gens(spec, e) == gens_by_definition(spec, e)

    def test_two_generators(self):
        assert trunc_gens(RingSpec((1, 10**4)), 5) == [(5, 0), (0, 1)]
        assert trunc_gens(RingSpec((1, 10**6)), 5) == [(5, 0), (0, 1)]


class TestTruncFreeGens:
    def test_single_zero_twist_matches_ideal_case(self):
        assert trunc_free_gens(W13, (0,), 5) == [(0, m) for m in trunc_gens(W13, 5)]

    def test_two_summands(self):
        got = trunc_free_gens(W13, (0, 2), 5)
        assert got == [(0, m) for m in trunc_gens(W13, 5)] + [(1, (3, 0)), (1, (0, 1))]

    def test_whole_summands_for_large_twists(self):
        got = trunc_free_gens(W13, (7, 9), 5)
        assert got == [(0, (0, 0)), (1, (0, 0))]


class TestFiltrationLayer:
    def test_layer_zero_identity(self):
        gens = trunc_gens(W13, 5)
        assert filtration_layer(gens, 0, 1) == gens

    def test_weights_1_3_layer_1(self):
        gens = trunc_gens(W13, 5)
        assert filtration_layer(gens, 1, 1) == [(2, 1), (0, 2)]

    def test_top_layer_is_principal(self):
        gens = trunc_gens(W13, 5)
        # N = ceil(5/3) = 2
        assert filtration_layer(gens, 2, 1) == [(0, 2)]

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            filtration_layer(trunc_gens(W13, 5), -1, 1)
        with pytest.raises(ValueError, match="layer index must be an integer"):
            filtration_layer(trunc_gens(W13, 5), 1.5, 1)

    def test_variable_outside_the_ring_raises(self):
        # y^i for a y outside the ring would be 1, and the layer M itself
        for last_var in (5, -1, 2):
            with pytest.raises(ValueError, match="variable index"):
                filtration_layer([(1, 2), (3, 0)], 1, last_var)

    def test_filtration_decreasing(self):
        rng = random.Random(11)
        for _ in range(20):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            e = rng.randint(1, 9)
            gens = trunc_gens(spec, e)
            last = spec.num_vars - 1
            prev = filtration_layer(gens, 0, last)
            for i in range(1, 6):
                cur = filtration_layer(gens, i, last)
                for m in cur:
                    assert any(mon_divides(u, m) for u in prev)
                prev = cur


class TestDecompositionIdentity:
    @pytest.mark.parametrize(
        "weights,e", [((1, 3), 5), ((1, 4), 5), ((1, 2, 2), 7), ((2, 3), 9), ((1, 1), 4)]
    )
    def test_layer_sum_reassembles_truncation(self, weights, e):
        # sum over i of A_(>= e - d i) * y^i, plus y^N, is the whole truncation
        from math import ceil

        spec = RingSpec(weights)
        d = max(weights)
        last = max(i for i, w in enumerate(weights) if w == d)
        N = ceil(e / d)
        n = spec.num_vars
        pieces = []
        if n == 1:
            pieces.append(tuple(N if k == last else 0 for k in range(n)))
        else:
            sub = spec.drop_variable(last)
            for i in range(N):
                yi = tuple(i if k == last else 0 for k in range(n))
                for u in trunc_gens(sub, e - d * i):
                    full = list(u)
                    full.insert(last, 0)
                    pieces.append(mon_mul(tuple(full), yi))
            pieces.append(tuple(N if k == last else 0 for k in range(n)))
        assert minimalize_monomials(pieces) == trunc_gens(spec, e)
