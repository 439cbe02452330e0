import random
from math import ceil

import pytest

from nskoszul.assoc_graded import OrdContext, gr_betti, gr_hilbert
from nskoszul.complexes import BettiTable
from nskoszul.construction import (
    construct_gr_betti,
    horseshoe_sum,
    ses_hilbert_check,
    tensor_koszul_betti,
)
from nskoszul.ring import RingSpec
from nskoszul.truncation import trunc_gens
from oracles import construct_free_betti, trunc_free_gens


class TestConstructGrBetti:
    def test_paper_example_1_3(self):
        table, _ = construct_gr_betti((1, 3), 5)
        assert table.entries == ((0, 0, 3), (1, 1, 2))

    def test_paper_horseshoe_base(self):
        table, _ = construct_gr_betti((1, 2), 1)
        assert table.entries == ((0, 0, 2), (1, 1, 1))

    def test_paper_horseshoe_full_example(self):
        table, trace = construct_gr_betti((1, 2, 2), 7)
        assert table.entries == ((0, 0, 15), (1, 1, 24), (2, 2, 10))
        assert trace.N == 4
        first = trace.steps[0]
        assert first.layer == 3
        assert first.sub_weights == (1, 2)
        assert first.sub_threshold == 1
        assert first.sub_table.entries == ((0, 0, 2), (1, 1, 1))
        assert first.after_tensor.entries == ((0, 0, 2), (1, 1, 3), (2, 2, 1))
        assert first.after_horseshoe.entries == ((0, 0, 3), (1, 1, 3), (2, 2, 1))

    def test_base_cases(self):
        for weights, e in [((5,), 12), ((1, 3), 0), ((2, 2), -4)]:
            table, trace = construct_gr_betti(weights, e)
            assert table.entries == ((0, 0, 1),)
            assert trace.steps == ()

    def test_one_variable_always_free(self):
        for d in range(1, 5):
            for e in range(1, 15):
                table, _ = construct_gr_betti((d,), e)
                assert table.entries == ((0, 0, 1),)

    def test_diagonality(self):
        rng = random.Random(31)
        for _ in range(30):
            weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            table, _ = construct_gr_betti(weights, rng.randint(-2, 14))
            assert table.is_diagonal()

    def test_invariant_under_weight_permutation(self):
        t1, _ = construct_gr_betti((1, 2, 4), 9)
        t2, _ = construct_gr_betti((4, 1, 2), 9)
        assert t1 == t2

    def test_matches_koszul_oracle(self):
        # independent oracle: Koszul-homology Betti numbers of the gr module
        spec = RingSpec((1, 2, 2))
        ctx = OrdContext(spec, tuple((0, m) for m in trunc_gens(spec, 7)))
        assert construct_gr_betti((1, 2, 2), 7)[0] == gr_betti(ctx)


class TestTensorKoszulBetti:
    def test_paper_example_3_3(self):
        b = BettiTable(((0, 0, 2), (1, 1, 1)))
        assert tensor_koszul_betti(b).entries == ((0, 0, 2), (1, 1, 3), (2, 2, 1))

    def test_koszul_complex_itself(self):
        b = BettiTable(((0, 0, 1),))
        # two new variables: extend twice
        assert tensor_koszul_betti(tensor_koszul_betti(b)).entries == (
            (0, 0, 1), (1, 1, 2), (2, 2, 1)
        )

    def test_rejects_nondiagonal(self):
        with pytest.raises(ValueError):
            tensor_koszul_betti(BettiTable(((0, 1, 1),)))

    def test_matches_totalized_complexes(self):
        # realized check: tensoring complexes multiplies twist-read tables
        from oracles import koszul_complex, totalize_tensor

        R = RingSpec((1, 1, 1))
        F = koszul_complex(R, [0, 1])
        table = F.betti_from_twists()
        Tot = totalize_tensor(F, koszul_complex(R, [2]))
        assert tensor_koszul_betti(table) == Tot.betti_from_twists()


class TestHorseshoeSum:
    def test_identity(self):
        b = BettiTable(((0, 0, 2), (1, 1, 1)))
        assert horseshoe_sum(b, BettiTable(())) == b

    def test_paper_diagram(self):
        left = BettiTable(((0, 0, 1),))
        right = BettiTable(((0, 0, 2), (1, 1, 1)))
        assert horseshoe_sum(left, right).entries == ((0, 0, 3), (1, 1, 1))

    def test_associative(self):
        rng = random.Random(33)
        for _ in range(10):
            tables = [
                BettiTable(tuple((i, i, rng.randint(1, 9)) for i in range(rng.randint(1, 4))))
                for _ in range(3)
            ]
            a, b, c = tables
            assert horseshoe_sum(horseshoe_sum(a, b), c) == horseshoe_sum(
                a, horseshoe_sum(b, c)
            )

    def test_rejects_nondiagonal(self):
        with pytest.raises(ValueError):
            horseshoe_sum(BettiTable(((0, 2, 1),)), BettiTable(()))


class TestConstructFreeBetti:
    def test_single_zero_twist(self):
        assert construct_free_betti((1, 3), (0,), 5) == construct_gr_betti((1, 3), 5)[0]

    def test_doubled_table(self):
        assert construct_free_betti((1, 3), (0, 0), 5).entries == (
            (0, 0, 6),
            (1, 1, 4),
        )

    def test_whole_summand_contributes_free_table(self):
        table = construct_free_betti((1, 3), (7,), 5)
        assert table.entries == ((0, 0, 1),)

    def test_matches_gr_betti_of_free_truncation(self):
        spec = RingSpec((1, 3), ("x", "y"))
        twists = (0, 2, -1)
        ctx = OrdContext(spec, tuple(trunc_free_gens(spec, twists, 5)))
        assert construct_free_betti((1, 3), twists, 5) == gr_betti(ctx)


class TestSesHilbertCheck:
    def test_paper_layer(self):
        ok, lhs, rhs = ses_hilbert_check((1, 3), 5, 1, 10)
        assert ok
        # layer 1 is <x^2 y, y^2>: 2 generators, then 3 ord-1 elements
        assert lhs[:2] == [2, 3]

    def test_all_layers_weights_1_2_2(self):
        for i in range(ceil(7 / 2)):
            ok, _, _ = ses_hilbert_check((1, 2, 2), 7, i, 14)
            assert ok

    def test_telescoping_identity(self):
        # summing the quotient pieces over all layers recovers the module
        weights, e, bound = (1, 2, 2), 7, 12
        spec = RingSpec(weights)
        d = max(weights)
        N = ceil(e / d)
        from nskoszul.truncation import filtration_layer

        var = spec.num_vars - 1
        gens = trunc_gens(spec, e)
        total = [0] * (bound + 1)
        sub = spec.drop_variable(var)
        for i in range(N):
            sub_gens = trunc_gens(sub, e - d * i)
            piece = gr_hilbert(OrdContext(sub, tuple((0, m) for m in sub_gens)), bound)
            total = [a + b for a, b in zip(total, piece)]
        top = filtration_layer(gens, N, var)
        top_dims = gr_hilbert(OrdContext(spec, tuple((0, m) for m in top)), bound)
        total = [a + b for a, b in zip(total, top_dims)]
        assert total == gr_hilbert(OrdContext(spec, tuple((0, m) for m in gens)), bound)

    def test_layer_out_of_range(self):
        with pytest.raises(ValueError):
            ses_hilbert_check((1, 3), 5, 2, 8)

    def test_one_variable_layers(self):
        for i in range(3):
            ok, _, _ = ses_hilbert_check((3,), 7, i, 8)
            assert ok
