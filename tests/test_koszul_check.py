import random

import pytest

from nskoszul.assoc_graded import OrdContext, gr_module
from nskoszul.complexes import (
    GradedFreeComplex,
    check_complex,
    homology_dims,
    positive_homology_vanishes,
    resolve_module,
)
from nskoszul.gb import monomial_elements
from nskoszul.koszul_check import (
    NotMinimal,
    Verdict,
    koszul_verdict,
    lin_acyclicity,
    linear_part,
    recommended_bound,
)
from nskoszul.ring import FreeModuleSpec, Polynomial, RingSpec
from nskoszul.truncation import trunc_gens

W13 = RingSpec((1, 3), ("x", "y"))
W14 = RingSpec((1, 4), ("x", "y"))
STD2 = RingSpec((1, 1), ("x", "y"))


def entry_strings(C):
    return [[repr(e) for e in row] for mat in C.diffs for row in mat]


class TestLinearPart:
    def test_paper_example_1_3(self):
        F = resolve_module(monomial_elements(W13, trunc_gens(W13, 5)))
        L = linear_part(F, W13)
        assert [m.twists for m in L.modules] == [(0, 0, 0), (1, 1)]
        assert entry_strings(L) == [["y", "0"], ["0", "y"], ["0", "0"]]
        assert L.spec == W13.companion()

    def test_weights_1_4_keeps_weight_one_entry(self):
        # x has standard degree 1 and is kept; x^4 is dropped
        F = resolve_module(monomial_elements(W14, trunc_gens(W14, 5)))
        L = linear_part(F, W14)
        assert entry_strings(L) == [["y", "0"], ["0", "y"], ["0", "-x"]]

    def test_standard_graded_unchanged_up_to_retwist(self):
        spec = RingSpec((1, 1), ("x", "y"))
        F = resolve_module(monomial_elements(spec, trunc_gens(spec, 2)))
        L = linear_part(F, spec)
        assert [
            [e.coeffs for e in row] for mat in L.diffs for row in mat
        ] == [[e.coeffs for e in row] for mat in F.diffs for row in mat]
        assert [m.twists for m in L.modules] == [(0, 0, 0), (1, 1)]

    def test_rejects_non_minimal_input(self):
        unit = (((Polynomial.constant(W13, 1),),),)
        C = GradedFreeComplex(W13, (FreeModuleSpec((2,)), FreeModuleSpec((2,))), unit)
        with pytest.raises(NotMinimal):
            linear_part(C, W13)

    def test_output_is_always_a_complex(self):
        rng = random.Random(21)
        for _ in range(15):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            gens = sorted(
                {
                    tuple(rng.randint(0, 4) for _ in range(spec.num_vars))
                    for _ in range(rng.randint(1, 5))
                }
                - {(0,) * spec.num_vars}
            )
            if not gens:
                continue
            F = resolve_module(monomial_elements(spec, gens))
            L = linear_part(F, spec)
            assert check_complex(L).ok


class TestLinAcyclicity:
    def test_paper_lin_is_acyclic(self):
        F = resolve_module(monomial_elements(W13, trunc_gens(W13, 5)))
        ok, nonzero = lin_acyclicity(linear_part(F, W13), 12)
        assert ok and nonzero == {}

    def test_zero_differential_complex_is_not(self):
        R = W13.companion()
        mat = (((Polynomial.zero(R),),),)
        L = GradedFreeComplex(R, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), mat)
        ok, nonzero = lin_acyclicity(L, 6)
        assert not ok
        assert all(i == 1 for (i, _) in nonzero)

    def test_weights_1_4_lin_acyclic(self):
        F = resolve_module(monomial_elements(W14, trunc_gens(W14, 5)))
        ok, _ = lin_acyclicity(linear_part(F, W14), 15)
        assert ok

    @pytest.mark.parametrize(
        "gens",
        [[(2, 0), (0, 2)], [(2, 0), (0, 3)], [(3, 0), (2, 1), (0, 3)]],
        ids=["x2,y2", "x2,y3", "x3,x2y,y3"],
    )
    def test_non_componentwise_linear_ideals_are_not(self, gens):
        # negative controls: the linear part loses a syzygy, leaving a free
        # summand S(-1) in H_1 (dimension j in degree j)
        L = linear_part(resolve_module(monomial_elements(STD2, gens)), STD2)
        assert positive_homology_vanishes(L) is False
        assert any(i >= 1 for i, _ in homology_dims(L, 6))
        assert lin_acyclicity(L, 6) == (False, {(1, j): j for j in range(1, 7)})

    def test_componentwise_linear_ideal_is_acyclic(self):
        # positive control: (x^2, xy, y^3) is componentwise linear
        L = linear_part(
            resolve_module(monomial_elements(STD2, [(2, 0), (1, 1), (0, 3)])), STD2
        )
        assert positive_homology_vanishes(L) is True
        assert not any(i >= 1 for i, _ in homology_dims(L, 8))
        assert lin_acyclicity(L, 8) == (True, {})


class TestKoszulVerdict:
    def test_paper_example(self):
        report = koszul_verdict(W13, 5)
        assert report.all_true
        assert report.gr_table.entries == ((0, 0, 3), (1, 1, 2))
        assert report.bound == recommended_bound(W13, 5) == 13

    @pytest.mark.parametrize("e", [0, 1, 3, 6])
    def test_standard_graded_truncations(self, e):
        spec = RingSpec((1, 1), ("x", "y"))
        assert koszul_verdict(spec, e).all_true

    def test_weights_2_3(self):
        spec = RingSpec((2, 3), ("x", "y"))
        report = koszul_verdict(spec, 7)
        assert report.all_true
        assert report.construct_table == report.gr_table

    def test_small_bound_is_inconclusive_not_true(self):
        report = koszul_verdict(W13, 5, bound=4)
        assert not report.all_true
        assert not report.any_false
        assert report.lin_acyclic is Verdict.INCONCLUSIVE

    def test_lin_twists_match_gr_betti_when_acyclic(self):
        rng = random.Random(22)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            e = rng.randint(1, 8)
            report = koszul_verdict(spec, e)
            assert report.all_true
            assert report.lin_betti == report.gr_table

    def test_beta0_agreement(self):
        rng = random.Random(23)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            e = rng.randint(1, 9)
            gens = trunc_gens(spec, e)
            report = koszul_verdict(spec, e)
            ctx = OrdContext(spec, tuple((0, m) for m in gens))
            assert report.gr_table.total(0) == len(gens)
            assert gr_module(ctx, 0).dim(0) == len(gens)

    def test_report_serializes(self):
        import json

        report = koszul_verdict(W13, 5)
        payload = json.dumps(report.to_dict(), sort_keys=True)
        assert '"lin_acyclic":"true"' in payload.replace(" ", "")
