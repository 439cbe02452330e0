import random

import pytest

import oracles
from nskoszul.assoc_graded import OrdContext, gr_betti, gr_module
from nskoszul.cli import differential_strings
from nskoszul.complexes import BettiTable, GradedFreeComplex, homology_witnesses, resolve_module
from nskoszul.gb import monomial_elements
from nskoszul.koszul_check import (
    NoFiniteDecision,
    NotMinimal,
    koszul_verdict,
    lin_acyclicity,
    linear_part,
    recommended_bound,
)
from nskoszul.ring import FreeModuleSpec, RingSpec
from nskoszul.truncation import trunc_gens

W13 = RingSpec((1, 3), ("x", "y"))
W14 = RingSpec((1, 4), ("x", "y"))
STD2 = RingSpec((1, 1), ("x", "y"))


def entry_strings(C):
    return [row for mat in differential_strings(C) for row in mat]


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
        assert L.diffs == F.diffs
        assert [m.twists for m in L.modules] == [(0, 0, 0), (1, 1)]

    def test_rejects_non_minimal_input(self):
        unit = (({(0, (0, 0)): 1},),)
        C = GradedFreeComplex(W13, (FreeModuleSpec((2,)), FreeModuleSpec((2,))), unit)
        with pytest.raises(NotMinimal, match=r"^unit entry in d_1 at \(0, 0\)$"):
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
            assert oracles.check_complex(L).ok


class TestLinAcyclicity:
    def test_paper_lin_is_acyclic(self):
        F = resolve_module(monomial_elements(W13, trunc_gens(W13, 5)))
        assert lin_acyclicity(linear_part(F, W13)) == (True, [])

    def test_zero_differential_complex_is_not(self):
        R = W13.companion()
        L = GradedFreeComplex(R, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), (({},),))
        # H_1 = S(-1): one cell, with its corner in degree 1
        assert lin_acyclicity(L) == (False, [(1, 1, 1)])

    def test_weights_1_4_lin_acyclic(self):
        F = resolve_module(monomial_elements(W14, trunc_gens(W14, 5)))
        ok, _ = lin_acyclicity(linear_part(F, W14))
        assert ok

    @pytest.mark.parametrize(
        "gens",
        [[(2, 0), (0, 2)], [(2, 0), (0, 3)], [(3, 0), (2, 1), (0, 3)]],
        ids=["x2,y2", "x2,y3", "x3,x2y,y3"],
    )
    def test_non_componentwise_linear_ideals_are_not(self, gens):
        # negative controls: the linear part loses a syzygy, leaving a free
        # summand S(-1) in H_1, one grid cell with its corner in degree 1 and
        # dimension j in each degree j
        L = linear_part(resolve_module(monomial_elements(STD2, gens)), STD2)
        assert homology_witnesses(L) == [(1, 1, 1)]
        assert lin_acyclicity(L) == (False, [(1, 1, 1)])
        positive = {k: d for k, d in oracles.homology_dims(L, 6).items() if k[0] >= 1}
        assert positive == {(1, j): j for j in range(1, 7)}

    def test_multi_term_entry_has_no_finite_decision(self):
        R = STD2.companion()
        d1 = (({(0, (1, 0)): 1, (0, (0, 1)): 1},),)
        L = GradedFreeComplex(R, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), d1)
        with pytest.raises(NoFiniteDecision, match="more than one term"):
            homology_witnesses(L)
        with pytest.raises(NoFiniteDecision, match="^in the linear part, "):
            lin_acyclicity(L)

    def test_componentwise_linear_ideal_is_acyclic(self):
        # positive control: (x^2, xy, y^3) is componentwise linear
        L = linear_part(
            resolve_module(monomial_elements(STD2, [(2, 0), (1, 1), (0, 3)])), STD2
        )
        assert homology_witnesses(L) == []
        assert not any(i >= 1 for i, _ in oracles.homology_dims(L, 8))
        assert lin_acyclicity(L) == (True, [])


class TestKoszulVerdict:
    def test_paper_example(self):
        report = koszul_verdict(W13, 5)
        assert report.all_true
        assert report.gr_table.entries == ((0, 0, 3), (1, 1, 2))
        assert report.recommended == recommended_bound(W13, 5) == 13
        assert report.to_dict()["bound"] == report.to_dict()["recommended_bound"] == 13

    @pytest.mark.parametrize("e", [0, 1, 3, 6])
    def test_standard_graded_truncations(self, e):
        spec = RingSpec((1, 1), ("x", "y"))
        assert koszul_verdict(spec, e).all_true

    def test_weights_2_3(self):
        spec = RingSpec((2, 3), ("x", "y"))
        report = koszul_verdict(spec, 7)
        assert report.all_true
        assert report.construct_table == report.gr_table

    def test_lin_twists_match_gr_betti_when_acyclic(self):
        rng = random.Random(22)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            e = rng.randint(1, 8)
            report = koszul_verdict(spec, e)
            assert report.all_true
            # lin(F)_i is generated in degree i, one copy per generator of F_i
            ranks = range(report.resolution_betti.max_hom() + 1)
            lin = BettiTable(tuple((i, i, report.resolution_betti.total(i)) for i in ranks))
            assert lin == report.gr_table

    def test_beta0_agreement(self):
        rng = random.Random(23)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            e = rng.randint(1, 9)
            gens = trunc_gens(spec, e)
            report = koszul_verdict(spec, e)
            ctx = OrdContext(spec, tuple((0, m) for m in gens))
            assert report.gr_table.total(0) == len(gens)
            assert oracles.module_dim(gr_module(ctx, 0), 0) == len(gens)

    def test_report_serializes(self):
        import json

        report = koszul_verdict(W13, 5)
        payload = json.dumps(report.to_dict(), sort_keys=True)
        assert '"lin_acyclic":"true"' in payload.replace(" ", "")


def test_herzog_iyengar_lin_agrees_with_gr():
    # M is Koszul (lin F acyclic) exactly when gr_m(M) has a linear
    # resolution over the companion ring, and then beta_i(M) = beta_ii(gr M)
    # (Herzog-Iyengar, "Koszul modules", JPAA 201, 2005).  That holds for any
    # monomial module, so the two pipelines must agree also where the
    # answer is false.
    inputs = oracles.random_monomial_modules(1, 700, (1,)) + oracles.random_monomial_modules(
        2, 300, (2, 3)
    )
    false = 0
    for spec, _, gens in inputs:
        F = resolve_module(monomial_elements(spec, gens))
        L = linear_part(F, spec)
        lin = lin_acyclicity(L)[0]
        gr = gr_betti(OrdContext(spec, tuple(gens)))
        assert lin == gr.is_diagonal(), (spec, gens)
        assert not lin or L.betti_from_twists() == gr, (spec, gens)
        false += not lin
    assert false >= 300
    assert sum(len({c for c, _ in gens}) > 1 for _, _, gens in inputs) >= 200
