import random

import numpy as np
import pytest

from nskoszul.assoc_graded import (
    NotInModule,
    OrdContext,
    SubringError,
    extend_gr,
    gr_betti,
    gr_box_module,
    gr_hilbert,
    gr_module,
)
from nskoszul.complexes import (
    alternating_betti_series,
    one_minus_t_power,
    truncated_series_product,
)
from nskoszul.egm import DegreeRangeError, ExplicitGradedModule, betti_via_koszul
from nskoszul.ring import RingSpec
from nskoszul.truncation import minimalize_monomials, trunc_free_gens, trunc_gens

W13 = RingSpec((1, 3), ("x", "y"))


def trunc_ctx(spec, e):
    return OrdContext(spec, tuple((0, m) for m in trunc_gens(spec, e)))


CTX13 = trunc_ctx(W13, 5)


class TestOrd:
    def test_minimal_generators_have_ord_zero(self):
        for _, m in CTX13.generators:
            assert CTX13.ord(m) == 0

    def test_divisor_minimum(self):
        # |x^3 y| - |x^2 y| = 4 - 3
        assert CTX13.ord((3, 1)) == 1
        # smallest dividing generator of x^3 y^2 is y^2: 5 - 2
        assert CTX13.ord((3, 2)) == 3
        # and of x^2 y^2 as well: 4 - 2
        assert CTX13.ord((2, 2)) == 2

    def test_outside_module_raises(self):
        with pytest.raises(NotInModule):
            CTX13.ord((1, 0))

    def test_ord_monotone_under_variables(self):
        rng = random.Random(3)
        for _ in range(10):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            ctx = trunc_ctx(spec, rng.randint(1, 8))
            M = gr_module(ctx, 6)
            for j, labels in M.degrees.items():
                for _, v in labels:
                    for var in range(spec.num_vars):
                        step = tuple(
                            e + (1 if k == var else 0) for k, e in enumerate(v)
                        )
                        assert ctx.ord(step) >= ctx.ord(v) + 1


class TestGrModule:
    def test_degree_zero_basis(self):
        M = gr_module(CTX13, 6)
        assert [m for _, m in M.basis(0)] == [(5, 0), (2, 1), (0, 2)]

    def test_paper_action_structure(self):
        # gr splits as two killed-by-y summands and one free one
        M = gr_module(CTX13, 6)
        basis0 = list(M.basis(0))
        basis1 = list(M.basis(1))
        y = 1
        mat = M.action_matrix(y, 0)
        col_x5 = basis0.index((0, (5, 0)))
        col_x2y = basis0.index((0, (2, 1)))
        col_y2 = basis0.index((0, (0, 2)))
        assert not mat[:, col_x5].any()
        assert not mat[:, col_x2y].any()
        assert mat[basis1.index((0, (0, 3))), col_y2] == 1

    def test_whole_ring_gr_is_polynomial_ring(self):
        spec = RingSpec((1, 2, 2))
        ctx = trunc_ctx(spec, 0)
        dims = gr_hilbert(ctx, 4)
        assert dims == [1, 3, 6, 10, 15]

    def test_commuting_actions(self):
        rng = random.Random(9)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3))))
            M = gr_module(trunc_ctx(spec, rng.randint(1, 7)), 5)
            assert M.commuting_violations() == []

    def test_generated_in_degree_zero(self):
        rng = random.Random(10)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            M = gr_module(trunc_ctx(spec, rng.randint(1, 7)), 5)
            p = spec.char
            for j in range(M.bound):
                target = M.dim(j + 1)
                if target == 0:
                    assert M.dim(j) == 0 or j + 1 > M.bound
                    continue
                stack = [
                    M.action_matrix(v, j)
                    for v in range(spec.num_vars)
                    if M.action_matrix(v, j).size
                ]
                if not stack:
                    assert target == 0
                    continue
                from nskoszul.modp import rank_mod

                assert rank_mod(np.hstack(stack), p) == target


class TestGrHilbert:
    def test_degree_zero_counts_generators(self):
        assert gr_hilbert(CTX13, 3)[0] == 3

    def test_degree_one_weights_1_3(self):
        # basis x^6, x^3 y, x y^2, y^3
        assert gr_hilbert(CTX13, 3)[1] == 4

    def test_whole_ring_growth(self):
        spec = RingSpec((2, 5, 7))
        dims = gr_hilbert(trunc_ctx(spec, 0), 2)
        n = 3
        assert dims == [1, n, n * (n + 1) // 2]


class TestGrBetti:
    def test_paper_example(self):
        assert gr_betti(CTX13, 12).entries == ((0, 0, 3), (1, 1, 2))

    def test_standard_graded_matches_regraded_resolution(self):
        # all weights 1: gr is the truncation itself, generated in one degree
        spec = RingSpec((1, 1), ("x", "y"))
        table = gr_betti(trunc_ctx(spec, 3), 10)
        assert table.entries == ((0, 0, 4), (1, 1, 3))

    def test_principal_module_is_free(self):
        ctx = OrdContext(W13, ((0, (0, 2)),))
        assert gr_betti(ctx, 8).entries == ((0, 0, 1),)

    def test_hilbert_euler_consistency(self):
        rng = random.Random(12)
        for _ in range(6):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            e = rng.randint(1, 7)
            bound = e + spec.num_vars * spec.max_weight + spec.num_vars
            ctx = trunc_ctx(spec, e)
            table = gr_betti(ctx, bound)
            hilb = gr_hilbert(ctx, bound)
            lhs = alternating_betti_series(table, bound)
            rhs = truncated_series_product(
                hilb, one_minus_t_power(spec.num_vars, bound), bound
            )
            assert lhs == rhs


def box_top_degree(ctx):
    # ord of the corner, the largest ord of a monomial in the box
    return sum(ctx.corner) - min(sum(m) for _, m in ctx.generators)


def box_oracle_cases():
    """(ctx, bound) pairs: random monomial ideals and truncations of twisted
    free modules, each at one bound below and one at or above the box's top
    degree."""
    rng = random.Random(61)
    contexts = []
    for _ in range(90):
        n = rng.randint(1, 3)
        spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(n)))
        mons = minimalize_monomials(
            tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))
        )
        contexts.append(OrdContext(spec, tuple((0, m) for m in mons)))
    for _ in range(12):
        n = rng.randint(1, 3)
        spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(n)))
        twists = tuple(rng.randint(-2, 3) for _ in range(rng.randint(2, 3)))
        contexts.append(OrdContext(spec, tuple(trunc_free_gens(spec, twists, rng.randint(1, 6)))))
    for ctx in contexts:
        top = box_top_degree(ctx)
        if top > 0:
            yield ctx, rng.randint(0, top - 1)
        yield ctx, rng.randint(top, top + 3)


class TestGrBettiOnBox:
    """gr_betti works on the exponent box; gr_module on the whole degree
    window, through betti_via_koszul, is its oracle."""

    def test_matches_whole_window_oracle(self):
        nonlinear = below = multi = 0
        for ctx, bound in box_oracle_cases():
            table = gr_betti(ctx, bound)
            assert table == betti_via_koszul(gr_module(ctx, bound), bound=bound), (ctx, bound)
            nonlinear += any(i != j for i, j, _ in table.entries)
            below += bound < box_top_degree(ctx)
            multi += ctx.num_components > 1
        assert nonlinear >= 10
        assert below >= 10
        assert multi >= 10

    def test_shrunken_corner_disagrees(self):
        # negative control: a box one short in some coordinate loses Betti numbers
        disagree = 0
        for ctx, bound in box_oracle_cases():
            corner = ctx.corner
            t = max(range(len(corner)), key=corner.__getitem__)
            if not corner[t]:
                continue
            shrunk = corner[:t] + (corner[t] - 1,) + corner[t + 1:]
            table = betti_via_koszul(gr_box_module(ctx, bound, shrunk), bound=bound)
            disagree += table != gr_betti(ctx, bound)
        assert disagree >= 1

    def test_corner_is_the_second_window(self):
        assert CTX13.corner == (5, 2)
        box = gr_box_module(CTX13, 6, CTX13.corner)
        whole = gr_module(CTX13, 6)
        assert box.corner == (5, 2)
        assert whole.corner is None
        # the box keeps exactly the whole window's labels m <= corner
        for j in range(7):
            kept = [lb for lb in whole.basis(j) if lb[1][0] <= 5 and lb[1][1] <= 2]
            assert list(box.basis(j)) == kept

    def test_extend_gr_pads_the_corner(self):
        sub = RingSpec((1, 1), ("x1", "x2"))
        ctx = OrdContext(sub, tuple((0, m) for m in trunc_gens(sub, 2)))
        E = extend_gr(gr_box_module(ctx, 8, (2, 2)), RingSpec((1, 1, 1)).companion())
        assert E.corner == (2, 2, 0)

    def test_dense_strands_refuse_a_corner(self):
        # x2 sends the label 1 to x1, not to x2: the strands do not split
        spec = RingSpec((1, 1)).companion()
        degrees = {0: ((0, (0, 0)),), 1: ((0, (1, 0)),)}
        actions = {(1, 0): ((0, 0, 1),)}
        assert betti_via_koszul(ExplicitGradedModule(spec, 1, degrees, actions))
        with pytest.raises(DegreeRangeError):
            betti_via_koszul(ExplicitGradedModule(spec, 1, degrees, actions, (1, 1)))


class TestTwistInvariance:
    @pytest.mark.parametrize("twist", [-3, -1, 0, 2, 4])
    def test_gr_ignores_twists(self, twist):
        e = 5
        shifted = OrdContext(W13, tuple(trunc_free_gens(W13, (twist,), e)))
        plain = trunc_ctx(W13, e - twist)
        a = gr_module(shifted, 7)
        b = gr_module(plain, 7)
        assert a.degrees == b.degrees
        assert a.actions == b.actions


class TestExtendGr:
    def test_identity_when_same_ring(self):
        M = gr_module(CTX13, 5)
        assert extend_gr(M, W13.companion()) is M

    def test_new_variable_acts_as_zero(self):
        sub = RingSpec((1,), ("x",))
        M = gr_module(OrdContext(sub, ((0, (1,)),)), 5)
        big = RingSpec((1, 1, 1), ("x", "y", "z"))
        E = extend_gr(M, big)
        assert E.hilbert() == M.hilbert()
        for var in (1, 2):
            for j in range(5):
                assert not E.action_matrix(var, j).any()

    def test_non_prefix_rejected(self):
        sub = RingSpec((1,), ("x",))
        M = gr_module(OrdContext(sub, ((0, (1,)),)), 4)
        with pytest.raises(SubringError):
            extend_gr(M, RingSpec((1, 1), ("z", "w")))
        with pytest.raises(SubringError):
            extend_gr(M, RingSpec((1, 1), ("x", "y"), char=101))

    def test_betti_convolves_with_koszul_on_new_variables(self):
        # one killed variable multiplies the table by (1 + t)
        sub = RingSpec((1, 1), ("x1", "x2"))
        ctx = OrdContext(sub, tuple((0, m) for m in trunc_gens(sub, 2)))
        M = gr_module(ctx, 8)
        small = betti_via_koszul(M, bound=8)
        big = RingSpec((1, 1, 1), ("x1", "x2", "x3"))
        E = extend_gr(M, big.companion())
        extended = betti_via_koszul(E, bound=8)
        expected = {}
        for i, j, r in small.entries:
            for t in (0, 1):
                key = (i + t, j + t)
                expected[key] = expected.get(key, 0) + r
        assert extended.as_dict() == expected
