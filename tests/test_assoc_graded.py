import hashlib
import random
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

import oracles

from nskoszul.assoc_graded import (
    OrdContext,
    _least_divisor_degrees,
    gr_betti,
    gr_box_module,
    gr_hilbert,
    gr_module,
)
from nskoszul.construction import _pick_last_variable, layer_count
from nskoszul.egm import _critical_labels, betti_via_koszul
from nskoszul.koszul_check import recommended_bound
from nskoszul.ring import RingSpec
from nskoszul.sweep import sweep_cases
from nskoszul.truncation import filtration_layer, minimalize_monomials, trunc_gens

W13 = RingSpec((1, 3), ("x", "y"))


def trunc_ctx(spec, e):
    return OrdContext(spec, tuple((0, m) for m in trunc_gens(spec, e)))


CTX13 = trunc_ctx(W13, 5)


class TestOrd:
    def test_minimal_generators_have_ord_zero(self):
        for _, m in CTX13.generators:
            assert oracles.ord_scan(CTX13, m) == 0

    def test_divisor_minimum(self):
        # |x^3 y| - |x^2 y| = 4 - 3
        assert oracles.ord_scan(CTX13, (3, 1)) == 1
        # smallest dividing generator of x^3 y^2 is y^2: 5 - 2
        assert oracles.ord_scan(CTX13, (3, 2)) == 3
        # and of x^2 y^2 as well: 4 - 2
        assert oracles.ord_scan(CTX13, (2, 2)) == 2

    def test_outside_module_raises(self):
        with pytest.raises(oracles.NotInModule):
            oracles.ord_scan(CTX13, (1, 0))

    @pytest.mark.parametrize(
        "gens,match",
        [
            (((-1, 2),), "negative exponent"),
            (((0, (1, -2)),), "negative exponent"),
            (((1, 0), (0.5, 1)), "exponent must be an integer"),
            (((1, (2, 1.0)),), "exponent must be an integer"),
        ],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda ctx: gr_hilbert(ctx, 3),
            lambda ctx: gr_module(ctx, 3),
            gr_betti,
        ],
    )
    def test_bad_exponent_rejected(self, gens, match, build):
        # negative control: (-1, 2) used to give gr_hilbert [0, 1, 2, 3] and
        # an IndexError in gr_box_module; as an index into the ord table a
        # negative exponent would wrap round
        with pytest.raises(ValueError, match=match):
            build(OrdContext(RingSpec((1, 2)), gens))

    def test_integral_exponents_accepted(self):
        ctx = OrdContext(W13, ((np.int64(1), (np.int64(2), 0)), (0, 2)))
        assert ctx.generators == ((0, (0, 2)), (1, (2, 0)))
        assert type(ctx.generators[1][1][0]) is int
        assert ctx.corner == (2, 2)

    def test_ord_monotone_under_variables(self):
        rng = random.Random(3)
        for _ in range(10):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            ctx = trunc_ctx(spec, rng.randint(1, 8))
            M = gr_module(ctx, 6)
            for j, labels in oracles.module_view(M)[0].items():
                for _, v in labels:
                    for var in range(spec.num_vars):
                        step = tuple(
                            e + (1 if k == var else 0) for k, e in enumerate(v)
                        )
                        assert oracles.ord_scan(ctx, step) >= oracles.ord_scan(ctx, v) + 1


class TestGrModule:
    def test_degree_zero_basis(self):
        M = gr_module(CTX13, 6)
        assert [m for _, m in oracles.module_basis(M, 0)] == [(5, 0), (2, 1), (0, 2)]

    def test_paper_action_structure(self):
        # gr splits as two killed-by-y summands and one free one
        M = gr_module(CTX13, 6)
        basis0 = list(oracles.module_basis(M, 0))
        basis1 = list(oracles.module_basis(M, 1))
        y = 1
        mat = oracles.action_matrix(M, y, 0)
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
            assert oracles.commuting_violations(M) == []

    def test_generated_in_degree_zero(self):
        rng = random.Random(10)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            M = gr_module(trunc_ctx(spec, rng.randint(1, 7)), 5)
            p = spec.char
            for j in range(M.bound):
                target = oracles.module_dim(M, j + 1)
                if target == 0:
                    assert oracles.module_dim(M, j) == 0 or j + 1 > M.bound
                    continue
                stack = [
                    oracles.action_matrix(M, v, j)
                    for v in range(spec.num_vars)
                    if oracles.action_matrix(M, v, j).size
                ]
                if not stack:
                    assert target == 0
                    continue
                assert oracles.rank_mod(np.hstack(stack), p) == target

    @pytest.mark.parametrize(
        "weights,e,module_digest,hilbert_digest",
        [
            (
                (1, 3),
                5,
                "fa6c41b119ef082b6ef08189376ce8fbab6e416e5127d8bc24c8b775dc244a19",
                "37aeacbcc439a9b2aed341c458c772dcccfb18ebbae0886a426914ebb6d42478",
            ),
            (
                (1, 1, 2),
                4,
                "239964a6c4ff4e7883a32e906b22d0ae5578a618b0309ea61f9ffdd7dc604c63",
                "4a0d1b28d9a98a53a666cefc128255bf349afc7f1b88bcbcbc290bdbb89f347d",
            ),
            (
                (1, 1, 2, 3),
                3,
                "6e08079ed9ac756a053993139fa215781a7b5d8ecacdb59357f6899245f90ed5",
                "678b2ab1a2658026c80f667e038d9ad7838dec8949e1aaf72484bcd6ebccb484",
            ),
        ],
    )
    def test_bytes(self, weights, e, module_digest, hilbert_digest):
        # the order of the degrees dict, of each degree's labels and of each
        # label map, at the recommended bound
        spec = RingSpec(weights)
        bound = recommended_bound(spec, e)
        M = gr_module(trunc_ctx(spec, e), bound)
        digest = hashlib.sha256(repr(oracles.module_view(M)).encode()).hexdigest()
        assert digest == module_digest
        hilbert = repr(gr_hilbert(trunc_ctx(spec, e), bound))
        assert hashlib.sha256(hilbert.encode()).hexdigest() == hilbert_digest


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

    def test_negative_bound_rejected(self):
        for build in (gr_hilbert, gr_module):
            with pytest.raises(ValueError, match="bound must be non-negative"):
                build(CTX13, -1)
        assert gr_hilbert(CTX13, 0) == [3]


class TestGrBetti:
    def test_paper_example(self):
        assert gr_betti(CTX13).entries == ((0, 0, 3), (1, 1, 2))

    def test_standard_graded_matches_regraded_resolution(self):
        # all weights 1: gr is the truncation itself, generated in one degree
        spec = RingSpec((1, 1), ("x", "y"))
        table = gr_betti(trunc_ctx(spec, 3))
        assert table.entries == ((0, 0, 4), (1, 1, 3))

    def test_principal_module_is_free(self):
        ctx = OrdContext(W13, ((0, (0, 2)),))
        assert gr_betti(ctx).entries == ((0, 0, 1),)

    def test_whole_table_shows_the_off_diagonal_syzygy(self):
        # negative control: (x^2, y^2) is not componentwise linear; its
        # syzygy sits at (1, 2), above a bound of 1 but not beyond the box
        ctx = OrdContext(RingSpec((1, 1)), ((0, (2, 0)), (0, (0, 2))))
        table = gr_betti(ctx)
        assert (1, 2, 1) in table.entries
        assert not table.is_diagonal()
        assert table.restrict(1).is_diagonal()

    def test_hilbert_euler_consistency(self):
        rng = random.Random(12)
        for _ in range(6):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            e = rng.randint(1, 7)
            bound = e + spec.num_vars * spec.max_weight + spec.num_vars
            ctx = trunc_ctx(spec, e)
            table = gr_betti(ctx)
            hilb = gr_hilbert(ctx, bound)
            lhs = oracles.alternating_betti_series(table, bound)
            rhs = oracles.truncated_series_product(
                hilb, oracles.one_minus_t_power(spec.num_vars, bound), bound
            )
            assert lhs == rhs


def box_top_degree(ctx):
    # ord of the corner, the largest ord of a monomial in the box
    return sum(ctx.corner) - min(sum(m) for _, m in ctx.generators)


def box_oracle_cases():
    """(ctx, bound) pairs: random monomial ideals and truncations of twisted
    free modules, each at one bound below and one at or above the box's top
    degree, and at the top degree plus n, where the whole table shows."""
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
        gens = oracles.trunc_free_gens(spec, twists, rng.randint(1, 6))
        contexts.append(OrdContext(spec, tuple(gens)))
    for ctx in contexts:
        top = box_top_degree(ctx)
        if top > 0:
            yield ctx, rng.randint(0, top - 1)
        yield ctx, rng.randint(top, top + 3)
        yield ctx, top + ctx.spec.num_vars


class TestGrBettiOnBox:
    """gr_betti works on the whole exponent box, with no degree bound;
    gr_module on a degree window, through betti_via_koszul, is its oracle."""

    def test_matches_whole_window_oracle(self):
        nonlinear = below = multi = whole = 0
        for ctx, bound in box_oracle_cases():
            table = gr_betti(ctx)
            oracle = betti_via_koszul(gr_module(ctx, bound), bound=bound)
            assert table.restrict(bound) == oracle, (ctx, bound)
            if bound >= box_top_degree(ctx) + ctx.spec.num_vars:
                assert table == oracle, (ctx, bound)
                whole += 1
            nonlinear += not table.is_diagonal()
            below += bound < box_top_degree(ctx)
            multi += ctx.num_components > 1
        assert nonlinear >= 10
        assert below >= 10
        assert multi >= 10
        assert whole >= 100

    def test_shrunken_corner_disagrees(self):
        # negative control: a box one short in some coordinate loses Betti numbers
        disagree = 0
        for ctx in dict.fromkeys(ctx for ctx, _ in box_oracle_cases()):
            corner = ctx.corner
            t = max(range(len(corner)), key=corner.__getitem__)
            if not corner[t]:
                continue
            shrunk = corner[:t] + (corner[t] - 1,) + corner[t + 1:]
            box = gr_box_module(ctx)
            degrees = {
                j: [lb for lb in labels if lb[1][t] <= shrunk[t]]
                for j, labels in oracles.module_view(box)[0].items()
            }
            table = betti_via_koszul(oracles.labelled_module(box.spec, box.bound, degrees, shrunk))
            disagree += table != gr_betti(ctx)
        assert disagree >= 1

    def test_corner_is_the_second_window(self):
        assert CTX13.corner == (5, 2)
        box = gr_box_module(CTX13)
        assert box.corner == (5, 2)
        # stored up to the largest ord in the box, the ord of the corner
        assert box.bound == box_top_degree(CTX13) == oracles.ord_scan(CTX13, (5, 2)) == 5
        whole = gr_module(CTX13, box.bound)
        assert whole.corner is None
        # the box keeps exactly the whole window's labels m <= corner
        for j in range(box.bound + 1):
            kept = [lb for lb in oracles.module_basis(whole, j) if lb[1][0] <= 5 and lb[1][1] <= 2]
            assert list(oracles.module_basis(box, j)) == kept

    def test_extend_gr_pads_the_corner(self):
        sub = RingSpec((1, 1), ("x1", "x2"))
        ctx = OrdContext(sub, tuple((0, m) for m in trunc_gens(sub, 2)))
        E = oracles.extend_gr(gr_box_module(ctx), RingSpec((1, 1, 1)).companion())
        assert E.corner == (2, 2, 0)



def ord_table_contexts():
    """(ctx, bound): the 408 truncations of the acceptance sweep, at a window
    one past the ord of the corner; gr4's windows (four variables, weights
    <= 2, e <= 3, at the recommended bound); construction's filtration
    layers, which are not truncations; and contexts of two or three
    components, some with no generator in component 0.  The sweep cycles
    through p = 2, 3 and 32003, the others take each."""
    chars = (2, 3, 32003)
    for k, case in enumerate(sweep_cases(3, 4, 12)):
        ctx = trunc_ctx(RingSpec(case.weights, char=chars[k % 3]), case.e)
        yield ctx, box_top_degree(ctx) + 1
    rng = random.Random(8)
    for p in chars:
        for weights in combinations_with_replacement((1, 2), 4):
            spec = RingSpec(weights, char=p)
            for e in (1, 2, 3):
                yield trunc_ctx(spec, e), recommended_bound(spec, e)
        for weights in combinations_with_replacement((1, 2, 3), 3):
            spec = RingSpec(weights, char=p)
            e = rng.randint(2, 7)
            gens = trunc_gens(spec, e)
            var = _pick_last_variable(weights)
            for i in range(layer_count(weights, e) + 1):
                layer = filtration_layer(gens, i, var)
                yield OrdContext(spec, tuple((0, m) for m in layer)), recommended_bound(spec, e)
        for _ in range(10):
            n = rng.randint(1, 4)
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(n)), char=p)
            twists = tuple(rng.randint(-2, 2) for _ in range(rng.randint(2, 3)))
            gens = oracles.trunc_free_gens(spec, twists, rng.randint(1, 4))
            yield OrdContext(spec, tuple(gens)), 4
            gens = [
                (rng.randint(1, 2), tuple(rng.randint(0, 3) for _ in range(n)))
                for _ in range(rng.randint(1, 5))
            ]
            yield OrdContext(spec, gens), rng.randint(0, 5)


def scan_window_degrees(ctx, bound):
    # gr_module's labels as they were listed from the scan's ord dicts
    degrees = {}
    for comp in range(ctx.num_components):
        for m, o in oracles._component_ord_table(ctx, comp, bound).items():
            degrees.setdefault(o, []).append((comp, m))
    return degrees


def scan_box_degrees(ctx):
    # gr_box_module's labels as they were listed from the scan of the box
    box = list(product(*(range(c + 1) for c in ctx.corner)))
    box_arr = np.array(box, dtype=np.int64)
    degrees = {}
    for comp in range(ctx.num_components):
        gen_arr = oracles._gen_array(ctx, comp)
        if not len(gen_arr):
            continue
        ords = oracles._ords(box_arr, gen_arr)
        for k in np.nonzero(ords >= 0)[0]:
            degrees.setdefault(int(ords[k]), []).append((comp, box[k]))
    return degrees


def module_items(view):
    degrees, actions = view
    return list(degrees.items()), [list(image.items()) for image in actions]


class TestOrdTable:
    """The prefix-minimum ord table and the modules built from it against the
    scan that compares every candidate with every generator."""

    def test_table_matches_the_scans(self):
        rng = random.Random(20)
        contexts = ords_checked = 0
        for ctx, _ in ord_table_contexts():
            box = np.array(list(product(*(range(c + 1) for c in ctx.corner))), dtype=np.int64)
            tables = dict(_least_divisor_degrees(ctx))
            assert sorted(tables) == sorted({c for c, _ in ctx.generators})
            for comp, least in tables.items():
                ords = np.where(least < np.iinfo(np.int64).max, box.sum(axis=1) - least, -1)
                gen_arr = oracles._gen_array(ctx, comp)
                assert np.array_equal(ords, oracles._ords(box, gen_arr)), ctx
                for k in {len(box) - 1, *(rng.randrange(len(box)) for _ in range(4))}:
                    v = tuple(box[k].tolist())
                    if ords[k] < 0:
                        with pytest.raises(oracles.NotInModule):
                            oracles.ord_scan(ctx, (comp, v))
                    else:
                        assert oracles.ord_scan(ctx, (comp, v)) == ords[k]
                    ords_checked += 1
            contexts += 1
        assert contexts >= 408 + 3 * (15 + 10 + 2 * 10)
        assert ords_checked > 2000

    def test_modules_match_the_scans(self):
        multi = empty_first = 0
        for ctx, bound in ord_table_contexts():
            spec = ctx.spec.companion()
            degrees = scan_window_degrees(ctx, bound)
            M = gr_module(ctx, bound)
            views = [oracles.module_view(M)]
            want = oracles.labelled_module(spec, bound, degrees)
            assert module_items(views[0]) == module_items(oracles.module_view(want)), ctx
            assert gr_hilbert(ctx, bound) == [len(degrees.get(j, ())) for j in range(bound + 1)]
            degrees = scan_box_degrees(ctx)
            box = gr_box_module(ctx)
            views.append(oracles.module_view(box))
            want = oracles.labelled_module(spec, max(degrees), degrees, ctx.corner)
            assert module_items(views[1]) == module_items(oracles.module_view(want)), ctx
            assert box.bound == want.bound and box.corner == want.corner
            for N, view in zip((M, box), views):
                # the arrays the builder made, and those built from its dict
                # view, with the labels matched up
                bare = oracles.module_from_dicts(N.spec, N.bound, *view, N.corner)
                labels, bare_labels = oracles.module_labels(N), oracles.module_labels(bare)
                at = {lb: i for i, lb in enumerate(labels)}
                perm = np.array([at[lb] for lb in bare_labels], dtype=np.int64)
                assert np.array_equal(np.sort(perm), np.arange(len(labels)))
                crit, rows, bits = _critical_labels(N, N.bound)
                crit_b, rows_b, bits_b = _critical_labels(bare, N.bound)
                assert crit == crit_b
                kept = sorted(zip((labels[r] for r in rows.tolist()), bits.tolist()))
                kept_b = sorted(zip((bare_labels[r] for r in rows_b.tolist()), bits_b.tolist()))
                assert kept == kept_b
                for name in ("comp", "deg", "exps", "coef", "reached"):
                    assert np.array_equal(getattr(N, name)[perm], getattr(bare, name)), name
            multi += ctx.num_components > 1
            empty_first += not ctx.component_gens(0)
        assert multi >= 40
        assert empty_first >= 10


def label_map_contexts():
    """(ctx, bounds): at p = 2, 3 and 32003 the 63 grid3 truncations (n <= 3,
    weights <= 2, e <= 7) at a window one past the ord of the corner, and
    gr4's truncations (four variables, weights <= 2, e <= 3) at the
    recommended bound; and 600 random modules of rank 2 or 3
    (oracles.random_monomial_modules) at the bounds 0, one below the ord of
    the corner, and that ord plus n."""
    for p in (2, 3, 32003):
        for case in sweep_cases(3, 2, 7, char=p):
            ctx = trunc_ctx(RingSpec(case.weights, char=p), case.e)
            yield ctx, [box_top_degree(ctx) + 1]
        for weights in combinations_with_replacement((1, 2), 4):
            spec = RingSpec(weights, char=p)
            for e in (1, 2, 3):
                yield trunc_ctx(spec, e), [recommended_bound(spec, e)]
    for spec, _, gens in oracles.random_monomial_modules(30, 600, (2, 3)):
        ctx = OrdContext(spec, gens)
        top = box_top_degree(ctx)
        yield ctx, sorted({0, max(top - 1, 0), top + spec.num_vars})


class TestLabelMapsFromTheTable:
    """The label maps gr_module and gr_box_module read off the least-divisor
    table against the key search over the same label arrays
    (oracles._array_module)."""

    def test_match_the_key_search(self):
        contexts = modules = acting = multi = 0
        for ctx, bounds in label_map_contexts():
            for M in (gr_box_module(ctx), *(gr_module(ctx, bound) for bound in bounds)):
                want = oracles._array_module(M.spec, M.bound, M.comp, M.exps, M.deg, M.corner)
                assert M.coef.dtype == want.coef.dtype and M.reached.dtype == want.reached.dtype
                assert np.array_equal(M.coef, want.coef), (ctx, M.bound, M.corner)
                assert np.array_equal(M.reached, want.reached), (ctx, M.bound, M.corner)
                modules += 1
                acting += int(M.coef.sum())
            contexts += 1
            multi += ctx.num_components > 1
        assert contexts == 3 * (63 + 15) + 600
        assert modules >= 2 * 3 * (63 + 15) + 2 * 600
        assert multi >= 500
        assert acting > 10**5


class TestDictViewRoundTrip:
    """The dict view of an array-built module, built back through the
    oracle builder, has the same Betti table."""

    def test_same_table_both_ways(self):
        modules = dense = 0
        for case in sweep_cases(3, 4, 12, char=32003):
            spec = RingSpec(case.weights, char=32003)
            ctx = trunc_ctx(spec, case.e)
            box = gr_box_module(ctx)
            view = oracles.module_view(box)
            back = oracles.module_from_dicts(box.spec, box.bound, *view, box.corner)
            table = betti_via_koszul(box)
            assert betti_via_koszul(back) == table, case
            if len(box.deg) <= 30:
                # the box's strands are those of the window up to the top
                # degree plus n, where the whole table shows
                bound = box.bound + spec.num_vars
                assert table == oracles.betti_dense(gr_module(ctx, bound), bound), case
                dense += 1
            modules += 1
        for weights in combinations_with_replacement((1, 2), 4):
            spec = RingSpec(weights, char=32003)
            for e in (1, 2, 3):
                bound = recommended_bound(spec, e)
                M = gr_module(trunc_ctx(spec, e), bound)
                back = oracles.module_from_dicts(M.spec, bound, *oracles.module_view(M))
                assert betti_via_koszul(back, bound) == betti_via_koszul(M, bound), (weights, e)
                modules += 1
        assert modules == 408 + 15
        assert dense >= 200


class TestLabelMaps:
    def test_builders_keep_the_invariant(self):
        # gr_module, gr_box_module, monomial_module and extend_gr store label
        # maps: stored keys, stored images one weight up, nonzero coefficients
        checked = 0
        for ctx, bound in list(box_oracle_cases())[::5]:
            twists = (0,) * ctx.num_components
            gr = gr_module(ctx, bound)
            big = RingSpec(gr.spec.weights + (1,), gr.spec.names + ("w",), gr.spec.char)
            for M in (
                gr,
                gr_box_module(ctx),
                oracles.monomial_module(ctx.spec, ctx.generators, twists, bound),
                oracles.extend_gr(gr, big),
                oracles.extend_gr(gr_box_module(ctx), big),
            ):
                oracles.check_label_maps(M)
                checked += sum(map(len, oracles.module_view(M)[1]))
        assert checked >= 1000


class TestTwistInvariance:
    @pytest.mark.parametrize("twist", [-3, -1, 0, 2, 4])
    def test_gr_ignores_twists(self, twist):
        e = 5
        shifted = OrdContext(W13, tuple(oracles.trunc_free_gens(W13, (twist,), e)))
        plain = trunc_ctx(W13, e - twist)
        a = gr_module(shifted, 7)
        b = gr_module(plain, 7)
        assert oracles.module_view(a) == oracles.module_view(b)


class TestExtendGr:
    def test_identity_when_same_ring(self):
        M = gr_module(CTX13, 5)
        assert oracles.extend_gr(M, W13.companion()) is M

    def test_new_variable_acts_as_zero(self):
        sub = RingSpec((1,), ("x",))
        M = gr_module(OrdContext(sub, ((0, (1,)),)), 5)
        big = RingSpec((1, 1, 1), ("x", "y", "z"))
        E = oracles.extend_gr(M, big)
        assert oracles.module_hilbert(E) == oracles.module_hilbert(M)
        for var in (1, 2):
            for j in range(5):
                assert not oracles.action_matrix(E, var, j).any()

    def test_non_prefix_rejected(self):
        sub = RingSpec((1,), ("x",))
        M = gr_module(OrdContext(sub, ((0, (1,)),)), 4)
        with pytest.raises(oracles.SubringError):
            oracles.extend_gr(M, RingSpec((1, 1), ("z", "w")))
        with pytest.raises(oracles.SubringError):
            oracles.extend_gr(M, RingSpec((1, 1), ("x", "y"), char=101))

    def test_betti_convolves_with_koszul_on_new_variables(self):
        # one killed variable multiplies the table by (1 + t)
        sub = RingSpec((1, 1), ("x1", "x2"))
        ctx = OrdContext(sub, tuple((0, m) for m in trunc_gens(sub, 2)))
        M = gr_module(ctx, 8)
        small = betti_via_koszul(M, bound=8)
        big = RingSpec((1, 1, 1), ("x1", "x2", "x3"))
        E = oracles.extend_gr(M, big.companion())
        extended = betti_via_koszul(E, bound=8)
        expected = {}
        for i, j, r in small.entries:
            for t in (0, 1):
                key = (i + t, j + t)
                expected[key] = expected.get(key, 0) + r
        assert extended.as_dict() == expected
