import random

import pytest

from nskoszul.assoc_graded import OrdContext, extend_gr, gr_module
from nskoszul.complexes import (
    BettiTable,
    GradedFreeComplex,
    _homology_blocks,
    _homology_dense,
    check_complex,
    free_hilbert,
    homology_dims,
    koszul_complex,
    minimize_complex,
    positive_homology_vanishes,
    resolve_module,
    taylor_complex,
    totalize_tensor,
)
from nskoszul.egm import (
    ExplicitGradedModule,
    _betti_blocks,
    _betti_dense,
    _label_action_maps,
    betti_via_koszul,
    monomial_module,
)
from nskoszul.gb import monomial_elements
from nskoszul.koszul_check import linear_part
from nskoszul.ring import FreeModuleSpec, Polynomial, RingSpec, mon_divides
from nskoszul.truncation import trunc_gens

W13 = RingSpec((1, 3), ("x", "y"))
W14 = RingSpec((1, 4), ("x", "y"))
STD2 = RingSpec((1, 1), ("x", "y"))
STD3 = RingSpec((1, 1, 1), ("x", "y", "z"))


def paper_phi_complex():
    """0 -> S^2(-8) -> S^2(-5) + S(-6), the displayed resolution."""
    p = W13.char
    phi = (
        (Polynomial.term(W13, (0, 1)), Polynomial.zero(W13)),
        (Polynomial.term(W13, (3, 0), p - 1), Polynomial.term(W13, (0, 1))),
        (Polynomial.zero(W13), Polynomial.term(W13, (2, 0), p - 1)),
    )
    return GradedFreeComplex(
        W13, (FreeModuleSpec((5, 5, 6)), FreeModuleSpec((8, 8))), (phi,)
    )


class TestCheckComplex:
    def test_paper_phi_passes(self):
        assert check_complex(paper_phi_complex()).ok

    def test_zero_complex(self):
        C = GradedFreeComplex(W13, (FreeModuleSpec(()),), ())
        assert check_complex(C).ok

    def test_flipped_sign_detected(self):
        # corrupt one entry's sign in a length-2 complex: d o d picks it up
        T = taylor_complex(W13, trunc_gens(W13, 5))
        assert check_complex(T).ok
        bad_mat = [list(row) for row in T.diffs[0]]
        bad_mat[1][0] = -bad_mat[1][0]
        C = GradedFreeComplex(
            W13, T.modules, (tuple(tuple(r) for r in bad_mat),) + T.diffs[1:]
        )
        report = check_complex(C)
        assert not report.ok
        assert "o d_" in report.first

    def test_inhomogeneous_entry_detected(self):
        mat = (((Polynomial.term(W13, (1, 0)),),),)
        C = GradedFreeComplex(W13, (FreeModuleSpec((0,)), FreeModuleSpec((5,))), mat)
        report = check_complex(C)
        assert not report.ok
        assert "homogeneous" in report.first


class TestMinimize:
    def test_already_minimal_fixed_point(self):
        C = paper_phi_complex()
        M = minimize_complex(C)
        assert [m.twists for m in M.modules] == [(5, 5, 6), (8, 8)]
        assert M.diffs == C.diffs

    def test_taylor_complex_of_paper_example(self):
        T = taylor_complex(W13, trunc_gens(W13, 5))
        assert [m.rank for m in T.modules] == [3, 3, 1]
        M = minimize_complex(T)
        assert [sorted(m.twists) for m in M.modules] == [[5, 5, 6], [8, 8]]
        assert check_complex(M).ok

    def test_taylor_std2(self):
        # oracle: Koszul-homology Betti numbers of <x^2, xy>
        T = taylor_complex(STD2, [(2, 0), (1, 1)])
        M = minimize_complex(T)
        assert M.betti_from_twists() == betti_via_koszul(
            monomial_module(STD2, [(2, 0), (1, 1)], bound=8), bound=8
        ).restrict(8)

    def test_preserves_homology(self):
        rng = random.Random(13)
        for _ in range(10):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3))))
            gens = sorted(
                {
                    tuple(rng.randint(0, 3) for _ in range(spec.num_vars))
                    for _ in range(rng.randint(2, 5))
                }
                - {(0,) * spec.num_vars}
            )
            if not gens:
                continue
            T = taylor_complex(spec, gens)
            M = minimize_complex(T)
            bound = max(t for mod in T.modules for t in mod.twists) + 3
            assert homology_dims(T, bound) == homology_dims(M, bound)


class TestKoszulComplex:
    def test_single_weighted_variable(self):
        K = koszul_complex(W13, [1])
        assert [m.twists for m in K.modules] == [(0,), (3,)]
        assert K.diffs[0][0][0] == Polynomial.variable(W13, 1)

    def test_two_standard_variables(self):
        K = koszul_complex(STD2, [0, 1])
        assert [m.twists for m in K.modules] == [(0,), (1, 1), (2,)]
        assert check_complex(K).ok

    def test_exactness_in_positive_degrees(self):
        K = koszul_complex(STD3, [0, 1, 2])
        dims = homology_dims(K, 8)
        assert all(i == 0 for (i, _), _ in dims.items())

    def test_tensoring_shifts_by_one(self):
        # companion-ring Koszul complex on a weight-1 variable shifts twists by 1
        R = STD3
        K = koszul_complex(R, [2])
        F = koszul_complex(R, [0, 1])
        Tot = totalize_tensor(F, K)
        assert [sorted(m.twists) for m in Tot.modules] == [
            [0],
            [1, 1, 1],
            [2, 2, 2],
            [3],
        ]


class TestTotalize:
    def test_tensor_with_ring_is_identity_shape(self):
        F = paper_phi_complex()
        G = GradedFreeComplex(W13, (FreeModuleSpec((0,)),), ())
        Tot = totalize_tensor(F, G)
        assert [m.twists for m in Tot.modules] == [m.twists for m in F.modules]
        assert Tot.diffs == F.diffs

    def test_paper_horseshoe_input(self):
        R = STD2
        F = GradedFreeComplex(
            R,
            (FreeModuleSpec((0, 0)), FreeModuleSpec((1,))),
            (((Polynomial.variable(R, 0),), (Polynomial.variable(R, 1),)),),
        )
        G = koszul_complex(R, [1])
        Tot = totalize_tensor(F, G)
        assert [m.twists for m in Tot.modules] == [(0, 0), (1, 1, 1), (2,)]
        assert check_complex(Tot).ok

    def test_two_length_one_complexes(self):
        R = STD2
        one = koszul_complex(R, [0])
        other = koszul_complex(R, [1])
        Tot = totalize_tensor(one, other)
        assert [m.rank for m in Tot.modules] == [1, 2, 1]
        assert check_complex(Tot).ok

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            totalize_tensor(koszul_complex(STD2, [0]), koszul_complex(W13, [0]))


class TestResolve:
    def test_free_module_has_length_zero(self):
        F = resolve_module(monomial_elements(W13, [(0, 2)]))
        assert F.length == 0
        assert F.modules[0].twists == (6,)

    def test_paper_example_1_3(self):
        F = resolve_module(monomial_elements(W13, trunc_gens(W13, 5)))
        assert [m.twists for m in F.modules] == [(5, 5, 6), (8, 8)]

    def test_paper_second_example(self):
        F = resolve_module(monomial_elements(W14, trunc_gens(W14, 5)))
        assert [m.twists for m in F.modules] == [(5, 5, 8), (9, 9)]

    def test_raw_resolution_minimizes_to_same_table(self):
        gens = monomial_elements(STD2, trunc_gens(STD2, 3))
        raw = resolve_module(gens, minimize=False)
        minimal = resolve_module(gens, minimize=True)
        assert check_complex(raw).ok
        assert minimize_complex(raw).betti_from_twists() == minimal.betti_from_twists()


class TestHomologyDims:
    def test_paper_lin_complex_acyclic(self):
        R = STD2
        mat = (
            (Polynomial.variable(R, 1), Polynomial.zero(R)),
            (Polynomial.zero(R), Polynomial.variable(R, 1)),
            (Polynomial.zero(R), Polynomial.zero(R)),
        )
        L = GradedFreeComplex(R, (FreeModuleSpec((0, 0, 0)), FreeModuleSpec((1, 1))), (mat,))
        dims = homology_dims(L, 10)
        assert all(i == 0 for (i, _) in dims)

    def test_zero_differential_rank_nullity(self):
        mat = (((Polynomial.zero(STD2),),),)
        C = GradedFreeComplex(STD2, (FreeModuleSpec((0,)), FreeModuleSpec((2,))), mat)
        dims = homology_dims(C, 5)
        for j in range(2, 6):
            assert dims[(1, j)] == free_hilbert(STD2, (2,), j)

    def test_methods_agree(self):
        rng = random.Random(14)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3))))
            gens = sorted(
                {
                    tuple(rng.randint(0, 3) for _ in range(spec.num_vars))
                    for _ in range(rng.randint(2, 5))
                }
                - {(0,) * spec.num_vars}
            )
            if not gens:
                continue
            T = taylor_complex(spec, gens)
            bound = max(t for mod in T.modules for t in mod.twists) + 2
            blocks = _homology_blocks(T, bound)
            assert blocks is not None
            assert blocks == _homology_dense(T, bound) == homology_dims(T, bound)

    def test_grid_check_matches_bounded_count(self):
        # Strands live at multidegrees below the lcm of the generators, so
        # internal degree 3n covers all of them when exponents are <= 3.
        rng = random.Random(15)
        outcomes = set()
        for _ in range(40):
            n = rng.randint(2, 3)
            spec = RingSpec(tuple(rng.randint(1, 2) for _ in range(n)))
            gens = sorted(
                {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 5))}
                - {(0,) * n}
            )
            if not gens:
                continue
            L = linear_part(resolve_module(monomial_elements(spec, gens)), spec)
            vanishes = positive_homology_vanishes(L)
            bounded = homology_dims(L, 3 * n + 2)
            # both read the same grid walk, so the dense count is the reference
            assert bounded == _homology_dense(L, 3 * n + 2)
            assert vanishes == (not any(i >= 1 for i, _ in bounded))
            outcomes.add(vanishes)
        assert outcomes == {True, False}

    def test_bounded_count_matches_dense(self):
        # Negative controls, whose H_1 fills cells with no upper end, and
        # complexes over weights > 1, where a cell's degrees step by weight.
        W231 = RingSpec((2, 3, 1))
        K = koszul_complex(RingSpec((1, 2, 3)), [0, 1, 2])
        cases = [
            linear_part(resolve_module(monomial_elements(STD2, gens)), STD2)
            for gens in ([(2, 0), (0, 2)], [(2, 0), (0, 3)], [(3, 0), (2, 1), (0, 3)])
        ] + [
            taylor_complex(W231, [(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)]),
            GradedFreeComplex(K.spec, K.modules[:-1], K.diffs[:-1]),
        ]
        for C in cases:
            twists = [t for mod in C.modules for t in mod.twists]
            lo, hi = min(twists), max(twists)
            for bound in (lo - 1, lo, (lo + hi) // 2, hi, hi + 9):
                assert _homology_blocks(C, bound) == _homology_dense(C, bound)
        # the controls keep H_1 = S(-1) up to the bound, far past the grid
        assert homology_dims(cases[0], 12)[(1, 12)] == 12

    def test_grid_check_reaches_the_top_grid_point(self):
        # K(x, y, z) without its top generator: H_2 lives only at xyz, the
        # last of the eight points of the grid {0, 1}^3
        K = koszul_complex(STD3, [0, 1, 2])
        C = GradedFreeComplex(STD3, K.modules[:-1], K.diffs[:-1])
        assert positive_homology_vanishes(K) is True
        assert positive_homology_vanishes(C) is False
        # the cycle z e_xy - y e_xz + x e_yz generates a free H_2 = S(-3)
        assert {k: d for k, d in homology_dims(C, 5).items() if k[0] >= 1} == {
            (2, 3): 1,
            (2, 4): 3,
            (2, 5): 6,
        }

    def test_grid_check_declines_multiterm_entries(self):
        entry = Polynomial.variable(STD2, 0) + Polynomial.variable(STD2, 1)
        C = GradedFreeComplex(STD2, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), (((entry,),),))
        assert positive_homology_vanishes(C) is None

    def test_multiterm_entries_fall_back_to_dense(self):
        R = STD2
        entry = Polynomial.variable(R, 0) + Polynomial.variable(R, 1)
        C = GradedFreeComplex(R, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), ((( entry,),),))
        assert _homology_blocks(C, 4) is None
        dims = homology_dims(C, 4)
        assert dims == _homology_dense(C, 4)
        assert (0, 0) in dims


def _quotient(M, J, into_J=None):
    """M/J for a monomial ideal J: the labels of M outside J and the actions
    among them.  With into_J, the labels in J stay (the module M/J + J) and
    the arrows from outside J into J carry the coefficient into_J."""
    in_J = {
        lb: any(mon_divides(g, lb[1]) for g in J)
        for labels in M.degrees.values()
        for lb in labels
    }
    degrees = {
        j: tuple(lb for lb in labels if into_J is not None or not in_J[lb])
        for j, labels in M.degrees.items()
    }
    index = {lb: k for labels in degrees.values() for k, lb in enumerate(labels)}
    actions = {}
    for (var, j), triples in M.actions.items():
        src, tgt = M.degrees[j], M.degrees[j + M.spec.weights[var]]
        kept = []
        for r, c, coeff in triples:
            if tgt[r] in index and src[c] in index:
                if in_J[tgt[r]] and not in_J[src[c]]:
                    coeff = into_J
                kept.append((index[tgt[r]], index[src[c]], coeff))
        if kept:
            actions[(var, j)] = tuple(kept)
    return ExplicitGradedModule(M.spec, M.bound, degrees, actions)


def _rescaled(M, rng):
    """M on the basis u_m * m for random units u_m: non-unit action coefficients."""
    p = M.spec.char
    unit = {lb: rng.randrange(1, p) for labels in M.degrees.values() for lb in labels}
    actions = {}
    for (var, j), triples in M.actions.items():
        src, tgt = M.degrees[j], M.degrees[j + M.spec.weights[var]]
        actions[(var, j)] = tuple(
            (r, c, coeff * unit[src[c]] * pow(unit[tgt[r]], -1, p) % p)
            for r, c, coeff in triples
        )
    return ExplicitGradedModule(M.spec, M.bound, M.degrees, actions)


def _strand_oracle_modules():
    """Modules whose actions send each label to a multiple of x_t * label: a
    truncation, gr of truncations, rescaled monomial quotients at three
    characteristics, quotients whose arrows into J have coefficient p,
    extend_gr modules and the residue field."""
    yield monomial_module(W13, trunc_gens(W13, 5), bound=11)
    for weights, e in (((1, 3), 5), ((2, 3), 4), ((1, 1, 2), 3), ((1, 2, 2), 2)):
        spec = RingSpec(weights)
        yield gr_module(OrdContext(spec, trunc_gens(spec, e)), 2 * len(weights) + 2)
    rng = random.Random(5)
    for p in (2, 3, 32003):
        for _ in range(6):
            spec = RingSpec(tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3))), char=p)
            n = spec.num_vars
            gens = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))}
            J = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))}
            M = monomial_module(spec, gens, bound=max(map(spec.wdeg, gens)) + n + 2)
            yield _rescaled(_quotient(M, J), rng)
            yield _quotient(M, J, into_J=p)
    big = RingSpec((1, 1, 1), ("x", "y", "z"))
    for sub, e in ((RingSpec((1,), ("x",)), 2), (RingSpec((1, 2), ("x", "y")), 3)):
        gr = gr_module(OrdContext(sub, trunc_gens(sub, e)), 5)
        yield extend_gr(gr, big)
    yield ExplicitGradedModule(big, 4, {0: ((0, (0, 0, 0)),)}, {})
    yield ExplicitGradedModule(RingSpec((1, 2)), 5, {0: ((0, (0, 0)),)}, {})


class TestBettiViaKoszul:
    def test_residue_field(self):
        # keep only degree 0: the field
        k = ExplicitGradedModule(STD2, 4, {0: ((0, (0, 0)),)}, {})
        assert betti_via_koszul(k, bound=4).entries == ((0, 0, 1), (1, 1, 2), (2, 2, 1))

    def test_gr_of_truncation(self):
        ctx = OrdContext(W13, tuple((0, m) for m in trunc_gens(W13, 5)))
        assert betti_via_koszul(gr_module(ctx, 12), bound=12).entries == (
            (0, 0, 3),
            (1, 1, 2),
        )

    def test_agrees_with_resolution_on_random_ideals(self):
        rng = random.Random(15)
        for _ in range(10):
            spec = RingSpec((rng.randint(1, 3), rng.randint(1, 3)))
            gens = sorted(
                {
                    (rng.randint(0, 4), rng.randint(0, 4))
                    for _ in range(rng.randint(1, 5))
                }
                - {(0, 0)}
            )
            if not gens:
                continue
            bound = max(spec.wdeg(m) for m in gens) + 2 * spec.max_weight + 4
            M = monomial_module(spec, gens, bound=bound)
            table = betti_via_koszul(M, bound=bound)
            F = resolve_module(monomial_elements(spec, gens))
            assert F.betti_from_twists().restrict(bound) == table

    def test_strand_methods_agree(self):
        for M in _strand_oracle_modules():
            assert M.commuting_violations() == []
            maps = _label_action_maps(M)
            assert maps is not None
            for bound in sorted({M.bound // 2, M.bound}):
                assert (
                    _betti_blocks(M, maps, bound)
                    == _betti_dense(M, bound)
                    == betti_via_koszul(M, bound=bound)
                )

    def test_bound_beyond_storage_rejected(self):
        from nskoszul.egm import DegreeRangeError

        M = monomial_module(W13, trunc_gens(W13, 5), bound=8)
        with pytest.raises(DegreeRangeError):
            betti_via_koszul(M, bound=9)


class TestBettiTable:
    def test_euler_characteristic_of_resolution(self):
        # per-degree alternating sum of free module dims equals module dims
        gens = trunc_gens(W13, 5)
        F = resolve_module(monomial_elements(W13, gens))
        M = monomial_module(W13, gens, bound=12)
        for j in range(0, 13):
            euler = sum(
                (-1) ** i * free_hilbert(W13, F.modules[i].twists, j)
                for i in range(F.length + 1)
            )
            assert euler == M.dim(j)

    def test_restrict_and_total(self):
        t = BettiTable(((0, 0, 3), (1, 1, 2), (2, 5, 7)))
        assert t.restrict(1).entries == ((0, 0, 3), (1, 1, 2))
        assert t.total(2) == 7
        assert not t.is_diagonal()

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            BettiTable(((0, 0, 1), (0, 0, 2)))
