import json
import random
from dataclasses import replace
from itertools import combinations_with_replacement, product
from math import comb
from operator import or_
from pathlib import Path

import numpy as np
import pytest

import oracles
from nskoszul import complexes, gb, modp
from nskoszul.assoc_graded import OrdContext, gr_box_module, gr_module
from nskoszul.complexes import (
    BettiTable,
    GradedFreeComplex,
    NoFiniteDecision,
    _apparent_lows,
    _multidegree_blocks,
    homology_witnesses,
    resolve_module,
)
from nskoszul.egm import ExplicitGradedModule, _betti_blocks, _critical_labels, betti_via_koszul
from nskoszul.gb import monomial_elements
from nskoszul.koszul_check import linear_part, recommended_bound
from nskoszul.ring import DimensionMismatch, FreeModuleSpec, RingSpec, mon_divides
from nskoszul.sweep import sweep_cases
from nskoszul.truncation import trunc_gens

W13 = RingSpec((1, 3), ("x", "y"))
W14 = RingSpec((1, 4), ("x", "y"))
STD2 = RingSpec((1, 1), ("x", "y"))
STD3 = RingSpec((1, 1, 1), ("x", "y", "z"))
REPO = Path(__file__).resolve().parent.parent


def paper_phi_complex():
    """0 -> S^2(-8) -> S^2(-5) + S(-6), the displayed resolution."""
    p = W13.char
    # the columns of (y, -x^3, 0) and (0, y, -x^2)
    phi = (
        {(0, (0, 1)): 1, (1, (3, 0)): p - 1},
        {(1, (0, 1)): 1, (2, (2, 0)): p - 1},
    )
    return GradedFreeComplex(
        W13, (FreeModuleSpec((5, 5, 6)), FreeModuleSpec((8, 8))), (phi,)
    )


class TestCheckComplex:
    def test_paper_phi_passes(self):
        assert oracles.check_complex(paper_phi_complex()).ok

    def test_zero_complex(self):
        C = GradedFreeComplex(W13, (FreeModuleSpec(()),), ())
        assert oracles.check_complex(C).ok

    def test_flipped_sign_detected(self):
        # corrupt one entry's sign in a length-2 complex: d o d picks it up
        T = oracles.taylor_complex(W13, trunc_gens(W13, 5))
        assert oracles.check_complex(T).ok
        p = W13.char
        first, *rest = T.diffs[0]
        assert any(r == 1 for r, _ in first)
        bad = {(r, m): p - c if r == 1 else c for (r, m), c in first.items()}
        C = GradedFreeComplex(W13, T.modules, ((bad, *rest),) + T.diffs[1:])
        report = oracles.check_complex(C)
        assert not report.ok
        assert "o d_" in report.first

    def test_inhomogeneous_entry_detected(self):
        d1 = (({(0, (1, 0)): 1},),)
        C = GradedFreeComplex(W13, (FreeModuleSpec((0,)), FreeModuleSpec((5,))), d1)
        report = oracles.check_complex(C)
        assert not report.ok
        assert "homogeneous" in report.first


class TestMinimize:
    def test_already_minimal_fixed_point(self):
        C = paper_phi_complex()
        M = oracles.minimize_complex(C)
        assert [m.twists for m in M.modules] == [(5, 5, 6), (8, 8)]
        assert M.diffs == C.diffs

    def test_taylor_complex_of_paper_example(self):
        T = oracles.taylor_complex(W13, trunc_gens(W13, 5))
        assert [m.rank for m in T.modules] == [3, 3, 1]
        M = oracles.minimize_complex(T)
        assert [sorted(m.twists) for m in M.modules] == [[5, 5, 6], [8, 8]]
        assert oracles.check_complex(M).ok

    def test_taylor_std2(self):
        # oracle: Koszul-homology Betti numbers of <x^2, xy>
        T = oracles.taylor_complex(STD2, [(2, 0), (1, 1)])
        M = oracles.minimize_complex(T)
        assert M.betti_from_twists() == betti_via_koszul(
            oracles.monomial_module(STD2, [(2, 0), (1, 1)], bound=8), bound=8
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
            T = oracles.taylor_complex(spec, gens)
            M = oracles.minimize_complex(T)
            bound = max(t for mod in T.modules for t in mod.twists) + 3
            assert oracles.homology_dims(T, bound) == oracles.homology_dims(M, bound)


class TestKoszulComplex:
    def test_single_weighted_variable(self):
        K = oracles.koszul_complex(W13, [1])
        assert [m.twists for m in K.modules] == [(0,), (3,)]
        assert K.diffs == (({(0, (0, 1)): 1},),)

    def test_two_standard_variables(self):
        K = oracles.koszul_complex(STD2, [0, 1])
        assert [m.twists for m in K.modules] == [(0,), (1, 1), (2,)]
        assert oracles.check_complex(K).ok

    def test_exactness_in_positive_degrees(self):
        K = oracles.koszul_complex(STD3, [0, 1, 2])
        dims = oracles.homology_dims(K, 8)
        assert all(i == 0 for (i, _), _ in dims.items())

    def test_tensoring_shifts_by_one(self):
        # companion-ring Koszul complex on a weight-1 variable shifts twists by 1
        R = STD3
        K = oracles.koszul_complex(R, [2])
        F = oracles.koszul_complex(R, [0, 1])
        Tot = oracles.totalize_tensor(F, K)
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
        Tot = oracles.totalize_tensor(F, G)
        assert [m.twists for m in Tot.modules] == [m.twists for m in F.modules]
        assert Tot.diffs == F.diffs

    def test_paper_horseshoe_input(self):
        R = STD2
        F = GradedFreeComplex(
            R,
            (FreeModuleSpec((0, 0)), FreeModuleSpec((1,))),
            (({(0, (1, 0)): 1, (1, (0, 1)): 1},),),
        )
        G = oracles.koszul_complex(R, [1])
        Tot = oracles.totalize_tensor(F, G)
        assert [m.twists for m in Tot.modules] == [(0, 0), (1, 1, 1), (2,)]
        assert oracles.check_complex(Tot).ok

    def test_two_length_one_complexes(self):
        R = STD2
        one = oracles.koszul_complex(R, [0])
        other = oracles.koszul_complex(R, [1])
        Tot = oracles.totalize_tensor(one, other)
        assert [m.rank for m in Tot.modules] == [1, 2, 1]
        assert oracles.check_complex(Tot).ok

    def test_mixed_ring_rejected(self):
        with pytest.raises(ValueError):
            K2, K13 = oracles.koszul_complex(STD2, [0]), oracles.koszul_complex(W13, [0])
            oracles.totalize_tensor(K2, K13)


class TestResolve:
    def test_free_module_has_length_zero(self):
        F = resolve_module(monomial_elements(W13, [(0, 2)]))
        assert oracles.complex_length(F) == 0
        assert F.modules[0].twists == (6,)

    def test_paper_example_1_3(self):
        F = resolve_module(monomial_elements(W13, trunc_gens(W13, 5)))
        assert [m.twists for m in F.modules] == [(5, 5, 6), (8, 8)]

    def test_paper_second_example(self):
        F = resolve_module(monomial_elements(W14, trunc_gens(W14, 5)))
        assert [m.twists for m in F.modules] == [(5, 5, 8), (9, 9)]

    def test_raw_resolution_minimizes_to_same_table(self):
        # the Taylor complex is a raw, non-minimal resolution of the ideal
        mons = trunc_gens(STD2, 3)
        raw = oracles.taylor_complex(STD2, mons)
        minimal = resolve_module(monomial_elements(STD2, mons))
        assert oracles.check_complex(raw).ok
        assert [m.rank for m in raw.modules] == [4, 6, 4, 1]
        assert oracles.minimize_complex(raw).betti_from_twists() == minimal.betti_from_twists()

    def test_differentials_are_the_kept_syzygies(self, monkeypatch):
        # diffs[k] holds the very columns gb.minimal_syzygies keeps for level
        # k, in order, and each has at most one key per row: every entry is a
        # single term, so the benchmark's linear_terms, a count of keys of
        # the linear part, counts its entries (13,825 over resolve4)
        kept = []
        levels = gb.minimal_syzygies

        def recording(gens):
            for source, columns in levels(gens):
                kept.append(columns)
                yield source, columns

        monkeypatch.setattr(complexes, "minimal_syzygies", recording)
        golden = json.loads((REPO / "perfbench" / "golden" / "resolve4.json").read_text())
        resolve4 = [
            (w, e, 32003) for w in combinations_with_replacement(range(1, 4), 4) for e in range(1, 7)
        ]
        sweep = [(c.weights, c.e, p) for p in (2, 32003) for c in sweep_cases(3, 4, 12)]
        assert (len(resolve4), len(sweep)) == (90, 816)
        linear_terms = {}
        for weights, e, p in resolve4 + sweep:
            kept.clear()
            spec = RingSpec(weights, char=p)
            F = resolve_module(monomial_elements(spec, trunc_gens(spec, e)))
            assert len(kept) == len(F.diffs) + 1 and not kept[-1]
            for columns, diff in zip(kept, F.diffs):
                assert [id(c) for c in diff] == [id(c) for c in columns]
                for column in diff:
                    rows = [r for r, _ in column]
                    assert len(rows) == len(set(rows))
            if len(weights) == 4:
                L = linear_part(F, spec)
                key = f"{'+'.join(map(str, weights))}:{e}"
                linear_terms[key] = sum(len(column) for diff in L.diffs for column in diff)
        assert linear_terms == {k: v["linear_terms"] for k, v in golden["cases"].items()}
        assert sum(linear_terms.values()) == 13825

    def test_only_the_minimal_resolution(self):
        gens = monomial_elements(STD2, trunc_gens(STD2, 3))
        with pytest.raises(ValueError, match="only the minimal resolution"):
            resolve_module(gens, minimize=False)


class TestHomologyDims:
    def test_paper_lin_complex_acyclic(self):
        R = STD2
        # the columns of (y, 0, 0) and (0, y, 0)
        d1 = ({(0, (0, 1)): 1}, {(1, (0, 1)): 1})
        L = GradedFreeComplex(R, (FreeModuleSpec((0, 0, 0)), FreeModuleSpec((1, 1))), (d1,))
        dims = oracles.homology_dims(L, 10)
        assert all(i == 0 for (i, _) in dims)

    def test_zero_differential_rank_nullity(self):
        C = GradedFreeComplex(STD2, (FreeModuleSpec((0,)), FreeModuleSpec((2,))), (({},),))
        dims = oracles.homology_dims(C, 5)
        for j in range(2, 6):
            assert dims[(1, j)] == oracles.free_hilbert(STD2, (2,), j)

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
            T = oracles.taylor_complex(spec, gens)
            bound = max(t for mod in T.modules for t in mod.twists) + 2
            assert oracles.homology_dims(T, bound) == oracles.homology_dense(T, bound)

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
            vanishes = homology_witnesses(L) == []
            bounded = oracles.homology_dims(L, 3 * n + 2)
            # both read the same grid walk, so the dense count is the reference
            assert bounded == oracles.homology_dense(L, 3 * n + 2)
            assert vanishes == (not any(i >= 1 for i, _ in bounded))
            outcomes.add(vanishes)
        assert outcomes == {True, False}

    def test_bounded_count_matches_dense(self):
        # Negative controls, whose H_1 fills cells with no upper end, and
        # complexes over weights > 1, where a cell's degrees step by weight.
        W231 = RingSpec((2, 3, 1))
        K = oracles.koszul_complex(RingSpec((1, 2, 3)), [0, 1, 2])
        cases = [
            linear_part(resolve_module(monomial_elements(STD2, gens)), STD2)
            for gens in ([(2, 0), (0, 2)], [(2, 0), (0, 3)], [(3, 0), (2, 1), (0, 3)])
        ] + [
            oracles.taylor_complex(W231, [(2, 1, 0), (0, 2, 1), (1, 0, 2), (1, 1, 1)]),
            GradedFreeComplex(K.spec, K.modules[:-1], K.diffs[:-1]),
        ]
        for C in cases:
            twists = [t for mod in C.modules for t in mod.twists]
            lo, hi = min(twists), max(twists)
            for bound in (lo - 1, lo, (lo + hi) // 2, hi, hi + 9):
                assert oracles.homology_dims(C, bound) == oracles.homology_dense(C, bound)
        # the controls keep H_1 = S(-1) up to the bound, far past the grid
        assert oracles.homology_dims(cases[0], 12)[(1, 12)] == 12

    def test_grid_check_reaches_the_top_grid_point(self):
        # K(x, y, z) without its top generator: H_2 lives only at xyz, the
        # last of the eight points of the grid {0, 1}^3
        K = oracles.koszul_complex(STD3, [0, 1, 2])
        C = GradedFreeComplex(STD3, K.modules[:-1], K.diffs[:-1])
        assert homology_witnesses(K) == []
        assert homology_witnesses(C) != []
        # the cycle z e_xy - y e_xz + x e_yz generates a free H_2 = S(-3)
        assert {k: d for k, d in oracles.homology_dims(C, 5).items() if k[0] >= 1} == {
            (2, 3): 1,
            (2, 4): 3,
            (2, 5): 6,
        }

    def test_grid_check_declines_multiterm_entries(self):
        x_plus_y = {(0, (1, 0)): 1, (0, (0, 1)): 1}
        C = GradedFreeComplex(STD2, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), ((x_plus_y,),))
        with pytest.raises(NoFiniteDecision, match="more than one term"):
            homology_witnesses(C)

    def test_multiterm_entries_fall_back_to_dense(self):
        # only the dense oracle counts a multi-term complex; the grid refuses it
        R = STD2
        x_plus_y = {(0, (1, 0)): 1, (0, (0, 1)): 1}
        C = GradedFreeComplex(R, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), ((x_plus_y,),))
        with pytest.raises(NoFiniteDecision):
            oracles.homology_dims(C, 4)
        # S(-1) -> S by x + y is injective with cokernel k[t] in degrees 0..4
        assert oracles.homology_dense(C, 4) == {(0, j): 1 for j in range(5)}

    def test_grid_check_declines_inconsistent_multigrading(self):
        # single-term entries x, x, x, y: the first row puts both targets at
        # one multidegree, the second row apart
        x, y = (1, 0), (0, 1)
        # the columns of the matrix ((x, x), (x, y))
        d1 = ({(0, x): 1, (1, x): 1}, {(0, x): 1, (1, y): 1})
        C = GradedFreeComplex(STD2, (FreeModuleSpec((0, 0)), FreeModuleSpec((1, 1))), (d1,))
        with pytest.raises(NoFiniteDecision, match="no consistent multigrading"):
            homology_witnesses(C)
        assert oracles.homology_dense(C, 3)[(0, 0)] == 2


    def test_grid_check_rejects_malformed_columns(self):
        # negative controls for hand-built columns, refused where the blocks
        # read them: a key whose exponents do not fit the ring, a row
        # outside the target module, a zero coefficient, a wrong column count
        modules = (FreeModuleSpec((0,)), FreeModuleSpec((1,)))
        x = {(0, (1, 0)): 1}
        assert homology_witnesses(GradedFreeComplex(STD2, modules, ((x,),))) == []
        for column, exc, text in [
            ({(0, (1, 0, 0)): 1}, DimensionMismatch, "3 exponents, ring has 2"),
            ({(1, (1, 0)): 1}, ValueError, r"row 1 of d_1 out of range for rank 1"),
            ({(-1, (1, 0)): 1}, ValueError, r"row -1 of d_1 out of range"),
            ({(0, (1, 0)): STD2.char}, ValueError, r"zero coefficient in d_1 at \(0, 0\)"),
        ]:
            C = GradedFreeComplex(STD2, modules, ((column,),))
            with pytest.raises(exc, match=text):
                homology_witnesses(C)
        for columns in [(x, {}), ()]:
            C = GradedFreeComplex(STD2, modules, (columns,))
            with pytest.raises(ValueError, match=f"d_1 has {len(columns)} columns for rank 1"):
                homology_witnesses(C)


def _dense(blk, k):
    """The block's matrix of d_{k+1}, densified from its sparse columns."""
    mat = np.zeros((len(blk.mdegs[k]), len(blk.mdegs[k + 1])), dtype=np.int64)
    for c, column in enumerate(blk.diffs[k]):
        for r, coeff in column.items():
            mat[r, c] = coeff
    return mat


def _grid_walk_oracle(blk, p):
    """The walk one grid point at a time: the support of each point, then a
    masked dense rank per level."""
    out = []
    for index in product(*(range(len(vals)) for vals in blk.grid)):
        corner = [vals[k] for vals, k in zip(blk.grid, index)]
        masks = [np.all(M <= corner, axis=1) for M in blk.mdegs]
        dims = [int(mask.sum()) for mask in masks]
        ranks = [0] * (len(masks) + 1)
        for i in range(1, len(masks)):
            block = _dense(blk, i - 1)[np.ix_(masks[i - 1], masks[i])]
            ranks[i] = oracles.rank_mod(block, p)
        h = [dims[i] - ranks[i] - ranks[i + 1] for i in range(len(masks))]
        if any(h):
            out.append((index, h))
    return out


def _slice_supports(blk):
    """The distinct supports of the slices that fix the first n - 1
    coordinates: how many, and the columns in them summed over the supports
    and the differentials."""
    supports = {}
    for prefix in product(*(range(len(vals)) for vals in blk.grid[:-1])):
        corner = [vals[k] for vals, k in zip(blk.grid, prefix)]
        masks = [np.all(M[:, :-1] <= corner, axis=1) for M in blk.mdegs]
        supports[np.concatenate(masks).tobytes()] = sum(int(m.sum()) for m in masks[1:])
    return len(supports), sum(supports.values())


def _grid_walk_inputs():
    """Taylor complexes and linear parts of random monomial ideals, the
    negative controls, complexes cut below their top term, one variable, a
    block whose last coordinate takes one value, and one whose slices at
    (1, 1) and (1, 2) share a support with a column; at p = 2, 3 and 32003."""
    rng = random.Random(16)
    for p in (2, 3, 32003):
        for _ in range(12):
            n = rng.randint(1, 3)
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(n)), char=p)
            gens = sorted(
                {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))}
                - {(0,) * n}
            )
            if not gens:
                continue
            T = oracles.taylor_complex(spec, gens)
            yield T
            if oracles.complex_length(T) >= 2:
                yield GradedFreeComplex(spec, T.modules[:-1], T.diffs[:-1])
            yield linear_part(resolve_module(monomial_elements(spec, gens)), spec)
        std2 = RingSpec((1, 1), ("x", "y"), p)
        for gens in ([(2, 0), (0, 2)], [(2, 0), (0, 3)], [(3, 0), (2, 1), (0, 3)]):
            yield linear_part(resolve_module(monomial_elements(std2, gens)), std2)
        std3 = RingSpec((1, 1, 1), ("x", "y", "z"), p)
        for variables in ([0, 1, 2], [0, 1]):
            # with [0, 1] the last coordinate is 0 on every generator
            K = oracles.koszul_complex(std3, variables)
            yield GradedFreeComplex(std3, K.modules[:-1], K.diffs[:-1])
        yield oracles.taylor_complex(std3, [(1, 0, 0), (0, 1, 0), (2, 2, 1)])
        one = RingSpec((2,), ("x",), p)
        yield oracles.taylor_complex(one, [(1,), (3,)])
        yield linear_part(resolve_module(monomial_elements(one, [(3,)])), one)


def _slice_walk_inputs():
    """1,009 complexes: the linear parts of 700 random monomial modules
    (false verdicts among them), 300 random Taylor complexes, and the
    negative controls (x^2, y^2), (x^2, y^3) and (x^3, x^2 y, y^3) at
    p = 2, 3 and 32003."""
    for spec, _, gens in oracles.random_monomial_modules(3, 700, (1, 1, 2)):
        F = resolve_module(monomial_elements(spec, gens))
        yield linear_part(F, spec)
    rng = random.Random(5)
    taylor = 0
    while taylor < 300:
        n = rng.randint(1, 4)
        spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(n)), char=rng.choice((2, 3, 32003)))
        gens = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))}
        if gens - {(0,) * n}:
            yield oracles.taylor_complex(spec, sorted(gens - {(0,) * n}))
            taylor += 1
    for p in (2, 3, 32003):
        std2 = RingSpec((1, 1), ("x", "y"), p)
        for gens in ([(2, 0), (0, 2)], [(2, 0), (0, 3)], [(3, 0), (2, 1), (0, 3)]):
            yield linear_part(resolve_module(monomial_elements(std2, gens)), std2)


class TestGridWalk:
    def test_matches_point_by_point_oracle(self, monkeypatch):
        # (apparent columns stored, columns inserted, lows reported) per call
        calls = []
        pivots = modp.pivots

        def counted(columns, p, stored=None):
            stored = {} if stored is None else stored
            apparent = len(stored)
            # an apparent column is stored before the call, never inserted
            assert not {id(c) for c in stored.values()} & {id(c) for c in columns}
            out = pivots(columns, p, stored)
            calls.append((apparent, len(columns), len(stored)))
            return out

        monkeypatch.setattr(modp, "pivots", counted)
        with_homology = single_value = one_variable = clearing = apparent = 0
        for C in _grid_walk_inputs():
            for blk in _multidegree_blocks(C):
                for M in blk.mdegs:
                    assert list(M[:, -1]) == sorted(M[:, -1])
                calls.clear()
                walk = list(blk.grid_walk(C.spec.char))
                # each distinct slice support is reduced once, one reduction
                # per differential from d_top down to d_1; each low of d_{k+1}
                # clears one column of d_k, and every other column of the
                # support is apparent, and stored as it is before the
                # reduction, or inserted: exactly one of the three
                supports, columns = _slice_supports(blk)
                levels = len(blk.diffs)
                assert len(calls) == supports * levels
                stored = sum(a for a, _, _ in calls)
                inserted = sum(n for _, n, _ in calls)
                cleared = sum(lows for i, (*_, lows) in enumerate(calls) if (i + 1) % levels)
                assert stored + inserted + cleared == columns
                clearing += cleared > 0
                apparent += stored > 0
                assert walk == _grid_walk_oracle(blk, C.spec.char)
                positive = any(any(h[1:]) for _, h in walk)
                with_homology += positive
                single_value += len(blk.grid[-1]) == 1 and positive
                one_variable += len(blk.grid) == 1
        assert with_homology >= 10 and single_value >= 1 and one_variable >= 1
        assert clearing >= 10 and apparent >= 10

    def test_apparent_columns_are_independent_in_every_slice(self):
        # an apparent column c with low r: no column before c in the block
        # has an entry in row r, so in each slice that holds c, plain pivots
        # (no clearing, nothing stored before) keeps c with low r
        checked = not_apparent = 0
        for C in _slice_walk_inputs():
            p = C.spec.char
            for blk in _multidegree_blocks(C):
                apparent = [_apparent_lows(columns) for columns in blk.diffs]
                supports = set()
                for prefix in product(*(range(len(vals)) for vals in blk.grid[:-1])):
                    corner = [vals[k] for vals, k in zip(blk.grid, prefix)]
                    masks = tuple(
                        tuple(np.flatnonzero(np.all(M[:, :-1] <= corner, axis=1)).tolist())
                        for M in blk.mdegs
                    )
                    supports.add(masks)
                for masks in supports:
                    for k, columns in enumerate(blk.diffs):
                        support = masks[k + 1]
                        stored = {}
                        pivots = modp.pivots([columns[c] for c in support], p, stored)
                        low_of = dict(zip(pivots, stored))
                        for i, c in enumerate(support):
                            if apparent[k][c] < 0:
                                not_apparent += 1
                                continue
                            assert low_of.get(i) == apparent[k][c] == max(columns[c])
                            checked += 1
        assert checked >= 2000 and not_apparent >= 1000

    def test_matches_slice_walk_on_random_complexes(self):
        complexes = blocks = false = 0
        for C in _slice_walk_inputs():
            complexes += 1
            for blk in _multidegree_blocks(C):
                walk = list(blk.grid_walk(C.spec.char))
                assert walk == oracles.slice_walk(blk, C.spec.char)
                blocks += 1
                false += any(any(h[1:]) for _, h in walk)
        assert complexes >= 1000 and blocks >= 2000 and false >= 250


class TestHomologyWitnesses:
    def test_match_dense_homology(self):
        # a witness (i, j, d) is a grid cell whose corner has degree j, with
        # dim H_i = d at each of its multidegrees
        nonzero = 0
        for C in _grid_walk_inputs():
            witnesses = homology_witnesses(C)
            assert witnesses == sorted(witnesses)
            assert all(i >= 1 and d > 0 for i, _, d in witnesses)
            bound = max([t for mod in C.modules for t in mod.twists] + [j for _, j, _ in witnesses])
            dense = oracles.homology_dense(C, bound)
            positive = [key for key in dense if key[0] >= 1]
            assert (witnesses == []) == (positive == [])
            for i, j, d in witnesses:
                assert dense.get((i, j), 0) >= d
            for i, j in positive:
                assert any(wi == i and wj <= j for wi, wj, _ in witnesses)
            nonzero += bool(witnesses)
        assert nonzero >= 10


def _image(lb, t):
    """The label x_t * lb."""
    comp, m = lb
    return comp, m[:t] + (m[t] + 1,) + m[t + 1:]


def _quotient(M, J, into_J=None):
    """M/J for a monomial ideal J: the labels of M outside J and the actions
    among them.  With into_J, the labels in J stay (the module M/J + J) and
    the arrows from outside J into J carry the coefficient into_J; an arrow
    whose coefficient is zero mod p is dropped."""
    p = M.spec.char
    degrees, maps = oracles.module_view(M)
    in_J = {
        lb: any(mon_divides(g, lb[1]) for g in J)
        for labels in degrees.values()
        for lb in labels
    }
    degrees = {
        j: tuple(lb for lb in labels if into_J is not None or not in_J[lb])
        for j, labels in degrees.items()
    }
    actions = []
    for t, image in enumerate(maps):
        kept = {}
        for lb, coeff in image.items():
            if in_J[_image(lb, t)]:
                if into_J is None:
                    continue
                if not in_J[lb]:
                    coeff = into_J
            if coeff % p:
                kept[lb] = coeff
        actions.append(kept)
    return oracles.module_from_dicts(M.spec, M.bound, degrees, actions)


def _rescaled(M, rng):
    """M on the basis u_m * m for random units u_m: non-unit action coefficients."""
    p = M.spec.char
    degrees, maps = oracles.module_view(M)
    unit = {lb: rng.randrange(1, p) for labels in degrees.values() for lb in labels}
    actions = [
        {
            lb: coeff * unit[lb] * pow(unit[_image(lb, t)], -1, p) % p
            for lb, coeff in image.items()
        }
        for t, image in enumerate(maps)
    ]
    return oracles.module_from_dicts(M.spec, M.bound, degrees, actions)


def _strand_oracle_modules():
    """Modules whose actions send each label to a multiple of x_t * label: a
    truncation, gr of truncations, rescaled monomial quotients at three
    characteristics, quotients whose arrows into J have coefficient p,
    extend_gr modules and the residue field."""
    yield oracles.monomial_module(W13, trunc_gens(W13, 5), bound=11)
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
            M = oracles.monomial_module(spec, gens, bound=max(map(spec.wdeg, gens)) + n + 2)
            yield _rescaled(_quotient(M, J), rng)
            yield _quotient(M, J, into_J=p)
    big = RingSpec((1, 1, 1), ("x", "y", "z"))
    for sub, e in ((RingSpec((1,), ("x",)), 2), (RingSpec((1, 2), ("x", "y")), 3)):
        gr = gr_module(OrdContext(sub, trunc_gens(sub, e)), 5)
        yield oracles.extend_gr(gr, big)
    yield oracles.module_from_dicts(big, 4, {0: [(0, (0, 0, 0))]}, ())
    yield oracles.module_from_dicts(RingSpec((1, 2)), 5, {0: [(0, (0, 0))]}, ())


class TestBettiViaKoszul:
    def test_residue_field(self):
        # keep only degree 0: the field
        k = oracles.module_from_dicts(STD2, 4, {0: [(0, (0, 0))]}, ())
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
            M = oracles.monomial_module(spec, gens, bound=bound)
            table = betti_via_koszul(M, bound=bound)
            F = resolve_module(monomial_elements(spec, gens))
            assert F.betti_from_twists().restrict(bound) == table

    def test_strand_methods_agree(self):
        modules = list(_strand_oracle_modules())
        assert len(modules) == 45
        for M in modules:
            oracles.check_label_maps(M)
            assert oracles.commuting_violations(M) == []
            for bound in sorted({M.bound // 2, M.bound}):
                assert (
                    _betti_blocks(M, bound)
                    == oracles.betti_dense(M, bound)
                    == betti_via_koszul(M, bound=bound)
                )

    def test_label_maps_reject_a_stray_image(self):
        # negative control: x sends 1 to x, which is not a stored label
        one = (0, (0, 0))
        M = oracles.module_from_dicts(STD2, 2, {0: [one]}, ({one: 1}, {}))
        with pytest.raises(AssertionError, match="not a stored label"):
            oracles.check_label_maps(M)
        # nor may x act on a label that is not stored: the builder refuses it
        with pytest.raises(ValueError, match="not a stored label"):
            oracles.module_from_dicts(STD2, 2, {1: [(0, (1, 0))]}, ({one: 1}, {}))
        # nor with a coefficient = 0 mod p: the builder reads it as no arrow,
        # and arrays that keep one fail the invariant
        degrees = {0: [one], 1: [(0, (1, 0))]}
        unit = oracles.module_from_dicts(STD2, 2, degrees, ({one: 1}, {}))
        oracles.check_label_maps(unit)
        zero = oracles.module_from_dicts(STD2, 2, degrees, ({one: STD2.char}, {}))
        assert oracles.module_view(zero)[1] == ({}, {})
        assert not zero.coef.any() and not zero.reached.any()
        assert betti_via_koszul(zero) == betti_via_koszul(
            oracles.module_from_dicts(STD2, 2, degrees, ())
        )
        assert betti_via_koszul(zero) != betti_via_koszul(unit)
        with pytest.raises(AssertionError, match="= 0 mod p"):
            oracles.check_label_maps(replace(unit, coef=unit.coef * STD2.char))

    def test_coefficients_tell_equal_strands_apart(self):
        # negative control for the strand patterns: two components with the
        # same labels x_u (degree 1) and x_s x_u (degree 2), 1 and xyz
        # absent, so the strand at a = (1, 1, 1), j = 3 has the same cells
        # and edges in both.  Its d_2, from the e_st (x) x_u to the
        # e_s (x) a - e_s, is singular with unit coefficients (component 0)
        # and invertible when x sends y to 2xy (component 1)
        singles = [tuple(int(t == u) for t in range(3)) for u in range(3)]
        pairs = [tuple(int(t != u) for t in range(3)) for u in range(3)]
        degrees = {
            1: tuple((c, m) for c in (0, 1) for m in singles),
            2: tuple((c, m) for c in (0, 1) for m in pairs),
        }

        def module(scaled):
            actions = tuple({} for _ in range(3))
            for c, u, t in product((0, 1), range(3), range(3)):
                if t != u:
                    image = 2 if (c, t, u) in scaled else 1
                    actions[t][c, singles[u]] = image
            return oracles.module_from_dicts(STD3, 3, degrees, actions)

        M, unit = module({(1, 0, 1)}), module(set())
        for N in (M, unit):
            oracles.check_label_maps(N)
            assert oracles.commuting_violations(N) == []
        assert _betti_blocks(M, 3) == oracles.betti_dense(M, 3)
        assert _betti_blocks(unit, 3) == oracles.betti_dense(unit, 3)
        # with unit coefficients both strands at a have H_1 and H_2, with
        # the 2 only the one of component 0
        scaled, plain = _betti_blocks(M, 3).as_dict(), _betti_blocks(unit, 3).as_dict()
        assert set(scaled) <= set(plain)
        diff = {ij: r - scaled.get(ij, 0) for ij, r in plain.items()}
        assert {ij: d for ij, d in diff.items() if d} == {(1, 3): 1, (2, 3): 1}

    def test_cell_codes_of_many_coefficients(self):
        # cell codes against the dense strands: S/m^k on bases rescaled so
        # that the label maps carry 3 to 32 distinct coefficients
        rng = random.Random(31)
        counts = []
        for p in (5, 7, 32003):
            for weights in ((1, 1, 1), (1, 2, 1), (2, 1)):
                spec = RingSpec(weights, char=p)
                ring = oracles.monomial_module(spec, [(0,) * len(weights)], bound=11)
                for k in (2, 3, 4):
                    mk = oracles.monomials_of_wdeg(RingSpec((1,) * len(weights)), k)
                    plain = _quotient(ring, mk)
                    M = _rescaled(plain, rng)
                    _, rows, _ = _critical_labels(M, M.bound)
                    counts.append(len(np.unique(M.coef[rows])))
                    table = betti_via_koszul(M)
                    assert table == oracles.betti_dense(M, M.bound) == betti_via_koszul(plain)
        assert min(counts) >= 3 and max(counts) >= 17

    def test_cell_codes_of_wide_coefficients(self):
        # S/m^k in eight variables on a rescaled basis: for k = 4 the label
        # maps carry more than 128 distinct coefficients, so codes of one
        # index per variable would pass 64 bits; each cell is coded by its
        # coefficient row instead, and the tables are those of the unit
        # basis, beta_i(S/m^k) = C(n + k - 1, k + i - 1) C(k + i - 2, i - 1)
        # in degree k + i - 1 (Eagon-Northcott)
        p = 32003
        spec = RingSpec((1,) * 8, char=p)
        rng = random.Random(8)

        def truncated(top, scaled):
            degrees = {
                d: [(0, m) for m in oracles.monomials_of_wdeg(spec, d)] for d in range(top + 1)
            }
            unit = {lb: rng.randrange(1, p) if scaled else 1 for d in degrees for lb in degrees[d]}
            below = [lb for d in range(top) for lb in degrees[d]]
            actions = [
                {lb: unit[lb] * pow(unit[_image(lb, t)], -1, p) % p for lb in below}
                for t in range(8)
            ]
            return oracles.module_from_dicts(spec, top + 8, degrees, actions)

        M = truncated(2, True)
        assert 64 < len(np.unique(M.coef)) <= 128
        assert betti_via_koszul(M) == betti_via_koszul(truncated(2, False))
        M = truncated(3, True)
        assert len(np.unique(M.coef)) > 128
        table = betti_via_koszul(M)
        assert table == betti_via_koszul(truncated(3, False))
        eagon_northcott = [(i, i + 3, comb(11, i + 3) * comb(i + 2, i - 1)) for i in range(1, 9)]
        assert table.entries == ((0, 0, 1), *eagon_northcott)

    def test_bound_beyond_storage_rejected(self):
        from nskoszul.egm import DegreeRangeError

        M = oracles.monomial_module(W13, trunc_gens(W13, 5), bound=8)
        with pytest.raises(DegreeRangeError):
            betti_via_koszul(M, bound=9)


def _label_array_modules():
    """(module, bounds): the strand oracle modules at half and full bound,
    and at p = 2, 3 and 32003 gr4's windows (gr of each truncation over
    four variables, weights <= 2, e <= 3, at its recommended bound) and
    grid3's boxes (gr_box_module over n <= 3, weights <= 2, e <= 7)."""
    for M in _strand_oracle_modules():
        yield M, sorted({M.bound // 2, M.bound})
    for p in (2, 3, 32003):
        for weights in combinations_with_replacement((1, 2), 4):
            spec = RingSpec(weights, char=p)
            for e in (1, 2, 3):
                bound = recommended_bound(spec, e)
                yield gr_module(OrdContext(spec, trunc_gens(spec, e)), bound), [bound]
        for case in sweep_cases(3, 2, 7, char=p):
            spec = RingSpec(case.weights, char=p)
            box = gr_box_module(OrdContext(spec, trunc_gens(spec, case.e)))
            yield box, [box.bound]


class TestLabelArrays:
    """The key search (oracles.labelled_module) and _critical_labels
    against the dict scans that they replace (tests/oracles.py)."""

    def test_match_the_scans(self):
        rng = random.Random(14)
        modules = labels = kept_total = 0
        for M, bounds in _label_array_modules():
            # the same labels, each degree's list and the dict order shuffled
            view = oracles.module_view(M)
            degrees = [(j, rng.sample(list(lbs), len(lbs))) for j, lbs in view[0].items()]
            rng.shuffle(degrees)
            degrees = dict(degrees)
            got = oracles.labelled_module(M.spec, M.bound, degrees, M.corner)
            want = oracles.labelled_module_scan(M.spec, degrees)
            got_degrees, got_actions = oracles.module_view(got)
            assert list(got_degrees.items()) == list(want[0].items())
            assert got_actions == want[1]
            assert got.bound == M.bound and got.corner == M.corner
            stored = list(zip(oracles.module_labels(M), M.deg.tolist()))
            for bound in bounds:
                crit, rows, bits = _critical_labels(M, bound)
                assert crit == oracles.critical_values_scan(M, bound)
                kept = [(*stored[r], b) for r, b in zip(rows.tolist(), bits.tolist())]
                # kept: every label of degree <= bound whose every m_t or
                # m_t + 1 is critical, with bit t for m_t and n + t for m_t + 1
                n = M.spec.num_vars
                expected = []
                for lb, j in stored:
                    m = lb[1]
                    stay = [m[t] in crit[t] for t in range(n)]
                    enter = [m[t] + 1 in crit[t] for t in range(n)]
                    if j <= bound and all(map(or_, stay, enter)):
                        bits = sum(stay[t] << t | enter[t] << (n + t) for t in range(n))
                        expected.append((lb, j, bits))
                assert kept == expected
                kept_total += len(kept)
            modules += 1
            labels += len(stored)
        assert modules == 45 + 3 * (15 + 63)
        assert kept_total < labels / 10

    def test_key_overflow_rejected(self):
        # negative control: radices (2**40 + 2)**2 reach 2**63, so int64
        # keys would wrap
        big = (0, (2**40, 2**40))
        with pytest.raises(ValueError, match="64-bit"):
            oracles.labelled_module(STD2, 2**41, {2**41: [big]})
        M = oracles.module_from_dicts(STD2, 2**41, {2**41: [big]}, ())
        with pytest.raises(ValueError, match="64-bit"):
            betti_via_koszul(M)
        # at the edge: radices 2**62 and 2 reach 2**63, one less fits, and
        # the component's radix counts as well
        for lb, fits in (
            ((0, (2**62 - 2, 0)), False),
            ((0, (2**62 - 3, 0)), True),
            ((1, (2**61 - 2, 0)), False),
            ((1, (2**61 - 3, 0)), True),
        ):
            if fits:
                M = oracles.labelled_module(STD2, 1, {1: [lb]})
                assert oracles.module_view(M) == ({1: (lb,)}, ({}, {}))
            else:
                with pytest.raises(ValueError, match="64-bit"):
                    oracles.labelled_module(STD2, 1, {1: [lb]})

    def test_strand_key_overflow_rejected(self):
        # negative control: the radices (2**40 + 2) * (2**20 + 2) of the one
        # label times the 8 degrees 0..7 of its strands reach 2**63, so the
        # (key, j) strand keys would wrap; with 7 degrees they fit, and the
        # module is the residue field
        lb = (0, (2**40, 2**20))
        M = oracles.module_from_dicts(STD2, 7, {0: [lb]}, ())
        with pytest.raises(ValueError, match="64-bit strand keys"):
            betti_via_koszul(M)
        assert betti_via_koszul(M, bound=6) == BettiTable(((0, 0, 1), (1, 1, 2), (2, 2, 1)))
        assert betti_via_koszul(M, bound=6) == oracles.betti_dense(M, 6)

    def test_label_stored_twice_rejected(self):
        # negative control: a label in two degrees, or twice in one
        one = (0, (1, 0))
        with pytest.raises(ValueError, match="stored twice"):
            oracles.labelled_module(STD2, 2, {1: [one], 2: [one]})
        with pytest.raises(ValueError, match="stored twice"):
            oracles.labelled_module(STD2, 2, {1: [one, (0, (0, 1)), one]})
        # so does the builder from dicts, which keeps their coefficients
        with pytest.raises(ValueError, match="stored twice"):
            oracles.module_from_dicts(STD2, 2, {1: [one], 2: [one]}, ())
        with pytest.raises(ValueError, match="stored twice"):
            oracles.module_from_dicts(STD2, 2, {1: [one, one]}, ())
        # the scan keeps it under both degrees; the invariant rejects arrays
        # that store it twice, in two degrees or in one
        assert oracles.labelled_module_scan(STD2, {1: [one], 2: [one]}) == (
            {1: (one,), 2: (one,)},
            ({}, {}),
        )
        for deg in ([1, 2], [1, 1]):
            M = ExplicitGradedModule(
                STD2,
                2,
                comp=np.zeros(2, dtype=np.int64),
                deg=np.array(deg),
                exps=np.array([one[1], one[1]]),
                coef=np.zeros((2, 2), dtype=np.int64),
                reached=np.zeros((2, 2), dtype=bool),
            )
            with pytest.raises(AssertionError, match="stored twice"):
                oracles.check_label_maps(M)

    def test_empty_module(self):
        M = oracles.labelled_module(STD3, 0, {0: []}, (1, 0, 2))
        assert oracles.module_view(M) == ({}, ({}, {}, {}))
        assert M.degrees == {}
        assert M.corner == (1, 0, 2)
        assert betti_via_koszul(M) == BettiTable(())
        crit, rows, bits = _critical_labels(M, 0)
        assert crit == [set(), set(), set()]
        assert rows.tolist() == bits.tolist() == []
        assert oracles.module_view(oracles.labelled_module(STD3, 3, {})) == ({}, ({}, {}, {}))


class TestBettiTable:
    def test_euler_characteristic_of_resolution(self):
        # per-degree alternating sum of free module dims equals module dims
        gens = trunc_gens(W13, 5)
        F = resolve_module(monomial_elements(W13, gens))
        M = oracles.monomial_module(W13, gens, bound=12)
        for j in range(0, 13):
            euler = sum(
                (-1) ** i * oracles.free_hilbert(W13, F.modules[i].twists, j)
                for i in range(oracles.complex_length(F) + 1)
            )
            assert euler == oracles.module_dim(M, j)

    def test_restrict_and_total(self):
        t = BettiTable(((0, 0, 3), (1, 1, 2), (2, 5, 7)))
        assert t.restrict(1).entries == ((0, 0, 3), (1, 1, 2))
        assert t.total(2) == 7
        assert not t.is_diagonal()

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            BettiTable(((0, 0, 1), (0, 0, 2)))
