import random

import pytest

import oracles
from nskoszul.gb import (
    InhomogeneousInput,
    buchberger,
    element_sort_key,
    minimal_generators,
    monomial_elements,
    normal_form,
    schreyer_syzygies,
    syzygies,
)
from nskoszul.ring import (
    FreeElement,
    FreeModuleSpec,
    RingSpec,
    mon_mul,
    monomials_of_wdeg,
)

import numpy as np

W13 = RingSpec((1, 3), ("x", "y"))
W14 = RingSpec((1, 4), ("x", "y"))
STD2 = RingSpec((1, 1), ("x1", "x2"))


def ideal(spec, mons):
    return monomial_elements(spec, mons)


class TestNormalForm:
    def test_self_reduction(self):
        (g,) = ideal(W13, [(2, 1)])
        assert normal_form(g, [g]).is_zero()

    def test_monomial_divisibility(self):
        v, g = ideal(W13, [(3, 1), (2, 1)])
        assert normal_form(v, [g]).is_zero()

    def test_single_division_step(self):
        # x^4 + y reduced by x^2 leaves y
        amb = FreeModuleSpec((0,))
        v = FreeElement(W13, amb, {(0, (4, 0)): 1, (0, (0, 1)): 1})
        (g,) = ideal(W13, [(2, 0)])
        r = normal_form(v, [g])
        assert r.coeffs == {(0, (0, 1)): 1}

    def test_deterministic_reducer_choice(self):
        # two reducers both divide; the lowest-index one is used, result is canonical
        amb = FreeModuleSpec((0,))
        v = FreeElement(W13, amb, {(0, (4, 1)): 1})
        g1, g2 = ideal(W13, [(2, 1), (1, 1)])
        assert normal_form(v, [g1, g2]).is_zero()
        assert normal_form(v, [g2, g1]).is_zero()

    def test_non_monic_reducer(self):
        # x1^2 by 3*x1 + 5*x2: subtract (x1/3) g, then (-5*x2/9) g, leaving (25/9) x2^2
        amb = FreeModuleSpec((0,))
        p = STD2.char
        v = FreeElement(STD2, amb, {(0, (2, 0)): 1})
        g = FreeElement(STD2, amb, {(0, (1, 0)): 3, (0, (0, 1)): 5})
        r = normal_form(v, [g])
        assert r.coeffs == {(0, (0, 2)): 25 * pow(9, -1, p) % p}


class TestBuchberger:
    def test_monomial_minimalization(self):
        gb = buchberger(ideal(W13, [(5, 0), (2, 1), (3, 1)]))
        leads = {g.lead()[1] for g in gb.generators}
        assert leads == {(5, 0), (2, 1)}

    def test_principal_ideal(self):
        gb = buchberger(monomial_elements(RingSpec((2,), ("x",)), [(1,)]))
        assert len(gb.generators) == 1

    def test_truncation_generators_unchanged(self):
        gens = [(5, 0), (2, 1), (0, 2)]
        gb = buchberger(ideal(W13, gens))
        assert sorted(g.lead()[1] for g in gb.generators) == sorted(gens)

    def test_binomial_ideal(self):
        # x^3 - y and x^5: classic weighted-homogeneous pair (deg 3 and 5)
        amb = FreeModuleSpec((0,))
        f = FreeElement(W13, amb, {(0, (3, 0)): 1, (0, (0, 1)): 32002})
        g = FreeElement(W13, amb, {(0, (5, 0)): 1})
        gb = buchberger([f, g])
        # x^2 y = x^2(x^3 - y) wrong sign aside, membership must hold:
        probe = FreeElement(W13, amb, {(0, (2, 1)): 1})
        r = normal_form(probe, list(gb.generators))
        # x^2*y = x^2*x^3 - x^2*(x^3 - y) is in the ideal
        assert r.is_zero()

    def test_rejects_inhomogeneous(self):
        amb = FreeModuleSpec((0,))
        bad = FreeElement(W13, amb, {(0, (1, 0)): 1, (0, (0, 1)): 1})
        with pytest.raises(InhomogeneousInput) as exc:
            buchberger([bad])
        assert exc.value.degrees == [1, 3]


class TestSchreyerSyzygies:
    def test_paper_truncation_syzygies(self):
        gb = buchberger(ideal(W13, [(5, 0), (2, 1), (0, 2)]))
        syz, src = schreyer_syzygies(gb)
        assert src.twists == (5, 5, 6)
        min_syz = minimal_generators(syz)
        assert [s.homogeneous_degree() for s in min_syz] == [8, 8]
        # columns of the displayed first differential
        p = W13.char
        expected = [
            {(0, (0, 1)): 1, (1, (3, 0)): p - 1},
            {(1, (0, 1)): 1, (2, (2, 0)): p - 1},
        ]
        assert [s.coeffs for s in min_syz] == expected

    def test_single_element_no_syzygies(self):
        gb = buchberger(ideal(W13, [(2, 1)]))
        syz, _ = schreyer_syzygies(gb)
        assert syz == []

    def test_koszul_syzygy_of_two_monomials(self):
        gb = buchberger(ideal(STD2, [(2, 0), (1, 1)]))
        syz, _ = schreyer_syzygies(gb)
        syz = minimal_generators(syz)
        assert len(syz) == 1
        assert syz[0].homogeneous_degree() == 3
        p = STD2.char
        assert syz[0].coeffs == {(0, (0, 1)): 1, (1, (1, 0)): p - 1}


def random_monomial_ideal(rng, spec, max_gens=6, max_exp=5):
    n = spec.num_vars
    gens = {
        tuple(rng.randint(0, max_exp) for _ in range(n)) for _ in range(rng.randint(1, max_gens))
    }
    gens.discard((0,) * n)
    return sorted(gens) or [(1,) + (0,) * (n - 1)]


def brute_force_kernel_dims(spec, gens_elements, degrees):
    """Kernel dimensions of (free module on gens) -> ambient, degree by degree."""
    src = FreeModuleSpec(tuple(g.homogeneous_degree() for g in gens_elements))
    ambient = gens_elements[0].ambient
    out = {}
    for d in degrees:
        cols = oracles.graded_basis(spec, src, d)
        rows = {key: i for i, key in enumerate(oracles.graded_basis(spec, ambient, d))}
        if not cols:
            out[d] = 0
            continue
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for cidx, (comp, mon) in enumerate(cols):
            for (acomp, amon), coeff in gens_elements[comp].coeffs.items():
                mat[rows[(acomp, mon_mul(amon, mon))], cidx] = coeff
        out[d] = len(cols) - oracles.rank_mod(mat, spec.char)
    return out


class TestSyzygyProperties:
    def test_membership_soundness(self):
        rng = random.Random(5)
        for _ in range(25):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            gens = ideal(spec, random_monomial_ideal(rng, spec))
            gb = buchberger(gens)
            # random homogeneous combination of the generators reduces to zero
            combo = FreeElement.zero(spec, gens[0].ambient)
            for g in gens:
                m = rng.choice(monomials_of_wdeg(spec, rng.randint(0, 4)) or [spec.one()])
                combo = combo + g.term_mul(m, rng.randint(1, spec.char - 1))
            for piece in _homogeneous_pieces(combo):
                assert normal_form(piece, list(gb.generators)).is_zero()

    def test_syzygy_columns_annihilate_generators(self):
        rng = random.Random(6)
        for _ in range(25):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3))))
            gens = ideal(spec, random_monomial_ideal(rng, spec))
            syz, _ = syzygies(gens)
            for s in syz:
                total = FreeElement.zero(spec, gens[0].ambient)
                for (comp, mon), coeff in s.coeffs.items():
                    total = total + gens[comp].term_mul(mon, coeff)
                assert total.is_zero()

    def test_syzygy_completeness_against_linear_algebra(self):
        rng = random.Random(7)
        for _ in range(12):
            spec = RingSpec(tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3))))
            gens = ideal(spec, random_monomial_ideal(rng, spec, max_exp=4))
            syz, _ = syzygies(gens)
            degrees = range(0, 13)
            expected = brute_force_kernel_dims(spec, gens, degrees)
            got = oracles.graded_span_dims(syz, degrees)
            assert got == expected

    def test_monomial_closure(self):
        rng = random.Random(8)
        for _ in range(20):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            gb = buchberger(ideal(spec, random_monomial_ideal(rng, spec)))
            for g in gb.generators:
                assert len(g.coeffs) == 1


def _homogeneous_pieces(v):
    if not v:
        return []
    spec, amb = v.spec, v.ambient
    buckets = {}
    for (comp, mon), c in v.coeffs.items():
        d = spec.wdeg(mon) + amb.twists[comp]
        buckets.setdefault(d, {})[(comp, mon)] = c
    return [FreeElement(spec, amb, b, _clean=True) for b in buckets.values()]


class TestMinimalGenerators:
    def test_redundant_monomial_dropped(self):
        gens = ideal(W13, [(5, 0), (2, 1), (3, 1)])
        mins = minimal_generators(gens)
        assert sorted(g.lead()[1] for g in mins) == [(2, 1), (5, 0)]

    def test_scalar_dependence_within_degree(self):
        amb = FreeModuleSpec((0,))
        f = FreeElement(STD2, amb, {(0, (2, 0)): 1, (0, (1, 1)): 1})
        g = FreeElement(STD2, amb, {(0, (2, 0)): 2, (0, (1, 1)): 2})
        mins = minimal_generators([f, g])
        assert len(mins) == 1

    def test_mixed_degrees(self):
        # x1^2 in the span of x1 via multiplication
        gens = ideal(STD2, [(1, 0), (2, 0)])
        mins = minimal_generators(gens)
        assert [g.lead()[1] for g in mins] == [(1, 0)]


def _dense_minimal_generators(elements):
    """The selection of minimal_generators, made with the dense echelon
    oracle over the whole graded piece of each degree."""
    elements = sorted((v for v in elements if v), key=element_sort_key)
    spec, ambient = elements[0].spec, elements[0].ambient
    accepted = []
    for d in sorted({v.homogeneous_degree() for v in elements}):
        index = {key: i for i, key in enumerate(oracles.graded_basis(spec, ambient, d))}
        space = oracles._EchelonSpace(len(index), spec.char)
        for w in accepted:
            for m in monomials_of_wdeg(spec, d - w.homogeneous_degree()):
                space.insert(oracles._expand(w.term_mul(m), index))
        for v in elements:
            if v.homogeneous_degree() == d and space.insert(oracles._expand(v, index)):
                accepted.append(v)
    return sorted(accepted, key=element_sort_key)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_minimal_generators_match_dense_echelon(p):
    # seeded random homogeneous elements with non-unit coefficients, some of
    # them combinations of multiples of the others
    rng = random.Random(p)
    dropped = 0
    for twists in ((0,), (0, 1), (1, 1, 3)):
        ambient = FreeModuleSpec(twists)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))), char=p)
            elements = []
            for _ in range(rng.randint(2, 7)):
                d = rng.randint(min(twists) + 1, min(twists) + 4)
                basis = oracles.graded_basis(spec, ambient, d)
                if not basis:
                    continue
                terms = rng.sample(basis, min(len(basis), rng.randint(1, 3)))
                v = FreeElement(spec, ambient, {key: rng.randint(2, 3 * p) for key in terms})
                if v:
                    elements.append(v)
            for _ in range(3):
                d = rng.randint(min(twists) + 1, min(twists) + 6)
                combo = FreeElement.zero(spec, ambient)
                for w in rng.sample(elements, min(len(elements), 2)):
                    mons = monomials_of_wdeg(spec, d - w.homogeneous_degree())
                    if mons:
                        combo = combo + w.term_mul(rng.choice(mons), rng.randint(2, 3 * p))
                if combo:
                    elements.append(combo)
            if not elements:
                continue
            want = _dense_minimal_generators(elements)
            assert minimal_generators(elements) == want
            dropped += len(elements) - len(want)
    assert dropped >= 20
