import random
from itertools import combinations_with_replacement

import pytest

import oracles
from nskoszul import complexes, gb
from nskoszul.complexes import resolve_module
from nskoszul.gb import (
    InhomogeneousInput,
    _Engine,
    minimal_generators,
    minimal_syzygies,
    monomial_elements,
)
from nskoszul.ring import (
    FreeElement,
    FreeModuleSpec,
    RingSpec,
    mon_divides,
    mon_lcm,
    monomials_of_wdeg,
)
from nskoszul.sweep import sweep_cases
from nskoszul.truncation import trunc_gens

import numpy as np

W13 = RingSpec((1, 3), ("x", "y"))
W14 = RingSpec((1, 4), ("x", "y"))
STD2 = RingSpec((1, 1), ("x1", "x2"))


def ideal(spec, mons):
    return monomial_elements(spec, mons)


def combine(rep, gens):
    """The element sum_k rep_k * gens[k] of the module the gens live in."""
    total = FreeElement(gens[0].spec, gens[0].ambient, {})
    for (comp, mon), coeff in rep.coeffs.items():
        total = total + oracles.term_mul(gens[comp], mon, coeff)
    return total


# fields wide enough for every test that builds an engine by hand
WIDTH = 16


def engine(gens):
    """The syzygy engine on gens, packed in fields of WIDTH bits, not run."""
    spec, ambient = gens[0].spec, gens[0].ambient
    layout = gb._Layout(spec.num_vars, WIDTH)
    return _Engine(spec, ambient.twists, gb._pack(gens, layout), layout)


def packed_reduce(eng, v):
    """The engine's reduction of v, unpacked: (remainder, rep)."""
    pack, unpack = eng.layout.pack, eng.layout.unpack
    work = {pack(c, m): coeff for (c, m), coeff in v.coeffs.items()}
    remainder, rep = eng._reduce(work, {})
    r = FreeElement(v.spec, v.ambient, {unpack(t): c for t, c in remainder}, _clean=True)
    return r, FreeElement(v.spec, eng.source, {unpack(t): c for t, c in rep.items()}, _clean=True)


def lead_monomials(eng):
    return [eng.layout.unpack(lead)[1] for lead in eng.leads]


def reduce_by(v, gens, run=False):
    """v reduced by the syzygy engine's working basis on gens: the monic
    gens, and after run() a Groebner basis.  Checks the representation the
    reduction tracks: the remainder is v plus that combination of gens."""
    eng = engine(gens)
    if run:
        eng.run()
    r, rep = packed_reduce(eng, v)
    assert r == v + combine(rep, gens)
    return r


class TestNormalForm:
    def test_self_reduction(self):
        (g,) = ideal(W13, [(2, 1)])
        assert not reduce_by(g, [g])

    def test_monomial_divisibility(self):
        v, g = ideal(W13, [(3, 1), (2, 1)])
        assert not reduce_by(v, [g])

    def test_single_division_step(self):
        # x^4 + y reduced by x^2 leaves y
        amb = FreeModuleSpec((0,))
        v = FreeElement(W13, amb, {(0, (4, 0)): 1, (0, (0, 1)): 1})
        (g,) = ideal(W13, [(2, 0)])
        r = reduce_by(v, [g])
        assert r.coeffs == {(0, (0, 1)): 1}

    def test_deterministic_reducer_choice(self):
        # two reducers both divide; the lowest-index one is used, result is canonical
        amb = FreeModuleSpec((0,))
        v = FreeElement(W13, amb, {(0, (4, 1)): 1})
        g1, g2 = ideal(W13, [(2, 1), (1, 1)])
        assert not reduce_by(v, [g1, g2])
        assert not reduce_by(v, [g2, g1])

    def test_non_monic_reducer(self):
        # x1^2 by 3*x1 + 5*x2, stored as its monic multiple: subtract (x1/3) g,
        # then (-5*x2/9) g, leaving (25/9) x2^2
        amb = FreeModuleSpec((0,))
        p = STD2.char
        v = FreeElement(STD2, amb, {(0, (2, 0)): 1})
        g = FreeElement(STD2, amb, {(0, (1, 0)): 3, (0, (0, 1)): 5})
        r = reduce_by(v, [g])
        assert r.coeffs == {(0, (0, 2)): 25 * pow(9, -1, p) % p}


class TestBuchberger:
    """Buchberger's algorithm as the syzygy engine runs it."""

    def test_monomial_minimalization(self):
        # x^3 y = x * x^2 y: the engine keeps every input and records the
        # syzygy x e_1 - e_2; minimal_generators drops x^3 y
        gens = ideal(W13, [(5, 0), (2, 1), (3, 1)])
        eng = engine(gens)
        eng.run()
        assert lead_monomials(eng) == [(5, 0), (2, 1), (3, 1)]
        p = W13.char
        syz, _ = oracles.syzygies(gens)
        assert {(1, (1, 0)): 1, (2, (0, 0)): p - 1} in [s.coeffs for s in syz]
        assert [oracles.lead(g)[1] for g in minimal_generators(gens)] == [(5, 0), (2, 1)]

    def test_pairs_set_the_default_rank(self):
        spec = RingSpec((1, 1), ("x", "y"))
        (v,) = monomial_elements(spec, [(2, (1, 0))])
        assert v.ambient == FreeModuleSpec((0, 0, 0)) and v.coeffs == {(2, (1, 0)): 1}
        (u,) = monomial_elements(spec, [(1, 0)])
        assert u.ambient == FreeModuleSpec((0,))

    def test_principal_ideal(self):
        gens = monomial_elements(RingSpec((2,), ("x",)), [(1,)])
        eng = engine(gens)
        eng.run()
        assert len(eng.leads) == 1
        syz, src = oracles.syzygies(gens)
        assert syz == [] and src.twists == (2,)

    def test_truncation_generators_unchanged(self):
        # the truncation generators are already a Groebner basis
        gens = [(5, 0), (2, 1), (0, 2)]
        eng = engine(ideal(W13, gens))
        eng.run()
        assert sorted(lead_monomials(eng)) == sorted(gens)

    def test_binomial_ideal(self):
        # x^3 - y and x^5: classic weighted-homogeneous pair (deg 3 and 5)
        amb = FreeModuleSpec((0,))
        f = FreeElement(W13, amb, {(0, (3, 0)): 1, (0, (0, 1)): 32002})
        g = FreeElement(W13, amb, {(0, (5, 0)): 1})
        # x^2*y = x^2*x^3 - x^2*(x^3 - y) is in the ideal, and the engine's
        # basis shows it: the S-pair of f and g adds x^2 y
        probe = FreeElement(W13, amb, {(0, (2, 1)): 1})
        assert not reduce_by(probe, [f, g], run=True)
        syz, src = oracles.syzygies([f, g])
        assert src.twists == (3, 5)
        for s in syz:
            assert not combine(s, [f, g])
        degrees = range(0, 16)
        assert oracles.graded_span_dims(syz, degrees) == brute_force_kernel_dims(
            W13, [f, g], degrees
        )

    def test_rejects_inhomogeneous(self):
        amb = FreeModuleSpec((0,))
        bad = FreeElement(W13, amb, {(0, (1, 0)): 1, (0, (0, 1)): 1})
        with pytest.raises(InhomogeneousInput) as exc:
            oracles.syzygies([bad])
        assert exc.value.degrees == [1, 3]


class TestSchreyerSyzygies:
    def test_paper_truncation_syzygies(self):
        syz, src = oracles.syzygies(ideal(W13, [(5, 0), (2, 1), (0, 2)]))
        assert src.twists == (5, 5, 6)
        min_syz = minimal_generators(syz)
        assert [oracles.homogeneous_degree(s) for s in min_syz] == [8, 8]
        # columns of the displayed first differential
        p = W13.char
        expected = [
            {(0, (0, 1)): 1, (1, (3, 0)): p - 1},
            {(1, (0, 1)): 1, (2, (2, 0)): p - 1},
        ]
        assert [s.coeffs for s in min_syz] == expected

    def test_single_element_no_syzygies(self):
        syz, _ = oracles.syzygies(ideal(W13, [(2, 1)]))
        assert syz == []

    def test_koszul_syzygy_of_two_monomials(self):
        syz, _ = oracles.syzygies(ideal(STD2, [(2, 0), (1, 1)]))
        syz = minimal_generators(syz)
        assert len(syz) == 1
        assert oracles.homogeneous_degree(syz[0]) == 3
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
    src = FreeModuleSpec(tuple(oracles.homogeneous_degree(g) for g in gens_elements))
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
                mat[rows[(acomp, oracles.mon_mul(amon, mon))], cidx] = coeff
        out[d] = len(cols) - oracles.rank_mod(mat, spec.char)
    return out


class TestSyzygyProperties:
    def test_membership_soundness(self):
        rng = random.Random(5)
        for _ in range(25):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
            gens = ideal(spec, random_monomial_ideal(rng, spec))
            # random homogeneous combination of the generators reduces to zero
            combo = FreeElement(spec, gens[0].ambient, {})
            for g in gens:
                m = rng.choice(monomials_of_wdeg(spec, rng.randint(0, 4)) or [spec.one()])
                combo = combo + oracles.term_mul(g, m, rng.randint(1, spec.char - 1))
            for piece in _homogeneous_pieces(combo):
                assert not reduce_by(piece, gens, run=True)

    def test_syzygy_columns_annihilate_generators(self):
        rng = random.Random(6)
        for _ in range(25):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3))))
            gens = ideal(spec, random_monomial_ideal(rng, spec))
            syz, _ = oracles.syzygies(gens)
            for s in syz:
                assert not combine(s, gens)

    def test_syzygy_completeness_against_linear_algebra(self):
        rng = random.Random(7)
        for _ in range(12):
            spec = RingSpec(tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 3))))
            gens = ideal(spec, random_monomial_ideal(rng, spec, max_exp=4))
            syz, _ = oracles.syzygies(gens)
            degrees = range(0, 13)
            expected = brute_force_kernel_dims(spec, gens, degrees)
            got = oracles.graded_span_dims(syz, degrees)
            assert got == expected

    def test_monomial_closure(self):
        rng = random.Random(8)
        for _ in range(20):
            spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            eng = engine(ideal(spec, random_monomial_ideal(rng, spec)))
            eng.run()
            for tail in eng.tails:
                assert tail == []


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
        assert sorted(oracles.lead(g)[1] for g in mins) == [(2, 1), (5, 0)]

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
        assert [oracles.lead(g)[1] for g in mins] == [(1, 0)]


def _sort_key(v):
    return oracles.element_sort_key(v, oracles.homogeneous_degree(v))


def _dense_minimal_generators(elements):
    """The selection of minimal_generators, made with the dense echelon
    oracle over the whole graded piece of each degree."""
    elements = sorted((v for v in elements if v), key=_sort_key)
    spec, ambient = elements[0].spec, elements[0].ambient
    accepted = []
    for d in sorted({oracles.homogeneous_degree(v) for v in elements}):
        index = {key: i for i, key in enumerate(oracles.graded_basis(spec, ambient, d))}
        space = oracles._EchelonSpace(len(index), spec.char)
        for w in accepted:
            for m in monomials_of_wdeg(spec, d - oracles.homogeneous_degree(w)):
                space.insert(oracles._expand(oracles.term_mul(w, m), index))
        for v in elements:
            if oracles.homogeneous_degree(v) != d:
                continue
            if space.insert(oracles._expand(v, index)):
                accepted.append(v)
    return sorted(accepted, key=_sort_key)


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
                combo = FreeElement(spec, ambient, {})
                for w in rng.sample(elements, min(len(elements), 2)):
                    mons = monomials_of_wdeg(spec, d - oracles.homogeneous_degree(w))
                    if mons:
                        c = rng.randint(2, 3 * p)
                        combo = combo + oracles.term_mul(w, rng.choice(mons), c)
                if combo:
                    elements.append(combo)
            if not elements:
                continue
            want = _dense_minimal_generators(elements)
            assert assert_same_selection(elements) == want
            dropped += len(elements) - len(want)
    assert dropped >= 20


def test_element_sort_key_reads_the_lead_term():
    # the key takes the lead from the lowest component without comparing
    # degrees; it must equal the key built from the lead term
    rng = random.Random(17)
    components = 0
    for _ in range(300):
        spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
        ambient = FreeModuleSpec(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4))))
        d = rng.randint(3, 8)
        basis = oracles.graded_basis(spec, ambient, d)
        if not basis:
            continue
        terms = rng.sample(basis, min(len(basis), rng.randint(1, 6)))
        v = FreeElement(spec, ambient, {key: rng.randint(1, 50) for key in terms})
        comp, mon, _ = oracles.lead(v)
        want = (oracles.homogeneous_degree(v), comp, tuple(reversed(mon)))
        assert oracles.element_sort_key(v, d) == want
        components = max(components, len({c for c, _ in v.coeffs}))
    assert components >= 3


def _random_element(rng, spec, ambient, d, terms=3):
    """A random element of degree d with up to terms terms, or 0."""
    basis = oracles.graded_basis(spec, ambient, d)
    if not basis:
        return FreeElement(spec, ambient, {})
    keys = rng.sample(basis, min(len(basis), rng.randint(1, terms)))
    return FreeElement(spec, ambient, {k: rng.randint(1, 3 * spec.char) for k in keys})


def engine_basis(eng, ref):
    """The packed engine's basis as the reference engine keeps it:
    (basis, leads, reps) as FreeElements and (component, monomial, 1)
    triples.  Asserts that it is the reference's, dict orders aside."""
    unpack = eng.layout.unpack
    spec, ambient = ref.spec, ref.ambient
    basis, leads, reps = [], [], []
    for lead, tail, rep in zip(eng.leads, eng.tails, eng.reps):
        comp, mon = unpack(lead)
        terms = {(comp, mon): 1, **{unpack(t): c for t, c in tail}}
        basis.append(FreeElement(spec, ambient, terms, _clean=True))
        leads.append((comp, mon, 1))
        reps.append(FreeElement(spec, eng.source, {unpack(t): c for t, c in rep.items()}))
    assert (basis, leads, reps) == (ref.basis, ref.leads, ref.reps)
    assert [list(r.coeffs.items()) for r in reps] == [list(r.coeffs.items()) for r in ref.reps]
    return basis, leads, reps


@pytest.mark.parametrize("twists", [(0,), (0, 1)])
@pytest.mark.parametrize("p", [2, 3, 32003])
def test_heap_reduction_matches_max_scan(p, twists):
    # the heap of packed terms must pop them in the order of the max scan, so
    # the remainder, the representation and their dict orders all agree.  The
    # engine reduces homogeneous elements only, so an element that mixes
    # degrees is reduced one homogeneous piece at a time.
    rng = random.Random(100 * p + len(twists))
    ambient = FreeModuleSpec(twists)
    reduced = changed = 0
    for _ in range(10):
        spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3))), char=p)
        gens = [_random_element(rng, spec, ambient, rng.randint(1, 3), 2) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        eng = engine(gens)
        ref = oracles._ReferenceEngine(gens)
        for run in (False, True):
            if run:
                eng.run()
                ref.run()
            basis, leads, reps = engine_basis(eng, ref)
            for _ in range(8):
                d = rng.randint(2, 5)
                v = _random_element(rng, spec, ambient, d, 4)
                for g in rng.sample(gens, min(2, len(gens))):
                    mons = monomials_of_wdeg(spec, d - oracles.homogeneous_degree(g))
                    if mons:
                        v = v + oracles.term_mul(g, rng.choice(mons), rng.randint(1, p))
                if rng.random() < 0.3:
                    v = v + _random_element(rng, spec, ambient, d + 1)
                for piece in _homogeneous_pieces(v):
                    zero = FreeElement(spec, eng.source, {})
                    r, rep = packed_reduce(eng, piece)
                    want_r, want_rep = oracles.reduce_max_scan(piece, basis, leads, reps, zero)
                    assert list(r.coeffs.items()) == list(want_r.coeffs.items())
                    assert list(rep.coeffs.items()) == list(want_rep.coeffs.items())
                    reduced += 1
                    changed += r != piece
    assert reduced >= 100 and changed >= reduced // 2


# Truncations whose resolutions run the engine on one- and many-component
# inputs: weighted and standard, characteristic 2, three and four variables.
CHAIN_RINGS = [
    ((1, 3), 5, 32003),
    ((1, 1, 2), 4, 2),
    ((1, 1, 2), 6, 32003),
    ((1, 1, 2, 3), 3, 32003),
    ((1, 1, 1, 1), 3, 2),
    ((1, 2, 2, 3), 4, 32003),
]


def test_chain_skip_is_the_literal_criterion(monkeypatch):
    # every popped pair (i, j) is skipped iff some third lead k in the same
    # component divides lcm(mi, mj) while lcm(mi, mk) and lcm(mk, mj) both
    # differ from it
    decisions = []
    chain_skip = _Engine._chain_skip

    def recording(self, i, j, lcm):
        got = chain_skip(self, i, j, lcm)
        leads = [self.layout.unpack(lead) for lead in self.leads]
        comp, top = self.layout.unpack(lcm)
        (ci, mi), (cj, mj) = leads[i], leads[j]
        assert ci == cj == comp and top == mon_lcm(mi, mj)
        want = any(
            k not in (i, j)
            and ck == comp
            and mon_divides(mk, top)
            and mon_lcm(mi, mk) != top
            and mon_lcm(mk, mj) != top
            for k, (ck, mk) in enumerate(leads)
        )
        decisions.append((got, want, comp))
        return got

    monkeypatch.setattr(_Engine, "_chain_skip", recording)
    for weights, e, p in CHAIN_RINGS:
        spec = RingSpec(weights, char=p)
        resolve_module(monomial_elements(spec, trunc_gens(spec, e)))
    assert [got for got, _, _ in decisions] == [want for _, want, _ in decisions]
    skipped = sum(got for got, _, _ in decisions)
    assert skipped >= 200 and len(decisions) - skipped >= 200
    assert any(comp > 0 and got for got, _, comp in decisions)


# ---------------------------------------------------------------------------
# the packed engine against the reference engine


def assert_same_syzygies(gens):
    """oracles.syzygies(gens), the packed engine's whole syzygy set, equals
    the reference engine's output: the same elements in the same order, each
    with its terms in the same order."""
    got, source = oracles.syzygies(gens)
    want, want_source = oracles.syzygies_reference(gens)
    assert source == want_source
    assert got == want
    assert [list(s.coeffs.items()) for s in got] == [list(s.coeffs.items()) for s in want]
    return got


def assert_same_selection(elements):
    """minimal_generators keeps the elements that the reference selection on
    (component, monomial) labels keeps, in the same order; returns them."""
    got = minimal_generators(elements)
    want = oracles.minimal_generators_reference(elements)
    assert [id(v) for v in got] == [id(v) for v in want]
    return got


def assert_same_kept(columns, syz):
    """The columns a level keeps, term dicts, are the reference selection
    from the level's whole syzygy set syz, with their terms in its order."""
    want = oracles.minimal_generators_reference(syz)
    assert [list(c.items()) for c in columns] == [list(s.coeffs.items()) for s in want]


def checked_resolutions(monkeypatch, cases, p):
    """Resolve the truncation of each (weights, e) case at characteristic p
    and check every level: the engine's whole syzygy set against the
    reference engine's, and the syzygies the level keeps against the
    reference selection from that set.  Returns the number of levels."""
    runs = oracles.record_engine_runs(monkeypatch)
    kept = []
    levels = gb.minimal_syzygies

    def recording(gens):
        for source, columns in levels(gens):
            kept.append(columns)
            yield source, columns

    monkeypatch.setattr(complexes, "minimal_syzygies", recording)
    levels_checked = 0
    for weights, e in cases:
        runs.clear()
        kept.clear()
        spec = RingSpec(weights, char=p)
        resolve_module(monomial_elements(spec, trunc_gens(spec, e)))
        assert len(kept) == len(runs)
        for (gens, syz, source), columns in zip(runs.values(), kept):
            want, want_source = oracles.syzygies_reference(gens)
            assert source == want_source
            assert syz == want
            assert [list(s.coeffs.items()) for s in syz] == [
                list(s.coeffs.items()) for s in want
            ]
            assert_same_kept(columns, syz)
        levels_checked += len(runs)
    return levels_checked


def test_syzygies_match_the_reference_on_four_variables(monkeypatch):
    # the 90 cases of the resolve4 benchmark workload: n = 4, weights <= 3
    cases = [
        (w, e) for w in combinations_with_replacement(range(1, 4), 4) for e in range(1, 7)
    ]
    assert checked_resolutions(monkeypatch, cases, 32003) == 360


def test_syzygies_match_the_reference_on_the_sweep(monkeypatch):
    # the cases of the 408-case acceptance sweep: n <= 3, weights <= 4, e <= 12
    cases = [(c.weights, c.e) for c in sweep_cases(3, 4, 12)]
    assert len(cases) == 408
    assert checked_resolutions(monkeypatch, cases, 32003) >= 408


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_syzygies_match_the_reference_on_random_inputs(p):
    # homogeneous generators, at least one of them with several terms, with
    # non-unit coefficients, in twisted free modules of rank up to 3; the
    # selection from the generators, from their whole syzygy set, and the
    # first level of their resolution
    rng = random.Random(1000 + p)
    inputs = multi = non_monic = found = dropped = kept = 0
    while inputs < 110:
        spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))), char=p)
        ambient = FreeModuleSpec(tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3))))
        low = min(ambient.twists)
        gens = [
            _random_element(rng, spec, ambient, rng.randint(low + 1, low + 6), 4)
            for _ in range(rng.randint(3, 7))
        ]
        gens = [g for g in gens if g]
        if len(gens) < 2 or all(len(g.coeffs) == 1 for g in gens):
            continue
        syz = assert_same_syzygies(gens)
        found += len(syz)
        dropped += len(syz) - len(assert_same_selection(syz))
        mins = assert_same_selection(gens)
        source, columns = next(minimal_syzygies(mins))
        syz, want_source = oracles.syzygies_reference(mins)
        assert source == want_source
        assert_same_kept(columns, syz)
        kept += len(columns)
        inputs += 1
        multi += len({c for g in gens for c, _ in g.coeffs}) > 1
        non_monic += any(oracles.lead(g)[2] != 1 for g in gens)
    assert multi >= 50 and found >= 250 and dropped >= 90 and kept >= 90
    assert p == 2 or non_monic >= 100


# ---------------------------------------------------------------------------
# field widths


def test_large_exponents_in_one_variable():
    spec = RingSpec((1,), ("x",))
    big = 2**20
    gens = monomial_elements(spec, [(big,), (big + 3,)])
    (s,) = assert_same_syzygies(gens)
    assert s.coeffs == {(0, (3,)): 1, (1, (0,)): spec.char - 1}


def test_truncation_with_exponents_past_one_byte(monkeypatch):
    # exponents up to 600 on two variables, fields far wider than the
    # narrowest ones
    spec = RingSpec((1, 300), ("x", "y"))
    assert trunc_gens(spec, 600) == [(600, 0), (300, 1), (0, 2)]
    assert checked_resolutions(monkeypatch, [((1, 300), 600)], spec.char) == 2


def record_widths(monkeypatch) -> list:
    """Wrap gb._Layout so that the width of every layout made is listed."""
    widths = []

    class Recording(gb._Layout):
        def __init__(self, n, width):
            widths.append(width)
            super().__init__(n, width)

    monkeypatch.setattr(gb, "_Layout", Recording)
    return widths


def test_a_carry_into_a_guard_bit_widens_the_fields(monkeypatch):
    # x^127 sizes the fields for exponents up to 255, but reducing the S-pair
    # of g1 and g2 by g3 multiplies x^127 e2 by x^252
    widths = record_widths(monkeypatch)
    spec = RingSpec((1,), ("x",))
    ambient = FreeModuleSpec((0, -126, -252))
    g1 = FreeElement(spec, ambient, {(0, (1,)): 1, (1, (127,)): 1})
    g2 = FreeElement(spec, ambient, {(0, (127,)): 1})
    g3 = FreeElement(spec, ambient, {(1, (1,)): 1, (2, (127,)): 1})
    syz = assert_same_syzygies([g1, g2, g3])
    assert len(widths) == 2 and widths[0] < widths[1]
    assert (1 << (widths[0] - 1)) <= 379 < (1 << (widths[1] - 1))
    for s in syz:
        assert not combine(s, [g1, g2, g3])


def test_a_carry_in_a_span_column_widens_the_fields(monkeypatch):
    # x^255 sizes the fields for exponents up to 511 and no engine runs, but
    # the span column x^255 * x^300 of degree 555 carries into a guard bit
    widths = record_widths(monkeypatch)
    spec = RingSpec((1, 3), ("x", "y"))
    ambient = FreeModuleSpec((0,))
    a = FreeElement(spec, ambient, {(0, (255, 0)): 1})
    b = FreeElement(spec, ambient, {(0, (255, 100)): 1, (0, (0, 185)): 2})
    c = FreeElement(spec, ambient, {(0, (255, 100)): 3})
    assert [id(v) for v in assert_same_selection([a, c, b])] == [id(a), id(b)]
    assert len(widths) == 2
    assert (1 << (widths[0] - 1)) <= 555 < (1 << (widths[1] - 1))


def test_a_carry_in_a_span_column_restarts_the_level(monkeypatch):
    # weights (1, 1, 4), e = 1: the fields hold exponents up to 3, and while
    # the first syzygies are selected the span column x1^3 (x2 e0 - x1 e1)
    # carries, so that level starts over with its inputs repacked wider
    widths = record_widths(monkeypatch)
    assert checked_resolutions(monkeypatch, [((1, 1, 4), 1)], 32003) == 3
    assert widths == [3, 5, 3, 5]


def test_inhomogeneous_input_with_large_exponents():
    spec = RingSpec((1, 2), ("x", "y"))
    ambient = FreeModuleSpec((0, 5))
    good = FreeElement(spec, ambient, {(0, (2**20, 0)): 1})
    bad = FreeElement(spec, ambient, {(0, (2**20, 1)): 1, (1, (0, 1)): 3})
    with pytest.raises(InhomogeneousInput) as exc:
        oracles.syzygies([good, bad])
    assert exc.value.index == 1 and exc.value.degrees == [7, 2**20 + 2]


def test_negative_exponent_rejected():
    # a negative exponent has no field to go in
    amb = FreeModuleSpec((0,))
    bad = FreeElement(W13, amb, {(0, (-1, 2)): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        oracles.syzygies([bad])
