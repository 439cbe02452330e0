import random
from itertools import combinations_with_replacement

import pytest

import oracles
from oracles import monomials_of_wdeg
from nskoszul import cli, complexes, gb
from nskoszul.complexes import resolve_module
from nskoszul.gb import NotMonomial, _Engine, minimal_syzygies, monomial_elements
from nskoszul.ring import FreeElement, FreeModuleSpec, RingSpec, mon_divides, mon_lcm
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
    return _Engine(spec, ambient.twists, oracles.engine_inputs(gens, layout), layout)


def packed_reduce(eng, v):
    """The engine's reduction of v, unpacked: (remainder, rep)."""
    pack, unpack = eng.layout.pack, eng.layout.unpack
    work = {pack(c, m): coeff for (c, m), coeff in v.coeffs.items()}
    remainder, rep = eng._reduce(work, {})
    r = FreeElement(v.spec, v.ambient, {unpack(t): c for t, c in remainder}, _clean=True)
    return r, FreeElement(v.spec, eng.source, {unpack(t): c for t, c in rep.items()}, _clean=True)


def kept_generators(gens):
    """The generators that the first level of minimal_syzygies keeps from
    the monomial elements gens, in order: the inputs of its first engine
    run."""
    with pytest.MonkeyPatch.context() as mp:
        runs = oracles.record_engine_runs(mp)
        next(minimal_syzygies(gens))
    return runs[0][0]


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
        # syzygy x e_1 - e_2; the first level's selection drops x^3 y
        gens = ideal(W13, [(5, 0), (2, 1), (3, 1)])
        eng = engine(gens)
        eng.run()
        assert lead_monomials(eng) == [(5, 0), (2, 1), (3, 1)]
        p = W13.char
        syz, _ = oracles.syzygies(gens)
        assert {(1, (1, 0)): 1, (2, (0, 0)): p - 1} in [s.coeffs for s in syz]
        assert [oracles.lead(g)[1] for g in kept_generators(gens)] == [(5, 0), (2, 1)]

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
        # the seam over the engine and the reference engine take general
        # elements, homogeneous ones only
        amb = FreeModuleSpec((0,))
        bad = FreeElement(W13, amb, {(0, (1, 0)): 1, (0, (0, 1)): 1})
        for syzygies in (oracles.syzygies, oracles.syzygies_reference):
            with pytest.raises(oracles.InhomogeneousInput) as exc:
                syzygies([bad])
            assert exc.value.degrees == [1, 3]


class TestSchreyerSyzygies:
    def test_paper_truncation_syzygies(self):
        gens = ideal(W13, [(5, 0), (2, 1), (0, 2)])
        _, src = oracles.syzygies(gens)
        assert src.twists == (5, 5, 6)
        source, columns = next(minimal_syzygies(gens))
        assert source == src
        min_syz = [FreeElement(W13, source, c) for c in columns]
        assert [oracles.homogeneous_degree(s) for s in min_syz] == [8, 8]
        # columns of the displayed first differential
        p = W13.char
        expected = [
            {(0, (0, 1)): 1, (1, (3, 0)): p - 1},
            {(1, (0, 1)): 1, (2, (2, 0)): p - 1},
        ]
        assert columns == expected

    def test_single_element_no_syzygies(self):
        syz, _ = oracles.syzygies(ideal(W13, [(2, 1)]))
        assert syz == []

    def test_koszul_syzygy_of_two_monomials(self):
        source, columns = next(minimal_syzygies(ideal(STD2, [(2, 0), (1, 1)])))
        assert len(columns) == 1
        assert oracles.homogeneous_degree(FreeElement(STD2, source, columns[0])) == 3
        p = STD2.char
        assert columns[0] == {(0, (0, 1)): 1, (1, (1, 0)): p - 1}


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
    """The selection of the first level of minimal_syzygies."""

    def test_redundant_monomial_dropped(self):
        gens = ideal(W13, [(5, 0), (2, 1), (3, 1)])
        mins = kept_generators(gens)
        assert sorted(oracles.lead(g)[1] for g in mins) == [(2, 1), (5, 0)]

    def test_scalar_dependence_within_degree(self):
        # 3 x1^2 and 2 x1^2 span the same line; the first is kept
        amb = FreeModuleSpec((0, 0))
        f = FreeElement(STD2, amb, {(1, (2, 0)): 3})
        g = FreeElement(STD2, amb, {(1, (2, 0)): 2})
        h = FreeElement(STD2, amb, {(0, (2, 0)): 2})
        assert kept_generators([f, g, h]) == [h, f]

    def test_mixed_degrees(self):
        # x1^2 in the span of x1 via multiplication
        gens = ideal(STD2, [(1, 0), (2, 0)])
        mins = kept_generators(gens)
        assert [oracles.lead(g)[1] for g in mins] == [(1, 0)]


def _sort_key(v):
    return oracles.element_sort_key(v, oracles.homogeneous_degree(v))


def _dense_minimal_generators(elements):
    """The minimal-generator selection, made with the dense echelon oracle
    over the whole graded piece of each degree."""
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


def _random_homogeneous(rng, spec, ambient, terms):
    """Seeded random homogeneous elements with up to terms terms and
    non-unit coefficients, some of them multiples of the others, or sums of
    two such multiples when terms > 1."""
    p, low = spec.char, min(ambient.twists)
    elements = []
    for _ in range(rng.randint(2, 7)):
        basis = oracles.graded_basis(spec, ambient, rng.randint(low + 1, low + 4))
        if basis:
            keys = rng.sample(basis, min(len(basis), rng.randint(1, terms)))
            v = FreeElement(spec, ambient, {key: rng.randint(2, 3 * p) for key in keys})
            if v:
                elements.append(v)
    for _ in range(3):
        d = rng.randint(low + 1, low + 6)
        combo = FreeElement(spec, ambient, {})
        for w in rng.sample(elements, min(len(elements), 2 if terms > 1 else 1)):
            mons = monomials_of_wdeg(spec, d - oracles.homogeneous_degree(w))
            if mons:
                combo = combo + oracles.term_mul(w, rng.choice(mons), rng.randint(2, 3 * p))
        if combo:
            elements.append(combo)
    return elements


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_minimal_generators_match_dense_echelon(p):
    # the dense echelon keeps what the reference selection keeps on general
    # elements, and what the first level of minimal_syzygies keeps on
    # monomial ones, in twisted free modules
    rng = random.Random(p)
    dropped = {1: 0, 3: 0}
    for twists in ((0,), (0, 1), (1, 1, 3)):
        ambient = FreeModuleSpec(twists)
        for _ in range(8):
            spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))), char=p)
            for terms in (3, 1):
                elements = _random_homogeneous(rng, spec, ambient, terms)
                if not elements:
                    continue
                want = _dense_minimal_generators(elements)
                if terms == 1:
                    assert assert_same_selection(elements) == want
                else:
                    assert oracles.minimal_generators_reference(elements) == want
                dropped[terms] += len(elements) - len(want)
    assert dropped[3] >= 20 and dropped[1] >= 20


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
# inputs: weighted and standard, characteristics 2 and 3, three and four
# variables.  In the last three, run() adds elements, so components gain
# leads after some of their pairs were decided.
CHAIN_RINGS = [
    ((1, 3), 5, 32003),
    ((1, 1, 2), 4, 2),
    ((1, 1, 2), 6, 32003),
    ((1, 1, 2, 3), 3, 32003),
    ((1, 1, 1, 1), 3, 2),
    ((1, 2, 2, 3), 4, 32003),
    ((3, 3, 4), 10, 3),
    ((2, 2, 2, 3), 5, 32003),
    ((2, 2, 3, 3), 5, 2),
]


def literal_chain_skip(leads, i: int, j: int) -> bool:
    """Buchberger's chain criterion as stated, on (component, monomial)
    leads: some third lead k of the component of i and j divides
    L = lcm(mi, mj) while lcm(mi, mk) and lcm(mk, mj) both differ from L."""
    (ci, mi), (cj, mj) = leads[i], leads[j]
    top = mon_lcm(mi, mj)
    return any(
        k not in (i, j)
        and ck == ci
        and mon_divides(mk, top)
        and mon_lcm(mi, mk) != top
        and mon_lcm(mk, mj) != top
        for k, (ck, mk) in enumerate(leads)
    )


def random_lead_set(rng, n: int) -> list:
    """2 to 7 (component, monomial) leads in one or two components, with
    exponents up to 3, duplicate leads and leads that divide others."""
    comps = rng.randint(1, 2)
    leads = []
    for _ in range(rng.randint(2, 7)):
        roll = rng.random()
        if leads and roll < 0.15:
            leads.append(rng.choice(leads))
        elif leads and roll < 0.35:
            c, m = rng.choice(leads)
            leads.append((c, tuple(a + rng.randint(0, 1) for a in m)))
        else:
            leads.append((rng.randrange(comps), tuple(rng.randint(0, 2) for _ in range(n))))
    return leads


def test_chain_criterion_is_lead_ideal_membership():
    # on random lead sets, the engine's membership form of the criterion
    # (L - e_f - e_g in the lead ideal for f where mi falls short of L and
    # g where mj does) decides every pair as the literal form does
    rng = random.Random(28)
    specs = {n: RingSpec((1,) * n) for n in range(1, 6)}
    layouts = {n: gb._Layout(n, WIDTH) for n in specs}
    decided = [0, 0]
    repeated = dividing = 0
    for _ in range(10_000):
        n = rng.randint(1, 5)
        leads = random_lead_set(rng, n)
        repeated += len(set(leads)) < len(leads)
        dividing += any(a != b and mon_divides(a, b) for _, a in leads for _, b in leads)
        pack = layouts[n].pack
        inputs = [([(pack(c, m), 1)], 0) for c, m in leads]
        eng = _Engine(specs[n], (0, 0), inputs, layouts[n])
        for j, (cj, mj) in enumerate(leads):
            for i, (ci, mi) in enumerate(leads[:j]):
                if ci == cj:
                    want = literal_chain_skip(leads, i, j)
                    assert eng._chain_skip(i, j, pack(ci, mon_lcm(mi, mj))) == want
                    decided[want] += 1
    assert decided[True] >= 10_000 and decided[False] >= 10_000
    assert repeated >= 1_000 and dividing >= 5_000


def chain_decisions(monkeypatch) -> list:
    """Record every decision of _Engine._chain_skip as (got, want, comp,
    when): want the literal criterion against the leads present at the
    call, when "formed" for the first decision on a pair made while the
    engine is built, "mid-run" for one made as run() adds an element, and
    "popped" for a decision again when the pair is popped."""
    decisions = []
    chain_skip = _Engine._chain_skip

    def recording(self, i, j, lcm):
        got = chain_skip(self, i, j, lcm)
        leads = [self.layout.unpack(lead) for lead in self.leads]
        comp, top = self.layout.unpack(lcm)
        (ci, mi), (cj, mj) = leads[i], leads[j]
        assert ci == cj == comp and top == mon_lcm(mi, mj)
        seen = vars(self).setdefault("decided", set())
        if (i, j) in seen:
            when = "popped"
        else:
            when = "formed" if j < len(self.source.twists) else "mid-run"
            seen.add((i, j))
        decisions.append((got, literal_chain_skip(leads, i, j), comp, when))
        return got

    monkeypatch.setattr(_Engine, "_chain_skip", recording)
    return decisions


def test_chain_skip_is_the_literal_criterion(monkeypatch):
    # every decision on a pair (i, j), when the pair is formed, once all
    # inputs are in or as run() adds an element, and again at its pop when
    # its component has gained a lead since, is the literal criterion on
    # the leads present then; truncations, and modules of rank 2 and 3
    decisions = chain_decisions(monkeypatch)
    for weights, e, p in CHAIN_RINGS:
        spec = RingSpec(weights, char=p)
        resolve_module(monomial_elements(spec, trunc_gens(spec, e)))
    for spec, _, gens in oracles.random_monomial_modules(28, 300, (2, 3)):
        resolve_module(monomial_elements(spec, gens))
    assert [got for got, *_ in decisions] == [want for _, want, *_ in decisions]
    by_when = {
        when: [got for got, _, _, w in decisions if w == when]
        for when in ("formed", "mid-run", "popped")
    }
    floors = {"formed": 200, "mid-run": 10, "popped": 5}
    for when, gots in by_when.items():
        skipped = sum(gots)
        assert skipped >= floors[when] and len(gots) - skipped >= 20, when
    assert any(comp > 0 and got for got, _, comp, _ in decisions)


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
    """The first level of minimal_syzygies keeps from the monomial elements
    the generators that the reference selection on (component, monomial)
    labels keeps, in the same order; returns them."""
    got = kept_generators(elements)
    assert got == oracles.minimal_generators_reference(elements)
    return got


def assert_same_kept(columns, syz):
    """The columns a level keeps, term dicts, are the reference selection
    from the level's whole syzygy set syz, with their terms in its order."""
    want = oracles.minimal_generators_reference(syz)
    assert [list(c.items()) for c in columns] == [list(s.coeffs.items()) for s in want]


def assert_below(lcm, terms):
    """Every term (component, exponents) has exponents at most lcm's."""
    for _, m in terms:
        assert all(a <= b for a, b in zip(m, lcm)), (m, lcm)


def checked_resolutions(monkeypatch, modules) -> tuple:
    """Resolve each list of monomial elements and check every level: the
    generators the first level keeps against the reference selection from
    the input, the engine's whole syzygy set against the reference engine's,
    and the syzygies each level keeps against the reference selection from
    that set; and that every term of every engine input, syzygy set and
    kept column has exponents at most the lcm L of the input's.  Returns
    the number of levels checked and of syzygies the selections dropped."""
    runs = oracles.record_engine_runs(monkeypatch)
    kept = []
    levels = gb.minimal_syzygies

    def recording(gens):
        for source, columns in levels(gens):
            kept.append(columns)
            yield source, columns

    monkeypatch.setattr(complexes, "minimal_syzygies", recording)
    levels_checked = dropped = 0
    for gens in modules:
        runs.clear()
        kept.clear()
        resolve_module(gens)
        lcm = tuple(map(max, *(m for g in gens for _, m in g.coeffs), (0,) * gens[0].spec.num_vars))
        assert len(kept) == len(runs)
        assert runs[0][0] == oracles.minimal_generators_reference(gens)
        for (level, syz, source), columns in zip(runs, kept):
            want, want_source = oracles.syzygies_reference(level)
            assert source == want_source
            assert syz == want
            assert [list(s.coeffs.items()) for s in syz] == [
                list(s.coeffs.items()) for s in want
            ]
            assert_same_kept(columns, syz)
            for terms in [g.coeffs for g in level + syz] + columns:
                assert_below(lcm, terms)
            dropped += len(syz) - len(columns)
        levels_checked += len(runs)
    return levels_checked, dropped


def truncations(cases, p: int) -> list:
    """The generators of the truncation of each (weights, e) case at
    characteristic p, as monomial elements."""
    specs = [(RingSpec(weights, char=p), e) for weights, e in cases]
    return [monomial_elements(spec, trunc_gens(spec, e)) for spec, e in specs]


def test_syzygies_match_the_reference_on_four_variables(monkeypatch):
    # the 90 cases of the resolve4 benchmark workload: n = 4, weights <= 3
    cases = [
        (w, e) for w in combinations_with_replacement(range(1, 4), 4) for e in range(1, 7)
    ]
    assert checked_resolutions(monkeypatch, truncations(cases, 32003))[0] == 360


def test_syzygies_match_the_reference_on_the_sweep(monkeypatch):
    # the cases of the 408-case acceptance sweep: n <= 3, weights <= 4, e <= 12
    cases = [(c.weights, c.e) for c in sweep_cases(3, 4, 12)]
    assert len(cases) == 408
    assert checked_resolutions(monkeypatch, truncations(cases, 32003))[0] >= 408


def test_zero_s_polynomials_are_not_reduced(monkeypatch):
    # a kept pair whose S-polynomial is zero, as for two leads with no
    # tails, keeps its two-term rep as the syzygy with no reduction
    to_zero = []  # per reduction: did the S-polynomial reduce to zero
    found = []  # syzygies per engine run
    reduce, run = _Engine._reduce, _Engine.run

    def counted_reduce(self, work, rep):
        assert work
        remainder, rep = reduce(self, work, rep)
        to_zero.append(not remainder)
        return remainder, rep

    def counted_run(self):
        run(self)
        found.append(len(self.syzygies))

    monkeypatch.setattr(_Engine, "_reduce", counted_reduce)
    monkeypatch.setattr(_Engine, "run", counted_run)
    cases = [(w, e) for w in combinations_with_replacement(range(1, 4), 4) for e in range(1, 7)]
    for gens in truncations(cases, 32003):
        resolve_module(gens)
    assert len(found) == 360
    assert sum(found) - sum(to_zero) >= 3000


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_syzygies_match_the_reference_on_random_inputs(monkeypatch, p):
    # monomial modules of rank 1 to 3 in 2 to 4 variables, resolved in full
    modules = [
        monomial_elements(RingSpec(spec.weights, char=p), gens)
        for spec, _, gens in oracles.random_monomial_modules(p, 500, (1, 2, 3))
    ]
    levels, dropped = checked_resolutions(monkeypatch, modules)
    assert levels >= 800 and dropped >= 15
    assert sum(len(m[0].ambient.twists) > 1 for m in modules) >= 250


# ---------------------------------------------------------------------------
# field widths


def test_large_exponents_in_one_variable(monkeypatch):
    spec = RingSpec((1,), ("x",))
    big = 2**20
    gens = monomial_elements(spec, [(big,), (big + 3,)])
    (s,) = assert_same_syzygies(gens)
    assert s.coeffs == {(0, (3,)): 1, (1, (0,)): spec.char - 1}
    # x^(2^20) divides the other generator, so the resolution has one level
    two = monomial_elements(RingSpec((1, 2)), [(big, 1), (3, big)])
    assert checked_resolutions(monkeypatch, [gens, two]) == (3, 0)


def test_truncation_with_exponents_past_one_byte(monkeypatch):
    # exponents up to 600 on two variables, fields far wider than the
    # narrowest ones
    spec = RingSpec((1, 300), ("x", "y"))
    assert trunc_gens(spec, 600) == [(600, 0), (300, 1), (0, 2)]
    assert checked_resolutions(monkeypatch, truncations([((1, 300), 600)], spec.char))[0] == 2


def test_span_columns_stay_below_the_lcm(monkeypatch):
    # weights (1, 1, 4), e = 1: the fields hold exponents up to 3, and a
    # graded span column x1^3 (x2 e0 - x1 e1) would reach x1^4; the
    # columns at the candidates' multidegrees stay at most L = (1, 1, 1)
    assert checked_resolutions(monkeypatch, truncations([((1, 1, 4), 1)], 32003))[0] == 3


def test_negative_exponent_rejected():
    # a negative exponent has no field to go in
    amb = FreeModuleSpec((0,))
    bad = FreeElement(W13, amb, {(0, (-1, 2)): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        next(minimal_syzygies([bad]))


def test_a_generator_with_two_terms_is_refused():
    # x + y is homogeneous but not monomial; the command line reports the
    # refusal as an internal error
    x, y = monomial_elements(STD2, [(1, 0), (0, 1)])
    with pytest.raises(NotMonomial, match="generator 1 is not a monomial: it has 2 terms"):
        resolve_module([x, x + y])
    assert NotMonomial in cli.INTERNAL_ERRORS
