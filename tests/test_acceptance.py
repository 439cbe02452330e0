"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The sweep (criterion 4) is
computed once per session and shared by the criteria that quantify over its
cases.
"""

import hashlib
import itertools
import json
import random
import time
from math import ceil

import pytest

import oracles
from nskoszul.assoc_graded import OrdContext, gr_betti, gr_hilbert
from nskoszul.complexes import BettiTable, resolve_module
from nskoszul.construction import construct_gr_betti, ses_hilbert_check
from nskoszul.egm import betti_via_koszul
from nskoszul.gb import monomial_elements
from nskoszul.koszul_check import koszul_verdict, linear_part, lin_acyclicity
from nskoszul.ring import RingSpec
from nskoszul.sweep import rows_to_csv, rows_to_dicts, run_sweep
from nskoszul.truncation import trunc_gens

SWEEP_MAX_VARS = 3
SWEEP_MAX_WEIGHT = 4
SWEEP_MAX_E = 12

# sha256 of `sweep --max-vars 3 --max-weight 4 --max-e 12 --format csv|json`,
# the byte contract of the machine formats
GOLDEN_CSV_SHA256 = "650d0329263a679a73ae3806bfa2b4ec7917e74b41322bb93cf14c1d48d7ce86"
GOLDEN_JSON_SHA256 = "c8e55d1ae95923279fe7d09e72c7d105fa7428b914405d95ad4b5aaf0fc6835c"


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


@pytest.fixture(scope="module")
def sweep_result():
    start = time.perf_counter()
    rows = run_sweep(SWEEP_MAX_VARS, SWEEP_MAX_WEIGHT, SWEEP_MAX_E)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def _columns_match_up_to_units(got, expected, row_twists, col_twists, char):
    """Equality of two differentials' columns up to unit column scaling and
    twist-preserving permutations of rows and columns."""

    def normalize(col):
        if not col:
            return col
        inv = pow(col[min(col)], -1, char)
        return {key: v * inv % char for key, v in col.items()}

    rows = range(len(row_twists))
    cols = range(len(col_twists))
    for rperm in itertools.permutations(rows):
        if any(row_twists[i] != row_twists[rperm[i]] for i in rows):
            continue
        back = {rperm[r]: r for r in rows}
        for cperm in itertools.permutations(cols):
            if any(col_twists[j] != col_twists[cperm[j]] for j in cols):
                continue
            g = [normalize({(back[r], m): v for (r, m), v in got[cperm[c]].items()}) for c in cols]
            if g == [normalize(col) for col in expected]:
                return True
    return False


def test_criterion_1_intro_example():
    start = time.perf_counter()
    spec = RingSpec((1, 3), ("x", "y"))
    gens = trunc_gens(spec, 5)
    ok = gens == [(5, 0), (2, 1), (0, 2)]

    F = resolve_module(monomial_elements(spec, gens))
    ok = ok and [m.twists for m in F.modules] == [(5, 5, 6), (8, 8)]

    L = linear_part(F, spec)
    expected = [{(0, (0, 1)): 1}, {(1, (0, 1)): 1}]
    ok = ok and _columns_match_up_to_units(
        L.diffs[0], expected, F.modules[0].twists, F.modules[1].twists, spec.char
    )

    acyclic, _ = lin_acyclicity(L)
    ok = ok and acyclic

    table = gr_betti(OrdContext(spec, tuple((0, m) for m in gens)))
    ok = ok and table.entries == ((0, 0, 3), (1, 1, 2))

    elapsed = time.perf_counter() - start
    report(1, "intro example weights (1,3) e=5", ok and elapsed < 1.0,
           f"{elapsed * 1000:.0f} ms")


def test_criterion_2_second_example():
    start = time.perf_counter()
    spec = RingSpec((1, 4), ("x", "y"))
    gens = trunc_gens(spec, 5)
    ok = gens == [(5, 0), (1, 1), (0, 2)]
    F = resolve_module(monomial_elements(spec, gens))
    ok = ok and F.modules[0].twists == (5, 5, 8)
    ok = ok and F.modules[1].twists == (9, 9)
    elapsed = time.perf_counter() - start
    report(2, "second example weights (1,4) e=5", ok and elapsed < 1.0,
           f"{elapsed * 1000:.0f} ms")


def test_criterion_3_horseshoe_example():
    start = time.perf_counter()
    table, trace = construct_gr_betti((1, 2, 2), 7)
    ok = trace.N == 4
    first = trace.steps[0]
    ok = ok and first.sub_weights == (1, 2) and first.sub_threshold == 1
    ok = ok and first.sub_table.entries == ((0, 0, 2), (1, 1, 1))
    ok = ok and first.after_tensor.entries == ((0, 0, 2), (1, 1, 3), (2, 2, 1))
    ok = ok and first.after_horseshoe.entries == ((0, 0, 3), (1, 1, 3), (2, 2, 1))
    elapsed = time.perf_counter() - start
    report(3, "horseshoe example weights (1,2,2) e=7", ok and elapsed < 1.0,
           f"{elapsed * 1000:.0f} ms")


def test_criterion_4_theorem_sweep(sweep_result):
    rows, elapsed = sweep_result
    ok = len(rows) > 0
    for r in rows:
        spec = RingSpec(r.case.weights)
        want = r.case.e + spec.num_vars * spec.max_weight + spec.num_vars
        ok = ok and r.case.bound == want and r.report.all_true
    ok = ok and elapsed <= 600.0
    report(4, "theorem sweep n<=3 w<=4 e<=12", ok,
           f"{len(rows)} cases in {elapsed:.0f} s")
    # the same bytes as the CLI writes for --format csv and --format json
    csv = rows_to_csv(rows, SWEEP_MAX_VARS)
    payload = json.dumps({"rows": rows_to_dicts(rows)}, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_CSV_SHA256
    assert hashlib.sha256((payload + "\n").encode()).hexdigest() == GOLDEN_JSON_SHA256


SMALL_CHAR_GRID = (3, 2, 7)  # n <= 3, weights <= 2, e <= 7: 63 cases


@pytest.fixture(scope="module")
def small_grid_csv_32003():
    rows = run_sweep(*SMALL_CHAR_GRID, char=32003)
    return rows_to_csv(rows, 3).splitlines()


@pytest.mark.parametrize("char", [2, 3])
def test_sweep_in_small_characteristics(char, small_grid_csv_32003):
    # Betti numbers may depend on the characteristic; on this grid they do not.
    rows = run_sweep(*SMALL_CHAR_GRID, char=char)
    assert len(rows) == 63
    assert all(r.report.all_true for r in rows)
    assert rows_to_csv(rows, 3).splitlines() == small_grid_csv_32003


def test_criterion_5_oracle_equivalence(sweep_result):
    rows, _ = sweep_result
    ok = True
    for r in rows:
        spec = RingSpec(r.case.weights)
        bound = r.case.bound
        gens = trunc_gens(spec, r.case.e)
        M = oracles.monomial_module(spec, gens, bound=bound)
        oracle = betti_via_koszul(M, bound=bound)
        if r.report.resolution_betti.restrict(bound) != oracle:
            ok = False
            break
    report(5, "resolution vs Koszul-homology oracle", ok, f"{len(rows)} cases")


def test_criterion_6_hilbert_identity(sweep_result):
    rows, _ = sweep_result
    ok = True
    for r in rows:
        spec = RingSpec(r.case.weights)
        bound = r.case.bound
        ctx = OrdContext(spec, tuple((0, m) for m in trunc_gens(spec, r.case.e)))
        hilb = gr_hilbert(ctx, bound)
        lhs = oracles.alternating_betti_series(r.report.gr_table, bound)
        rhs = oracles.truncated_series_product(
            hilb, oracles.one_minus_t_power(spec.num_vars, bound), bound
        )
        if lhs != rhs:
            ok = False
            break
    report(6, "Hilbert series identity", ok, f"{len(rows)} cases")


def test_criterion_7_free_module_truncations():
    rng = random.Random(777)
    weight_pool = [
        (1,), (3,), (1, 3), (1, 4), (2, 3), (4, 4), (1, 1, 2), (1, 2, 2), (2, 3, 4)
    ]
    checked = 0
    ok = True
    while checked < 20:
        weights = rng.choice(weight_pool)
        spec = RingSpec(weights)
        twists = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 3)))
        e = rng.randint(1, 6)
        predicted = oracles.construct_free_betti(weights, twists, e)
        ctx = OrdContext(spec, tuple(oracles.trunc_free_gens(spec, twists, e)))
        if predicted != gr_betti(ctx):
            ok = False
            break
        # twist invariance: the shifted module is literally the plain one
        a = rng.randint(-6, 6)
        from nskoszul.assoc_graded import gr_module

        shifted = gr_module(
            OrdContext(spec, tuple(oracles.trunc_free_gens(spec, (a,), e))), 6
        )
        plain = gr_module(
            OrdContext(spec, tuple((0, m) for m in trunc_gens(spec, e - a))), 6
        )
        if oracles.module_view(shifted) != oracles.module_view(plain):
            ok = False
            break
        checked += 1
    report(7, "free module truncations and twist invariance", ok,
           f"{checked} twist vectors")


def test_criterion_8_ses_hilbert_additivity(sweep_result):
    rows, _ = sweep_result
    ok = True
    layers = 0
    for r in rows:
        weights = r.case.weights
        d = max(weights)
        N = ceil(r.case.e / d)
        for i in range(N):
            good, _, _ = ses_hilbert_check(weights, r.case.e, i, r.case.bound)
            layers += 1
            if not good:
                ok = False
                break
        if not ok:
            break
    report(8, "layer sequence Hilbert additivity", ok,
           f"{layers} layers across {len(rows)} cases")


def test_criterion_9_complex_hygiene():
    rng = random.Random(999)
    checked = 0
    produced = 0
    ok = True
    while checked < 1000 and ok:
        n = rng.randint(1, 3)
        spec = RingSpec(tuple(rng.randint(1, 3) for _ in range(n)))
        gens = sorted(
            {
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 6))
            }
            - {(0,) * n}
        )
        if not gens:
            continue
        complexes = []
        F = resolve_module(monomial_elements(spec, gens))
        # the minimal resolution has no unit entry, so minimizing changes nothing
        M = oracles.minimize_complex(F)
        if (M.modules, M.diffs) != (F.modules, F.diffs):
            ok = False
            break
        complexes.append(F)
        complexes.append(linear_part(F, spec))
        complexes.append(oracles.taylor_complex(spec, gens))
        complexes.append(oracles.minimize_complex(complexes[-1]))
        K = oracles.koszul_complex(spec, range(n))
        complexes.append(K)
        if checked % 5 == 0:
            complexes.append(oracles.totalize_tensor(F, K))
        for C in complexes:
            produced += 1
            rep = oracles.check_complex(C)
            if not rep.ok:
                ok = False
                break
        checked += 1
    report(9, "complex hygiene on randomized inputs", ok and checked >= 1000,
           f"{produced} complexes from {checked} inputs")


FOUR_VARIABLE_CASES = [
    (weights, e)
    for weights in itertools.combinations_with_replacement(range(1, 4), 4)
    for e in range(1, 7)
]


def weighted_hilbert_identity(spec, e, table) -> bool:
    """sum_i (-1)^i sum_j beta_ij t^j == H(R_{>=e}, t) * prod_k (1 - t^{w_k})
    for the weighted Betti table of a resolution of the degree >= e
    truncation, compared up to past its top degree."""
    top = max(j for _, j, _ in table.entries) + sum(spec.weights) + 1
    hilb = [len(oracles.monomials_of_wdeg(spec, d)) if d >= e else 0 for d in range(top + 1)]
    rhs = oracles.truncated_series_product(
        hilb, oracles.one_minus_t_powers(spec.weights, top), top
    )
    return oracles.alternating_betti_series(table, top) == rhs


@pytest.mark.parametrize("char", [32003, 2])
def test_criterion_10_four_variables(char):
    # n = 4, weights <= 3, e <= 6: every verdict true, the construction's
    # table equal to the gr table, and the resolution's weighted Betti
    # numbers satisfying the Hilbert series identity
    start = time.perf_counter()
    ok = len(FOUR_VARIABLE_CASES) == 90
    for weights, e in FOUR_VARIABLE_CASES:
        spec = RingSpec(weights, char=char)
        r = koszul_verdict(spec, e)
        ok = ok and r.all_true and r.construct_table == r.gr_table
        ok = ok and weighted_hilbert_identity(spec, e, r.resolution_betti)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(10, f"four variables w<=3 e<=6 p={char}", ok,
           f"{len(FOUR_VARIABLE_CASES)} cases in {elapsed:.1f} s")


FIVE_VARIABLE_SPOT_CHECKS = [((1, 1, 1, 1, 1), e) for e in range(1, 5)] + [
    ((1, 2, 3, 4, 5), e) for e in range(1, 9)
]


def test_criterion_10_five_variable_spot_checks():
    # (1,1,1,1,1) e <= 4 and (1,2,3,4,5) e <= 8, with the checks of the
    # four-variable grid
    start = time.perf_counter()
    ok = True
    for weights, e in FIVE_VARIABLE_SPOT_CHECKS:
        spec = RingSpec(weights)
        r = koszul_verdict(spec, e)
        ok = ok and r.all_true and r.construct_table == r.gr_table
        ok = ok and weighted_hilbert_identity(spec, e, r.resolution_betti)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(10, "five-variable spot checks", ok,
           f"{len(FIVE_VARIABLE_SPOT_CHECKS)} cases in {elapsed:.1f} s")


def test_eliahou_kervaire_count(sweep_result):
    # the closed-form count of Eliahou and Kervaire, which resolves
    # nothing, equals the resolution's Betti table and has the gr table's
    # totals (Herzog-Iyengar: equal totals for a Koszul module) on the
    # sweep and the four-variable grid; the count that lets J take m(u)
    # equals neither on any case
    tables = [
        (RingSpec(r.case.weights), r.case.e, r.report.resolution_betti, r.report.gr_table)
        for r in sweep_result[0]
    ]
    for weights, e in FOUR_VARIABLE_CASES:
        spec = RingSpec(weights)
        gens = trunc_gens(spec, e)
        F = resolve_module(monomial_elements(spec, gens))
        tables.append((spec, e, F.betti_from_twists(), gr_betti(OrdContext(spec, tuple((0, m) for m in gens)))))
    assert len(tables) == 408 + 90
    for spec, e, resolution, gr in tables:
        gens = trunc_gens(spec, e)
        count = oracles.eliahou_kervaire_betti(spec, gens)
        assert count == resolution, (spec.weights, e)
        totals = range(max(count.max_hom(), gr.max_hom()) + 1)
        assert [count.total(i) for i in totals] == [gr.total(i) for i in totals]
        assert oracles.eliahou_kervaire_betti(spec, gens, through_last=True) != resolution


def test_eliahou_kervaire_count_refuses_an_ideal_that_is_not_stable():
    # (x^2, y^2): x * y^2 / y = xy is not in the ideal; the count would put
    # a syzygy in degree 3 (u = y^2, J = {x}) where the one Koszul syzygy
    # sits in degree 4
    spec = RingSpec((1, 1))
    with pytest.raises(oracles.NotStable):
        oracles.eliahou_kervaire_betti(spec, [(2, 0), (0, 2)])


def test_weighted_hilbert_identity_rejects_a_wrong_table():
    # negative control: one Betti number off breaks the identity
    spec = RingSpec((1, 3))
    F = resolve_module(monomial_elements(spec, trunc_gens(spec, 5)))
    table = F.betti_from_twists()
    assert weighted_hilbert_identity(spec, 5, table)
    (i, j, r), *rest = table.entries
    assert not weighted_hilbert_identity(spec, 5, BettiTable(((i, j, r + 1), *rest)))
