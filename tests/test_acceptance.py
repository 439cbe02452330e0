"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The sweep (criterion 4) is
computed once per session and shared by the criteria that quantify over its
cases.
"""

import itertools
import random
import time
from math import ceil

import pytest

from nskoszul.assoc_graded import OrdContext, gr_betti, gr_hilbert
from nskoszul.complexes import (
    alternating_betti_series,
    check_complex,
    koszul_complex,
    minimize_complex,
    one_minus_t_power,
    resolve_module,
    taylor_complex,
    totalize_tensor,
    truncated_series_product,
)
from nskoszul.construction import (
    construct_free_betti,
    construct_gr_betti,
    ses_hilbert_check,
)
from nskoszul.egm import betti_via_koszul, monomial_module
from nskoszul.gb import monomial_elements
from nskoszul.koszul_check import linear_part, lin_acyclicity
from nskoszul.ring import RingSpec
from nskoszul.sweep import rows_to_csv, run_sweep
from nskoszul.truncation import trunc_free_gens, trunc_gens

SWEEP_MAX_VARS = 3
SWEEP_MAX_WEIGHT = 4
SWEEP_MAX_E = 12


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


def _matrices_match_up_to_units(got, expected, row_twists, col_twists, char):
    """Equality up to unit column scaling and twist-preserving permutations."""

    def normalize_col(col):
        lead = next((c for entry in col for _, c in sorted(entry.coeffs.items())), None)
        if lead is None:
            return col
        inv = pow(lead, -1, char)
        return [entry.scale(inv) for entry in col]

    rows = range(len(row_twists))
    cols = range(len(col_twists))
    for rperm in itertools.permutations(rows):
        if any(row_twists[i] != row_twists[rperm[i]] for i in rows):
            continue
        for cperm in itertools.permutations(cols):
            if any(col_twists[j] != col_twists[cperm[j]] for j in cols):
                continue
            g = [
                normalize_col([got[rperm[r]][cperm[c]] for r in rows]) for c in cols
            ]
            e = [normalize_col([expected[r][c] for r in rows]) for c in cols]
            if g == e:
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
    R = spec.companion()
    from nskoszul.ring import Polynomial

    y = Polynomial.variable(R, 1)
    zero = Polynomial.zero(R)
    expected = [[y, zero], [zero, y], [zero, zero]]
    got = [list(row) for row in L.diffs[0]]
    ok = ok and _matrices_match_up_to_units(
        got, expected, F.modules[0].twists, F.modules[1].twists, spec.char
    )

    acyclic, _ = lin_acyclicity(L, 13)
    ok = ok and acyclic

    table = gr_betti(OrdContext(spec, tuple((0, m) for m in gens)), 13)
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
        M = monomial_module(spec, gens, bound=bound)
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
        lhs = alternating_betti_series(r.report.gr_table, bound)
        rhs = truncated_series_product(
            hilb, one_minus_t_power(spec.num_vars, bound), bound
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
        eff = max(e - t for t in twists)
        bound = max(eff, 0) + spec.num_vars * spec.max_weight + spec.num_vars
        predicted = construct_free_betti(weights, twists, e)
        ctx = OrdContext(spec, tuple(trunc_free_gens(spec, twists, e)))
        if predicted != gr_betti(ctx, bound):
            ok = False
            break
        # twist invariance: the shifted module is literally the plain one
        a = rng.randint(-6, 6)
        from nskoszul.assoc_graded import gr_module

        shifted = gr_module(
            OrdContext(spec, tuple(trunc_free_gens(spec, (a,), e))), 6
        )
        plain = gr_module(
            OrdContext(spec, tuple((0, m) for m in trunc_gens(spec, e - a))), 6
        )
        if shifted.degrees != plain.degrees or shifted.actions != plain.actions:
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
        complexes.append(F)
        complexes.append(linear_part(F, spec))
        complexes.append(taylor_complex(spec, gens))
        complexes.append(minimize_complex(complexes[-1]))
        K = koszul_complex(spec, range(n))
        complexes.append(K)
        if checked % 5 == 0:
            complexes.append(totalize_tensor(F, K))
        if checked % 25 == 0:
            complexes.append(
                resolve_module(monomial_elements(spec, gens), minimize=False)
            )
        for C in complexes:
            produced += 1
            rep = check_complex(C)
            if not rep.ok:
                ok = False
                break
        checked += 1
    report(9, "complex hygiene on randomized inputs", ok and checked >= 1000,
           f"{produced} complexes from {checked} inputs")
