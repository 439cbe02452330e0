import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nskoszul import modp


RNG = np.random.default_rng(20240811)


def reference_rank(mat, p):
    # Independent fraction-free elimination over F_p, column by column.
    a = [[int(x) % p for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _columns(mat):
    """The columns of a dense matrix as dicts row -> entry, zeros included."""
    a = np.asarray(mat, dtype=np.int64)
    return [dict(enumerate(a[:, c].tolist())) for c in range(a.shape[1])]


def _rank_sparse(mat, p):
    return len(modp.pivots(_columns(mat), p))


# The dense oracle and the sparse kernel on the same cases; the ids name the
# elimination.
@pytest.mark.parametrize("rank", [oracles.rank_mod, _rank_sparse], ids=["numpy", "python"])
class TestRankBackends:
    def test_identity(self, rank):
        assert rank(np.eye(5, dtype=np.int64), 32003) == 5

    def test_zero(self, rank):
        assert rank(np.zeros((4, 7), dtype=np.int64), 32003) == 0

    def test_empty(self, rank):
        assert rank(np.zeros((0, 3), dtype=np.int64), 32003) == 0

    def test_characteristic_sensitivity(self, rank):
        # rank drops mod 2 but not mod 32003
        mat = [[1, 1], [1, -1]]
        assert rank(mat, 32003) == 2
        assert rank(mat, 2) == 1

    @pytest.mark.parametrize("shape", [(6, 6), (10, 4), (3, 17), (40, 40)])
    @pytest.mark.parametrize("p", [2, 101, 32003])
    def test_matches_reference(self, rank, shape, p):
        for _ in range(5):
            mat = RNG.integers(-p, p, size=shape)
            assert rank(mat, p) == reference_rank(mat.tolist(), p)

    def test_low_rank_product(self, rank):
        a = RNG.integers(0, 32003, size=(30, 3))
        b = RNG.integers(0, 32003, size=(3, 25))
        assert rank((a @ b) % 32003, 32003) <= 3


PRIMES = (2, 3, 32003, 2**31 - 1)


def _entries(rows, cols, p):
    # beyond +-p, so that nonzero multiples of p occur
    row = st.lists(st.integers(-2 * p, 2 * p), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def matrices_mod_p(draw):
    """Up to 8x8 matrices over F_p, half of them products of rank <= 3."""
    p = draw(st.sampled_from(PRIMES))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if not draw(st.booleans()):
        return draw(_entries(m, n, p)), p
    k = draw(st.integers(0, 3))
    a, b = draw(_entries(m, k, p)), draw(_entries(k, n, p))
    mat = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)] for i in range(m)]
    return mat, p


@settings(max_examples=80, derandomize=True, deadline=None)
@given(matrices_mod_p())
def test_kernels_agree_with_reference(case):
    mat, p = case
    want = reference_rank(mat, p)
    assert oracles.rank_mod(mat, p) == want
    assert _rank_sparse(mat, p) == want


@settings(max_examples=80, derandomize=True, deadline=None)
@given(matrices_mod_p())
def test_pivots_are_the_column_rank_profile(case):
    # column c is a pivot exactly when it raises the rank of the columns before it
    mat, p = case
    want = [
        c
        for c in range(len(mat[0]))
        if reference_rank([row[: c + 1] for row in mat], p)
        > reference_rank([row[:c] for row in mat], p)
    ]
    assert modp.pivots(_columns(mat), p) == want
    assert oracles.pivots_mod(mat, p) == want


def test_kernels_agree_at_largest_supported_characteristic():
    # rank <= 2 products; above 2**31 the int64 kernel overflowed on most
    p = 2**31 - 1
    rng = np.random.default_rng(31)
    for _ in range(200):
        mat = (rng.integers(0, p, (3, 2)) @ rng.integers(0, 2, (2, 4))) % p
        assert oracles.rank_mod(mat, p) == _rank_sparse(mat, p)
        assert _rank_sparse(mat, p) == reference_rank(mat.tolist(), p)


def test_sparse_rank_matches():
    for _ in range(20):
        mat = RNG.integers(-7, 7, size=(8, 8))
        assert _rank_sparse(mat, 101) == reference_rank(mat.tolist(), 101)


@pytest.mark.parametrize("p", PRIMES)
def test_multiples_of_p_are_not_pivots(p):
    # entries are taken mod p on entry: a column of nonzero multiples of p is
    # zero, and a negative entry is its residue
    columns = [{0: p, 1: -2 * p}, {0: -1}, {0: p - 1, 1: 3 * p}, {1: -p}, {1: 2 * p - 1}]
    assert modp.pivots(columns, p) == [1, 4]


def test_empty_columns_are_not_pivots():
    assert modp.pivots([], 7) == []
    assert modp.pivots([{}, {3: 1}, {}, {}, {0: 2}, {}], 7) == [1, 4]


def test_stored_keys_are_the_lows():
    # each independent column is stored under its largest key once reduced,
    # reduced but not scaled: column 1 reduces by column 0 to {0: 6}, column
    # 3 by columns 0 and 1 to nothing, so the lows are 2, 0 and 1; columns 0
    # and 2 have new lows as given and are stored as they are
    stored = {}
    columns = [{0: 1, 2: 1}, {2: 1}, {1: 3}, {0: 2, 2: 5}]
    assert modp.pivots(columns, 7, stored) == [0, 1, 2]
    assert list(stored) == [2, 0, 1]
    assert stored[0] == {0: 6} and stored[1] == {1: 3}
    assert stored[2] is columns[0] and stored[1] is columns[2]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(matrices_mod_p(), st.data())
def test_inputs_unchanged_and_stored_columns_reused(case, data):
    # zeros are dropped but negative entries, entries >= p and nonzero
    # multiples of p stay, so some columns are stored by reference and others
    # only after a copy into canonical form; a second call on the same dict
    # reduces against both, unscaled
    mat, p = case
    columns = [
        {r: row[c] for r, row in enumerate(mat) if row[c]} for c in range(len(mat[0]))
    ]
    columns.append({0: -1, len(mat): p, len(mat) + 1: 2 * p + 1})
    columns.append({len(mat) + 1: -3 * p})
    copies = [dict(column) for column in columns]
    split = data.draw(st.integers(0, len(columns)))
    stored = {}
    first = modp.pivots(columns[:split], p, stored)
    second = modp.pivots(columns[split:], p, stored)
    assert columns == copies
    dense = [[column.get(r, 0) for column in columns] for r in range(len(mat) + 2)]
    assert first + [split + i for i in second] == oracles.pivots_mod(dense, p)


def test_any_totally_ordered_keys():
    # relabelling the rows injectively keeps the column rank profile, here by
    # (component, monomial) labels in an order unrelated to the row order
    rng = np.random.default_rng(7)
    for p in (2, 3, 32003):
        for _ in range(20):
            mat = rng.integers(0, 3, size=(6, 8)) * rng.integers(0, 2, size=(6, 8))
            labels = [(int(rng.integers(0, 2)), (r, int(rng.integers(0, 5)))) for r in range(6)]
            relabelled = [
                {labels[r]: c for r, c in column.items()} for column in _columns(mat)
            ]
            assert modp.pivots(relabelled, p) == modp.pivots(_columns(mat), p)
