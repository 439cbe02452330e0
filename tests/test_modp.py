import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _rank_py(mat, p):
    return modp.rank_py(np.asarray(mat).tolist(), p)


# Both rank kernels on the same cases; the ids name the elimination.
@pytest.mark.parametrize("rank", [modp.rank_mod, _rank_py], ids=["numpy", "python"])
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
    assert modp.rank_mod(mat, p) == want
    assert modp.rank_py(mat, p) == want


def test_kernels_agree_at_largest_supported_characteristic():
    # rank <= 2 products; above 2**31 the int64 kernel overflowed on most
    p = 2**31 - 1
    rng = np.random.default_rng(31)
    for _ in range(200):
        mat = (rng.integers(0, p, (3, 2)) @ rng.integers(0, 2, (2, 4))) % p
        assert modp.rank_mod(mat, p) == modp.rank_py(mat.tolist(), p)
        assert modp.rank_py(mat.tolist(), p) == reference_rank(mat.tolist(), p)


def test_rank_py_matches():
    for _ in range(20):
        mat = RNG.integers(-7, 7, size=(8, 8))
        assert modp.rank_py(mat.tolist(), 101) == reference_rank(mat.tolist(), 101)
