import numpy as np
import pytest

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


@pytest.mark.parametrize("backend", modp.available_backends())
class TestRankBackends:
    def test_identity(self, backend):
        assert modp.rank_mod(np.eye(5, dtype=np.int64), 32003, backend) == 5

    def test_zero(self, backend):
        assert modp.rank_mod(np.zeros((4, 7), dtype=np.int64), 32003, backend) == 0

    def test_empty(self, backend):
        assert modp.rank_mod(np.zeros((0, 3), dtype=np.int64), 32003, backend) == 0

    def test_characteristic_sensitivity(self, backend):
        # rank drops mod 2 but not mod 32003
        mat = [[1, 1], [1, -1]]
        assert modp.rank_mod(mat, 32003, backend) == 2
        assert modp.rank_mod(mat, 2, backend) == 1

    @pytest.mark.parametrize("shape", [(6, 6), (10, 4), (3, 17), (40, 40)])
    @pytest.mark.parametrize("p", [2, 101, 32003])
    def test_matches_reference(self, backend, shape, p):
        for _ in range(5):
            mat = RNG.integers(-p, p, size=shape)
            assert modp.rank_mod(mat, p, backend) == reference_rank(mat.tolist(), p)

    def test_low_rank_product(self, backend):
        a = RNG.integers(0, 32003, size=(30, 3))
        b = RNG.integers(0, 32003, size=(3, 25))
        assert modp.rank_mod((a @ b) % 32003, 32003, backend) <= 3


def test_backends_agree_on_random():
    if not modp.HAS_NUMBA:
        pytest.skip("numba unavailable")
    for _ in range(20):
        mat = RNG.integers(-100, 100, size=RNG.integers(1, 30, size=2))
        assert modp.rank_mod(mat, 32003, "numba") == modp.rank_mod(mat, 32003, "numpy")


def test_kernels_agree_at_largest_supported_characteristic():
    # rank <= 2 products; above 2**31 the int64 kernel overflowed on most
    p = 2**31 - 1
    rng = np.random.default_rng(31)
    for _ in range(200):
        mat = (rng.integers(0, p, (3, 2)) @ rng.integers(0, 2, (2, 4))) % p
        assert modp.rank_mod(mat, p, "numpy") == modp.rank_py(mat.tolist(), p)
        assert modp.rank_py(mat.tolist(), p) == reference_rank(mat.tolist(), p)


def test_rank_py_matches():
    for _ in range(20):
        mat = RNG.integers(-7, 7, size=(8, 8))
        assert modp.rank_py(mat.tolist(), 101) == reference_rank(mat.tolist(), 101)


def test_env_flag_selects_backend(monkeypatch):
    monkeypatch.setenv(modp.BACKEND_ENV, "numpy")
    assert modp.default_backend() == "numpy"
    monkeypatch.setenv(modp.BACKEND_ENV, "bogus")
    with pytest.raises(ValueError):
        modp.default_backend()


def test_nullity():
    mat = [[1, 2, 3], [2, 4, 6]]
    assert modp.nullity_mod(mat, 32003) == 2
