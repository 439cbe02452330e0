"""Dense linear algebra over prime fields.

Two rank kernels run the same Gaussian elimination: ``rank_py`` on plain
lists, fastest on the many tiny blocks (Koszul strands, and homology blocks
up to 12 on a side), and ``rank_mod`` on numpy int64 arrays for larger
homology blocks and the dense fallbacks.  The tests cross-check both against
an independent elimination.

The numpy kernel multiplies two residues in int64, so it requires p < 2**31,
which every supported characteristic satisfies.
"""

from __future__ import annotations

import numpy as np


def rank_py(rows, p: int) -> int:
    """Rank of a small list-of-lists matrix over F_p (pure Python)."""
    if not rows or not rows[0]:
        return 0
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0])
    r = 0
    for c in range(n):
        piv = -1
        for i in range(r, m):
            if a[i][c] % p:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[piv], a[r] = a[r], a[piv]
        inv = pow(a[r][c] % p, -1, p)
        row = a[r]
        for j in range(c, n):
            row[j] = row[j] * inv % p
        for i in range(r + 1, m):
            f = a[i][c] % p
            if f:
                ai = a[i]
                for j in range(c, n):
                    ai[j] = (ai[j] - f * row[j]) % p
        r += 1
        if r == m:
            break
    return r


def _rank_numpy(a: np.ndarray, p: int) -> int:
    m, n = a.shape
    r = 0
    for c in range(n):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        f = a[r + 1:, c]
        if f.size:
            a[r + 1:, c:] = (a[r + 1:, c:] - np.outer(f, a[r, c:])) % p
        r += 1
        if r == m:
            break
    return r


def rank_mod(mat, p: int) -> int:
    """Exact rank of an integer matrix over F_p (numpy elimination)."""
    a = np.ascontiguousarray(np.asarray(mat, dtype=np.int64)) % p
    if a.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    return _rank_numpy(a, p)
