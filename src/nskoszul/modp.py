"""Dense linear algebra over prime fields.

Two kernels run the same Gaussian elimination, column by column, and return
its pivot columns: column c is a pivot exactly when it is not in the span of
the columns before it, so the pivots are the matrix's column rank profile
and the rank of every column prefix A[:, :c + 1] is the number of pivots
<= c.  ``pivots_py`` works on plain lists, fastest on the many tiny blocks
(Koszul strands, and homology slice blocks up to 12 on a side), and
``pivots_mod`` on numpy int64 arrays for the larger slice blocks.
``rank_py`` counts the pivots of a Koszul strand; the tests' dense oracles
rank by counting those of ``pivots_mod``.  The tests cross-check both
kernels against an independent elimination.

The numpy kernel multiplies two residues in int64, so it requires p < 2**31,
which every supported characteristic satisfies.
"""

from __future__ import annotations

import numpy as np


def pivots_py(rows, p: int) -> list:
    """Pivot columns of a small list-of-lists matrix over F_p (pure Python)."""
    if not rows or not rows[0]:
        return []
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0])
    pivots = []
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
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def pivots_mod(mat, p: int) -> list:
    """Pivot columns of an integer matrix over F_p (numpy elimination)."""
    a = np.ascontiguousarray(np.asarray(mat, dtype=np.int64)) % p
    if a.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {a.shape}")
    m, n = a.shape
    pivots = []
    if a.size == 0:
        return pivots
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
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rank_py(rows, p: int) -> int:
    """Rank of a small list-of-lists matrix over F_p (pure Python)."""
    return len(pivots_py(rows, p))
