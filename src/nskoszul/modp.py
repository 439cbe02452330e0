"""Sparse column reduction over prime fields.

One elimination serves every rank the package takes: the lin grid walk's
slice blocks, the graded spans of each resolution level's minimal-generator
selection (``gb.minimal_syzygies``) and the Koszul strands.  A column is a dict from a key to a coefficient; any totally
ordered keys work (row indices, or (component, monomial) labels).
Coefficients are read mod p.  Each column is reduced by the stored column
with the same largest key until its largest key is new, and what is left is
stored under that key; the column is independent of the earlier ones
exactly when something is left.  So the independent columns are the column
rank profile, and the rank of every column prefix is a count of them.  The
key an independent column is stored under, its largest once reduced, is its
low; a caller that passes a dict reads the lows back as its keys, which is
how the lin walk clears the columns of the next differential down.  The
dict may hold columns already, stored under their lows by the caller as
reducers: the lin walk stores its apparent columns so.

A column whose low is new as given, with every coefficient in 1..p-1, is
stored as it is, by reference.  A column is copied only to be changed: once
into canonical form (coefficients taken mod p, zeros dropped) when some
coefficient lies outside 1..p-1, and once before its first reduction step.
The input columns are never changed.  The stored columns are reduced but
not scaled to 1, so a reduction step subtracts f = col[top] * stored[top]^-1
times the stored column, each inverse taken at most once per call.  The
tests cross-check it against an independent dense elimination.
"""

from __future__ import annotations


def pivots(columns, p: int, stored: dict | None = None) -> list:
    """Indices of the columns not in the span of the columns before them.

    Each independent column is stored, reduced but not scaled, under its
    largest key once reduced: its low.  Pass a dict as stored to read the
    lows back as its keys; a column stored unchanged is the input column
    itself, so the caller must not change it while stored is in use."""
    if stored is None:
        stored = {}
    inverses = {}  # low -> inverse of the stored column's coefficient there
    out = []
    for index, column in enumerate(columns):
        values = column.values()
        if values and 0 < min(values) and max(values) < p:
            col = column
        else:
            col = {key: c % p for key, c in column.items() if c % p}
        while col:
            top = max(col)
            reducer = stored.get(top)
            if reducer is None:
                stored[top] = col
                out.append(index)
                break
            if col is column:
                col = dict(column)
            inv = inverses.get(top)
            if inv is None:
                inv = inverses[top] = pow(reducer[top], -1, p)
            f = col[top] * inv % p
            for key, c in reducer.items():
                c = (col.get(key, 0) - f * c) % p
                if c:
                    col[key] = c
                else:
                    del col[key]
    return out
