"""Sparse column reduction over prime fields.

One elimination serves every rank the package takes: the lin grid walk's
slice blocks, the graded spans of ``gb.minimal_generators`` and the Koszul
strands.  A column is a dict from a key to a coefficient; any totally
ordered keys work (row indices, or (component, monomial) labels).
Coefficients are taken mod p and zeros dropped on entry.  Each column is
reduced by the stored column with the same largest key until its largest key
is new, and what is left is stored under that key; the column is
independent of the earlier ones exactly when something is left.  So the
independent columns are the column rank profile, and the rank of every
column prefix is a count of them.  The key an independent column is stored
under, its largest once reduced, is its low; a caller that passes a dict
reads the lows back as its keys, which is how the lin walk clears the
columns of the next differential down.  The tests cross-check it against
an independent dense elimination.
"""

from __future__ import annotations


def pivots(columns, p: int, stored: dict | None = None) -> list:
    """Indices of the columns not in the span of the columns before them.

    Each independent column is stored, reduced and scaled to 1, under its
    largest key once reduced: its low.  Pass a dict as stored to read the
    lows back as its keys."""
    if stored is None:
        stored = {}
    out = []
    for index, column in enumerate(columns):
        col = {key: c % p for key, c in column.items() if c % p}
        while col:
            top = max(col)
            reducer = stored.get(top)
            if reducer is None:
                inv = pow(col[top], -1, p)
                stored[top] = {key: c * inv % p for key, c in col.items()}
                out.append(index)
                break
            f = col[top]
            for key, c in reducer.items():
                c = (col.get(key, 0) - f * c) % p
                if c:
                    col[key] = c
                else:
                    del col[key]
    return out
