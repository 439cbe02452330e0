"""Minimal monomial generators of truncations and of the filtration layers
M intersect <y^i> used by the layer-by-layer construction.
"""

from __future__ import annotations

import math

from .ring import RingSpec, as_int, mon_divides, mon_lcm


def minimalize_monomials(mons) -> list:
    """Drop monomials divisible by another; result sorted descending lex."""
    uniq = sorted(set(tuple(m) for m in mons), reverse=True)
    out = []
    for m in uniq:
        if not any(mon_divides(u, m) for u in uniq if u != m):
            out.append(m)
    return out


def trunc_gens(spec: RingSpec, e: int) -> list:
    """The unique minimal monomial generating set of the degree >= e part.

    A monomial generates minimally iff its weighted degree is at least e and
    dividing out any present variable drops below e; for e <= 0 the truncation
    is the whole ring.  Raises ValueError for a non-integral threshold.

    Each generator g is m * x_t for its last present variable x_t and the
    monomial m = g / x_t in x_1..x_t, of degree below e, so the walk visits
    only monomials of degree below e, however large a weight is.
    """
    e = as_int(e, "threshold")
    if e <= 0:
        return [spec.one()]
    weights = spec.weights
    n = len(weights)
    out = []

    def walk(prefix: tuple, d: int, low):
        # prefix: the exponents of m in the first i variables, d its degree
        # (below e), low the least weight of a variable present in it
        i = len(prefix)
        if i == n:
            return
        w = weights[i]
        a = 0
        while d + a * w < e:
            # m has exponent a in variable i, and g = m * x_(i+1) has degree
            # top; dividing g by x_(i+1) gives m, below e by construction
            top = d + a * w + w
            if top >= e and top - low < e:
                out.append(prefix + (a + 1,) + (0,) * (n - i - 1))
            walk(prefix + (a,), d + a * w, min(low, w) if a else low)
            a += 1

    walk((), 0, math.inf)
    return sorted(out, reverse=True)


def filtration_layer(gens, i: int, last_var: int) -> list:
    """Minimal generators of M intersect <y^i> for the monomial module M.

    Computed as the minimalization of lcm(u, y^i) over the given minimal
    generators; layer 0 is M itself.
    """
    i = as_int(i, "layer index")
    if i < 0:
        raise ValueError(f"layer index must be non-negative, got {i}")
    gens = [tuple(m) for m in gens]
    if not gens:
        return []
    n = len(gens[0])
    if not 0 <= last_var < n:
        raise ValueError(f"variable index {last_var} is outside 0..{n - 1}")
    if i == 0:
        return minimalize_monomials(gens)
    yi = tuple(i if k == last_var else 0 for k in range(n))
    return minimalize_monomials(mon_lcm(u, yi) for u in gens)
