"""Minimal monomial generators of truncations and of the filtration layers
M intersect <y^i> used by the layer-by-layer construction.
"""

from __future__ import annotations

from .ring import RingSpec, mon_divides, mon_lcm, monomials_of_wdeg


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
    is the whole ring.
    """
    if e <= 0:
        return [spec.one()]
    out = []
    for d in range(e, e + spec.max_weight):
        for m in monomials_of_wdeg(spec, d):
            if all(d - w < e for exp, w in zip(m, spec.weights) if exp > 0):
                out.append(m)
    return sorted(out, reverse=True)


def trunc_free_gens(spec: RingSpec, twists, e: int) -> list:
    """Generators of the truncation of a twisted free module, tagged by summand.

    Twists are generator degrees: the summand with generator degree t
    contributes the generators of the degree >= (e - t) truncation.
    """
    out = []
    for comp, t in enumerate(twists):
        for m in trunc_gens(spec, e - t):
            out.append((comp, m))
    return out


def filtration_layer(gens, i: int, last_var: int, spec: RingSpec | None = None) -> list:
    """Minimal generators of M intersect <y^i> for the monomial module M.

    Computed as the minimalization of lcm(u, y^i) over the given minimal
    generators; layer 0 is M itself.
    """
    if i < 0:
        raise ValueError(f"layer index must be non-negative, got {i}")
    gens = [tuple(m) for m in gens]
    if not gens:
        return []
    if i == 0:
        return minimalize_monomials(gens)
    n = len(gens[0])
    yi = tuple(i if k == last_var else 0 for k in range(n))
    return minimalize_monomials(mon_lcm(u, yi) for u in gens)
