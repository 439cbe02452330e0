"""Schreyer syzygies and minimal generators for submodules of twisted free
modules over the weighted ring.

The module order is position-over-term on top of weighted degrevlex.  The
engine works on homogeneous inputs only; every module this package touches is
graded, so inhomogeneous input is treated as an upstream bug.

Syzygies are computed with the classical variant of Buchberger's algorithm
that carries representations: every working element carries its expression
in terms of the original generators, and each S-pair that reduces to zero
contributes that expression as a syzygy.  Since the inputs stay members of
the working basis and only the chain criterion (in its safe proper-divisor
form) is used to discard pairs, the collected syzygies generate the full
syzygy module.  The working basis ends as a Groebner basis of the module,
not a reduced one; only the syzygies leave the engine.

Reduction pops the largest remaining term from a heap and reduces it by the
lowest-index reducer whose lead divides it.  The chain criterion decides
divisibility of the pair lcm and properness of both sub-lcms in one pass
over each third lead's exponents.  Which pairs are dropped and the order of
every reduction fix the syzygy set, and through it the basis that
minimal_generators keeps.
"""

from __future__ import annotations

import heapq
from operator import mul

from . import modp
from .ring import (
    FreeElement,
    FreeModuleSpec,
    Monomial,
    RingSpec,
    mon_divides,
    mon_lcm,
    mon_mul,
    mon_quotient,
    monomials_of_wdeg,
)


class InhomogeneousInput(ValueError):
    """A generator mixes weighted degrees; carries a per-term degree report."""

    def __init__(self, index: int, degrees):
        self.index = index
        self.degrees = sorted(degrees)
        super().__init__(
            f"generator {index} is not homogeneous: term degrees {self.degrees}"
        )


def monomial_elements(spec: RingSpec, mons, ambient: FreeModuleSpec | None = None):
    """Wrap plain monomials (or (component, monomial) pairs) as FreeElements."""
    ambient = ambient or FreeModuleSpec((0,))
    return [FreeElement(spec, ambient, {spec.label(m): 1}) for m in mons]


def element_sort_key(v: FreeElement, deg: int):
    """Ascending key of a homogeneous element of degree deg: the degree, then
    the component and reversed exponents of its lead term.

    The lead lies in the lowest component, where every term has the weighted
    degree deg minus that component's twist, so it is the term whose reversed
    exponent vector is smallest there (weighted degrevlex)."""
    return (deg, *min((c, m[::-1]) for c, m in v.coeffs))


def _degrees(elements) -> list:
    """The weighted degree of each element; raises InhomogeneousInput on one
    whose terms differ in degree."""
    out = []
    for idx, g in enumerate(elements):
        degs = {g.spec.wdeg(m) + g.ambient.twists[c] for c, m in g.coeffs}
        if len(degs) > 1:
            raise InhomogeneousInput(idx, degs)
        out.append(degs.pop())
    return out


# ---------------------------------------------------------------------------
# reduction


def _reduce(v: FreeElement, basis, leads, reps, rep):
    """Fully reduce v by the monic reducers basis, whose leads are given.

    Returns (remainder, rep): every multiple of basis[k] subtracted from v is
    subtracted from rep as the same multiple of reps[k].  Deterministic: the
    largest reducible term is reduced first, by the lowest-index reducer whose
    lead divides it.  The terms wait in a heap keyed (component, -weighted
    degree, reversed exponents), whose least entry is the largest term in the
    module order; an entry whose term has cancelled is skipped.
    """
    spec = v.spec
    p = spec.char
    weights = spec.weights
    work = dict(v.coeffs)
    heap = [(comp, -sum(map(mul, m, weights)), m[::-1], m) for comp, m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        comp, _, _, mon = heapq.heappop(heap)
        key = (comp, mon)
        c = work.pop(key, 0)
        if not c:
            continue
        hit = -1
        for idx, (lc, lm, _) in enumerate(leads):
            if lc == comp and mon_divides(lm, mon):
                hit = idx
                break
        if hit < 0:
            remainder[key] = c
            continue
        lm = leads[hit][1]
        q = mon_quotient(mon, lm)
        for (c2, m2), co in basis[hit].coeffs.items():
            if c2 == comp and m2 == lm:
                continue
            m3 = mon_mul(m2, q)
            tkey = (c2, m3)
            old = work.get(tkey)
            nv = ((old or 0) - c * co) % p
            if not nv:
                work.pop(tkey, None)
                continue
            if old is None:
                heapq.heappush(heap, (c2, -sum(map(mul, m3, weights)), m3[::-1], m3))
            work[tkey] = nv
        rep = rep - reps[hit].term_mul(q, c)
    return FreeElement(spec, v.ambient, remainder, _clean=True), rep


# ---------------------------------------------------------------------------
# Buchberger's algorithm, carrying representations


class _Engine:
    """Buchberger's algorithm on the inputs, collecting syzygies."""

    def __init__(self, gens):
        gens = [g for g in gens if g]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        degrees = _degrees(gens)
        self.spec = gens[0].spec
        self.ambient = gens[0].ambient
        for g in gens:
            if g.spec != self.spec or g.ambient != self.ambient:
                raise ValueError("generators live in different modules")
        self.p = self.spec.char
        self.source = FreeModuleSpec(tuple(degrees))
        self.basis = []          # monic working elements
        self.leads = []          # cached (comp, mon, 1) lead terms
        self.reps = []           # expressions in terms of the inputs
        self.syzygies = []       # (syzygy, degree) pairs
        self.pairs = []          # heap of (degree, i, j)
        for j, g in enumerate(gens):
            self._insert(g, FreeElement(self.spec, self.source, {(j, self.spec.one()): 1}))

    def _insert(self, g: FreeElement, rep):
        comp, mon, coeff = g.lead()
        if coeff != 1:
            inv = pow(coeff, -1, self.p)
            g = g.scale(inv)
            rep = rep.scale(inv)
        k = len(self.basis)
        self.basis.append(g)
        self.leads.append((comp, mon, 1))
        self.reps.append(rep)
        twist = self.ambient.twists[comp]
        for i in range(k):
            ci, mi, _ = self.leads[i]
            if ci == comp:
                lcm = mon_lcm(mi, mon)
                deg = self.spec.wdeg(lcm) + twist
                heapq.heappush(self.pairs, (deg, i, k))

    def _chain_skip(self, i: int, j: int, lcm: Monomial, comp: int) -> bool:
        # Safe chain criterion: drop (i, j) only when some third lead divides
        # the pair lcm and both sub-lcms are proper divisors, so the induction
        # on lcm degree stands regardless of processing order.  lcm(mi, mk) is
        # proper iff some exponent of both mi and mk falls short of the lcm's.
        mi = self.leads[i][1]
        mj = self.leads[j][1]
        for k, (ck, mk, _) in enumerate(self.leads):
            if ck != comp or k == i or k == j:
                continue
            short_i = short_j = False
            for a, b, c, top in zip(mk, mi, mj, lcm):
                if a > top:
                    break
                if a < top:
                    short_i = short_i or b < top
                    short_j = short_j or c < top
            else:
                if short_i and short_j:
                    return True
        return False

    def run(self):
        while self.pairs:
            deg, i, j = heapq.heappop(self.pairs)
            ci, mi, _ = self.leads[i]
            _, mj, _ = self.leads[j]
            lcm = mon_lcm(mi, mj)
            if self._chain_skip(i, j, lcm, ci):
                continue
            qi = mon_quotient(lcm, mi)
            qj = mon_quotient(lcm, mj)
            spoly = self.basis[i].term_mul(qi) - self.basis[j].term_mul(qj)
            rep = self.reps[i].term_mul(qi) - self.reps[j].term_mul(qj)
            r, rep = _reduce(spoly, self.basis, self.leads, self.reps, rep)
            if r:
                self._insert(r, rep)
            elif rep:
                # rep has the degree of the pair's lcm in the source module
                self.syzygies.append((rep, deg))


# ---------------------------------------------------------------------------
# public operations


def syzygies(gens):
    """Generators of the syzygy module of gens, with Schreyer twists.

    Returns (elements, source) where source is the free module on the inputs
    (generator degrees = degrees of the inputs) and the elements generate the
    kernel of source -> ambient.
    """
    eng = _Engine(list(gens))
    eng.run()
    eng.syzygies.sort(key=lambda sd: element_sort_key(*sd))
    return [s for s, _ in eng.syzygies], eng.source


# ---------------------------------------------------------------------------
# minimal generators


def minimal_generators(elements):
    """Prune a homogeneous generating set to a minimal one.

    Candidates are processed in ascending degree; each is kept iff it falls
    outside the graded span of everything kept so far (multiples included),
    decided by one sparse column reduction per degree over the coefficient
    field, the columns keyed by (component, monomial) label.  By graded
    Nakayama the survivors are a minimal generating set.
    """
    elements = [v for v in elements if v]
    if not elements:
        return []
    degrees = _degrees(elements)
    spec = elements[0].spec
    by_degree = {}
    for v, d in sorted(zip(elements, degrees), key=lambda vd: element_sort_key(*vd)):
        by_degree.setdefault(d, []).append(v)
    # (degree, element) pairs, already in element_sort_key order
    accepted = []
    for d, candidates in sorted(by_degree.items()):
        columns = [
            w.term_mul(m).coeffs
            for dw, w in accepted
            for m in monomials_of_wdeg(spec, d - dw)
        ]
        kept = set(modp.pivots(columns + [v.coeffs for v in candidates], spec.char))
        accepted.extend((d, v) for k, v in enumerate(candidates, len(columns)) if k in kept)
    return [v for _, v in accepted]
