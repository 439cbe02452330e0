"""Buchberger Groebner bases and Schreyer syzygies for submodules of twisted
free modules over the weighted ring.

The module order is position-over-term on top of weighted degrevlex.  The
engine works on homogeneous inputs only; every module this package touches is
graded, so inhomogeneous input is treated as an upstream bug.

Syzygies are computed with the classical representation-tracking variant of
Buchberger's algorithm: every working element carries its expression in terms
of the original generators, and each S-pair that reduces to zero contributes
that expression as a syzygy.  Since the inputs stay members of the working
basis and only the chain criterion (in its safe proper-divisor form) is used
to discard pairs, the collected syzygies generate the full syzygy module.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    term_key,
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


def element_sort_key(v: FreeElement):
    comp, mon, _ = v.lead()
    return (v.homogeneous_degree(), comp, tuple(reversed(mon)))


def _check_homogeneous(gens):
    for idx, g in enumerate(gens):
        degs = {g.spec.wdeg(m) + g.ambient.twists[c] for c, m in g.coeffs}
        if len(degs) > 1:
            raise InhomogeneousInput(idx, degs)


# ---------------------------------------------------------------------------
# reduction


def _reduce(v: FreeElement, basis, leads, reps=None, rep=None):
    """Fully reduce v by the monic reducers basis, whose leads are given.

    Returns (remainder, rep).  When rep is given, every multiple of basis[k]
    subtracted from v is subtracted from rep as the same multiple of reps[k].
    """
    spec = v.spec
    p = spec.char
    work = dict(v.coeffs)
    remainder = {}
    while work:
        key = max(work, key=lambda k: term_key(spec, k[0], k[1]))
        c = work.pop(key)
        comp, mon = key
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
            tkey = (c2, mon_mul(m2, q))
            nv = (work.get(tkey, 0) - c * co) % p
            if nv:
                work[tkey] = nv
            else:
                work.pop(tkey, None)
        if rep is not None:
            rep = rep - reps[hit].term_mul(q, c)
    return FreeElement(spec, v.ambient, remainder, _clean=True), rep


def normal_form(v: FreeElement, reducers) -> FreeElement:
    """Fully reduce v modulo the given elements.

    Deterministic: always reduces the largest reducible term, using the
    lowest-index reducer whose lead term divides it.
    """
    reducers = [g for g in reducers if g]
    if not reducers or not v:
        return v
    # Reducing by g or by g / lc(g) subtracts the same multiple.
    monic, leads = [], []
    for g in reducers:
        comp, mon, coeff = g.lead()
        if coeff != 1:
            g = g.scale(pow(coeff, -1, v.spec.char))
        monic.append(g)
        leads.append((comp, mon, 1))
    return _reduce(v, monic, leads)[0]


# ---------------------------------------------------------------------------
# Buchberger with representation tracking


class _Engine:
    """Working state shared by GB completion and syzygy extraction."""

    def __init__(self, gens, track: bool):
        gens = [g for g in gens if g]
        if not gens:
            raise ValueError("need at least one nonzero generator")
        _check_homogeneous(gens)
        self.spec = gens[0].spec
        self.ambient = gens[0].ambient
        for g in gens:
            if g.spec != self.spec or g.ambient != self.ambient:
                raise ValueError("generators live in different modules")
        self.p = self.spec.char
        self.track = track
        self.source = FreeModuleSpec(tuple(g.homogeneous_degree() for g in gens))
        self.basis = []          # monic working elements
        self.leads = []          # cached (comp, mon, 1) lead terms
        self.reps = []           # expressions in terms of the inputs
        self.syzygies = []
        self.pairs = []          # heap of (degree, i, j)
        for j, g in enumerate(gens):
            rep = None
            if track:
                rep = FreeElement(self.spec, self.source, {(j, self.spec.one()): 1})
            self._insert(g, rep)

    def _insert(self, g: FreeElement, rep):
        comp, mon, coeff = g.lead()
        if coeff != 1:
            inv = pow(coeff, -1, self.p)
            g = g.scale(inv)
            if rep is not None:
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
        # on lcm degree stands regardless of processing order.
        mi = self.leads[i][1]
        mj = self.leads[j][1]
        for k, (ck, mk, _) in enumerate(self.leads):
            if k == i or k == j or ck != comp:
                continue
            if mon_divides(mk, lcm):
                if mon_lcm(mi, mk) != lcm and mon_lcm(mk, mj) != lcm:
                    return True
        return False

    def run(self):
        while self.pairs:
            _, i, j = heapq.heappop(self.pairs)
            ci, mi, _ = self.leads[i]
            _, mj, _ = self.leads[j]
            lcm = mon_lcm(mi, mj)
            if self._chain_skip(i, j, lcm, ci):
                continue
            qi = mon_quotient(lcm, mi)
            qj = mon_quotient(lcm, mj)
            spoly = self.basis[i].term_mul(qi) - self.basis[j].term_mul(qj)
            rep = None
            if self.track:
                rep = self.reps[i].term_mul(qi) - self.reps[j].term_mul(qj)
            r, rep = _reduce(spoly, self.basis, self.leads, self.reps, rep)
            if r:
                self._insert(r, rep)
            elif self.track and rep:
                self.syzygies.append(rep)


# ---------------------------------------------------------------------------
# public operations


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    ambient: FreeModuleSpec
    spec: RingSpec
    order: str = "POT/weighted-degrevlex"


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the module generated by gens.

    For monomial input this is exactly the minimal monomial generating set.
    """
    eng = _Engine(list(gens), track=False)
    eng.run()
    basis = _interreduce(eng.basis)
    basis.sort(key=element_sort_key)
    return GroebnerBasis(tuple(basis), eng.ambient, eng.spec)


def _interreduce(elements):
    # Keep only elements whose lead is not divisible by another kept lead,
    # then tail-reduce each against the rest.
    elems = sorted(elements, key=lambda g: term_key(g.spec, *g.lead()[:2]))
    kept = []
    for g in elems:
        comp, mon, _ = g.lead()
        if any(kc == comp and mon_divides(km, mon) for kc, km, _ in (k.lead() for k in kept)):
            continue
        kept.append(g)
    out = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        r = normal_form(g, others)
        _, _, c = r.lead()
        if c != 1:
            r = r.scale(pow(c, -1, g.spec.char))
        out.append(r)
    return out


def syzygies(gens):
    """Generators of the syzygy module of gens, with Schreyer twists.

    Returns (elements, source) where source is the free module on the inputs
    (generator degrees = degrees of the inputs) and the elements generate the
    kernel of source -> ambient.
    """
    eng = _Engine(list(gens), track=True)
    eng.run()
    out = [s for s in eng.syzygies if s]
    out.sort(key=element_sort_key)
    return out, eng.source


def schreyer_syzygies(G: GroebnerBasis):
    """Spec'd entry point: syzygies of a reduced Groebner basis."""
    return syzygies(G.generators)


# ---------------------------------------------------------------------------
# graded pieces and minimal generators


@lru_cache(maxsize=None)
def graded_basis(spec: RingSpec, ambient: FreeModuleSpec, degree: int):
    """(component, monomial) basis of the degree-d piece of the free module."""
    out = []
    for comp, t in enumerate(ambient.twists):
        for m in monomials_of_wdeg(spec, degree - t):
            out.append((comp, m))
    return tuple(out)


def _expand(v: FreeElement, index: dict) -> np.ndarray:
    vec = np.zeros(len(index), dtype=np.int64)
    for key, c in v.coeffs.items():
        vec[index[key]] = c
    return vec


class _EchelonSpace:
    """Incrementally maintained row space over F_p."""

    def __init__(self, dim: int, p: int):
        self.p = p
        self.dim = dim
        self.rows = []
        self.pivots = []

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        p = self.p
        for row, piv in zip(self.rows, self.pivots):
            f = int(vec[piv])
            if f:
                vec = (vec - f * row) % p
        return vec

    def insert(self, vec: np.ndarray) -> bool:
        """Reduce vec and absorb it; True when it enlarged the space."""
        vec = self.reduce(vec % self.p)
        nz = np.nonzero(vec)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(vec[piv]), -1, self.p)
        self.rows.append(vec * inv % self.p)
        self.pivots.append(piv)
        return True


def minimal_generators(elements):
    """Prune a homogeneous generating set to a minimal one.

    Candidates are processed in ascending degree; each is kept iff it falls
    outside the graded span of everything kept so far (multiples included),
    decided by exact linear algebra over the coefficient field.  By graded
    Nakayama the survivors are a minimal generating set.
    """
    elements = [v for v in elements if v]
    if not elements:
        return []
    _check_homogeneous(elements)
    spec = elements[0].spec
    ambient = elements[0].ambient
    p = spec.char
    elements = sorted(elements, key=element_sort_key)
    degrees = sorted({v.homogeneous_degree() for v in elements})
    by_degree = {}
    for v in elements:
        by_degree.setdefault(v.homogeneous_degree(), []).append(v)
    accepted = []
    for d in degrees:
        basis = graded_basis(spec, ambient, d)
        index = {key: i for i, key in enumerate(basis)}
        space = _EchelonSpace(len(basis), p)
        for w in accepted:
            dw = w.homogeneous_degree()
            for m in monomials_of_wdeg(spec, d - dw):
                space.insert(_expand(w.term_mul(m), index))
        for v in by_degree[d]:
            if space.insert(_expand(v, index)):
                accepted.append(v)
    return sorted(accepted, key=element_sort_key)


def graded_span_dims(elements, degrees):
    """Dimension of the graded span of the elements in each listed degree.

    Used as an oracle: the syzygy candidates generate the kernel iff their
    span matches the brute-force kernel dimension degree by degree.
    """
    elements = [v for v in elements if v]
    if not elements:
        return {d: 0 for d in degrees}
    spec = elements[0].spec
    ambient = elements[0].ambient
    out = {}
    for d in degrees:
        basis = graded_basis(spec, ambient, d)
        index = {key: i for i, key in enumerate(basis)}
        space = _EchelonSpace(len(basis), spec.char)
        for w in elements:
            dw = w.homogeneous_degree()
            if dw > d:
                continue
            for m in monomials_of_wdeg(spec, d - dw):
                space.insert(_expand(w.term_mul(m), index))
        out[d] = len(space.rows)
    return out
