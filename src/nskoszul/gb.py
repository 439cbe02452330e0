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

Inside the engine a module term (component, exponents) is one Python int
(``_Layout``).  Each exponent has a field of fixed width: value bits with a
guard bit above them.  x_0 sits in the least significant field, x_{n-1} in
the most significant one, and the component above all fields.  A term of
the source module (input index, exponents) is packed the same way.  So:

- multiplying a term by a monomial adds the two ints;
- l divides t (same component) iff ``((t | G) - l) & G == G``, with G the
  guard bits: the subtraction borrows a field's guard bit exactly where
  l's exponent exceeds t's, and no borrow crosses a field;
- the lcm of two terms is a fieldwise max, taken through the mask of the
  fields where the guard bit of the same subtraction survives;
- with y = (lcm | G) - m for a divisor m of the lcm, the guard bits of
  ``y - ONES`` (ONES has a 1 at the bottom of each field) mark the fields
  where m falls short of the lcm.

The inputs are packed once, in the same pass that takes their degrees and
rejects inhomogeneous ones, and only the returned syzygies are unpacked.
The fields are sized from the largest input exponent, with one value bit
to spare.  Every product is checked for a carry into a guard bit; a carry
means the fields are too narrow, and the run starts over with fields twice
as wide, so no exponent ever wraps into its neighbour.

Reduction pops the largest remaining term from a heap of the packed terms.
Every term of one component of a homogeneous element has the same weighted
degree, so the position-over-term order on it is the component, then the
reversed exponents compared lexicographically, which is exactly the order
of the ints: ascending ints pop the terms from the largest down, in the
order of the key (component, -weighted degree, reversed exponents) that the
reference engine on tuple terms in the tests uses.  The reducers of each
component are listed in index order and the first whose lead divides the
term is taken: the lowest-index reducer, the one the reference finds by
scanning every lead.  The chain
criterion drops (i, j) when some third lead k of the same component
divides the pair lcm and lcm(m_i, m_k) and lcm(m_k, m_j) both differ from
it; lcm(m_i, m_k) differs from the lcm iff some field where m_i falls short
also has m_k short, one AND of the two short masks.  Which pairs are
dropped, the pair order (degree, i, j), and the order of every reduction
fix the syzygy set, and through it the basis that minimal_generators keeps.
"""

from __future__ import annotations

import heapq
from operator import mul

from . import modp
from .ring import FreeElement, FreeModuleSpec, RingSpec, monomials_of_wdeg


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
# packed terms


class _Overflow(Exception):
    """A packed product carried into a guard bit: the fields are too narrow."""


class _Layout:
    """The packing of module terms for n variables in fields of width bits,
    the top bit of each field its guard bit."""

    def __init__(self, n: int, width: int):
        self.width = width
        self.shifts = tuple(range(0, n * width, width))
        self.shift = n * width                   # the component's place
        self.field = (1 << (width - 1)) - 1      # the value bits of a field
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.ones = sum(1 << s for s in self.shifts)

    def pack(self, comp: int, m) -> int:
        t = comp
        for e in reversed(m):
            if not 0 <= e <= self.field:
                if e < 0:
                    raise ValueError(f"negative exponent in {m}")
                raise _Overflow
            t = t << self.width | e
        return t

    def unpack(self, t: int):
        field = self.field
        return t >> self.shift, tuple(t >> s & field for s in self.shifts)

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed terms of one component: fieldwise max."""
        guard = self.guard
        ge = ((a | guard) - b) & guard           # guard bits where a >= b
        mask = ge - (ge >> (self.width - 1))     # the value bits of those fields
        return b ^ ((a ^ b) & mask)


# ---------------------------------------------------------------------------
# Buchberger's algorithm, carrying representations


class _Engine:
    """Buchberger's algorithm on the packed inputs, collecting syzygies.

    Basis element k is monic, with packed lead leads[k], its other terms
    tails[k] as (term, coefficient) pairs and its expression in the inputs
    reps[k], a dict from packed source term to coefficient."""

    def __init__(self, gens, width: int):
        spec = gens[0].spec
        ambient = gens[0].ambient
        self.layout = layout = _Layout(spec.num_vars, width)
        self.p = spec.char
        self.weights = spec.weights
        self.twists = ambient.twists
        packed, degrees = [], []
        for idx, g in enumerate(gens):
            weights, twists = g.spec.weights, g.ambient.twists
            terms, degs = [], set()
            for (c, m), coeff in g.coeffs.items():
                degs.add(sum(map(mul, m, weights)) + twists[c])
                terms.append((layout.pack(c, m), coeff))
            if len(degs) > 1:
                raise InhomogeneousInput(idx, degs)
            terms.sort()                         # the lead first
            packed.append(terms)
            degrees.append(degs.pop())
        for g in gens:
            if g.spec != spec or g.ambient != ambient:
                raise ValueError("generators live in different modules")
        self.source = FreeModuleSpec(tuple(degrees))
        self.leads = []
        self.tails = []
        self.reps = []
        self.by_comp = {}        # component -> [(k, leads[k])], k ascending
        self.syzygies = []       # (rep, degree) pairs
        self.pairs = []          # heap of (degree, i, j, packed lcm)
        shift = layout.shift
        for j, terms in enumerate(packed):
            self._insert(terms, {j << shift: 1})

    def _insert(self, terms, rep):
        """Add the element with packed terms (lead first) and expression rep,
        scaled to be monic, and queue its pairs."""
        lead, coeff = terms[0]
        tail = terms[1:]
        if coeff != 1:
            p = self.p
            inv = pow(coeff, -1, p)
            tail = [(t, c * inv % p) for t, c in tail]
            rep = {t: c * inv % p for t, c in rep.items()}
        k = len(self.leads)
        self.leads.append(lead)
        self.tails.append(tail)
        self.reps.append(rep)
        layout = self.layout
        comp = lead >> layout.shift
        same = self.by_comp.setdefault(comp, [])
        twist = self.twists[comp]
        for i, mi in same:
            lcm = layout.lcm(mi, lead)
            deg = sum(map(mul, layout.unpack(lcm)[1], self.weights)) + twist
            heapq.heappush(self.pairs, (deg, i, k, lcm))
        same.append((k, lead))

    def _chain_skip(self, i: int, j: int, lcm: int) -> bool:
        # Safe chain criterion: drop (i, j) only when some third lead divides
        # the pair lcm and both sub-lcms are proper divisors, so the induction
        # on lcm degree stands regardless of processing order.  lcm(mi, mk)
        # is proper iff some field of both mi and mk falls short of the lcm.
        guard = self.layout.guard
        ones = self.layout.ones
        top = lcm | guard
        short_i = (top - self.leads[i] - ones) & guard
        short_j = (top - self.leads[j] - ones) & guard
        for k, mk in self.by_comp[lcm >> self.layout.shift]:
            y = top - mk
            if y & guard == guard and k != i and k != j:
                short_k = (y - ones) & guard
                if short_k & short_i and short_k & short_j:
                    return True
        return False

    def _reduce(self, work: dict, rep: dict):
        """Fully reduce the homogeneous element work (packed term -> coeff)
        by the basis; returns its remainder as (term, coefficient) pairs from
        the lead down, and rep with every multiple of reps[k] subtracted that
        was subtracted from work as the same multiple of basis element k.

        Deterministic: the largest remaining term is reduced first, by the
        lowest-index reducer whose lead divides it.  An entry of the heap
        whose term has cancelled is skipped.
        """
        p = self.p
        guard = self.layout.guard
        shift = self.layout.shift
        by_comp, tails, reps = self.by_comp, self.tails, self.reps
        heap = list(work)
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        remainder = []
        while heap:
            t = pop(heap)
            c = work.pop(t, 0)
            if not c:
                continue
            top = t | guard
            for k, lead in by_comp.get(t >> shift, ()):
                if (top - lead) & guard == guard:
                    break
            else:
                remainder.append((t, c))
                continue
            q = t - lead
            for t2, co in tails[k]:
                t2 += q
                if t2 & guard:
                    raise _Overflow
                old = work.get(t2)
                nv = ((old or 0) - c * co) % p
                if not nv:
                    del work[t2]
                    continue
                if old is None:
                    push(heap, t2)
                work[t2] = nv
            for t2, co in reps[k].items():
                t2 += q
                if t2 & guard:
                    raise _Overflow
                nv = (rep.get(t2, 0) - c * co) % p
                if nv:
                    rep[t2] = nv
                else:
                    del rep[t2]
        return remainder, rep

    def _times(self, terms, q: int) -> dict:
        """The (term, coefficient) pairs terms multiplied by the packed
        monomial q, as a dict in the same order."""
        guard = self.layout.guard
        out = {}
        for t, c in terms:
            t += q
            if t & guard:
                raise _Overflow
            out[t] = c
        return out

    def run(self):
        p = self.p
        leads = self.leads
        while self.pairs:
            deg, i, j, lcm = heapq.heappop(self.pairs)
            if self._chain_skip(i, j, lcm):
                continue
            # the S-polynomial without its lead, which cancels
            qi, qj = lcm - leads[i], lcm - leads[j]
            work = self._times(self.tails[i], qi)
            rep = self._times(self.reps[i].items(), qi)
            for acc, terms in ((work, self.tails[j]), (rep, self.reps[j].items())):
                for t, c in self._times(terms, qj).items():
                    c = (acc.get(t, 0) - c) % p
                    if c:
                        acc[t] = c
                    else:
                        del acc[t]
            remainder, rep = self._reduce(work, rep)
            if remainder:
                self._insert(remainder, rep)
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
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    # room for twice the largest input exponent, and the guard bit
    top = max(max(m) for g in gens for _, m in g.coeffs)
    width = top.bit_length() + 2
    while True:
        try:
            eng = _Engine(gens, width)
            eng.run()
            break
        except _Overflow:
            width = 2 * width - 1
    # the lead of a homogeneous rep is its least packed term
    eng.syzygies.sort(key=lambda sd: (sd[1], min(sd[0])))
    spec, source, unpack = gens[0].spec, eng.source, eng.layout.unpack
    out = [
        FreeElement(spec, source, {unpack(t): c for t, c in rep.items()}, _clean=True)
        for rep, _ in eng.syzygies
    ]
    return out, source


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
