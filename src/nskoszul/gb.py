"""Schreyer syzygies and minimal generators for submodules of twisted free
modules over the weighted ring, kept packed from one resolution level to
the next.

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
also has m_k short, one AND of the two short masks.  A pair's degree is
the sum of the fieldwise max of the two leads' weighted exponents, kept
once per basis element.  Which pairs are dropped, the pair order
(degree, i, j), and the order of every reduction fix the syzygy set, and
through it the basis that the selection keeps.

The selection of minimal generators (``_select``) runs on the same packed
terms.  The syzygies are sorted by (degree, least packed term), which is
(degree, component and reversed exponents of the lead), and each is kept
iff it lies outside the graded span of those kept before it: one sparse
column reduction (``modp.pivots``) per degree d, whose columns are every
kept element of degree d_w times every monomial of degree d - d_w (its
packed terms plus the packed monomial), then the candidates of degree d.
The candidates kept are the column rank profile among them, and whether a
column lies in the span of the columns before it does not depend on how
the keys of the reduction are ordered; so packed ints as keys keep the
same elements as (component, monomial) labels.  A span column is checked
for a carry into a guard bit like every product of the engine.

A level packs its inputs once, in the same pass that takes their degrees
and rejects inhomogeneous ones (``_pack``); its syzygies are selected
packed, and only the kept ones are unpacked, once each, for the
differential.  They go into the next level's engine as they are, packed,
with their degrees as its source twists.  The first fields are sized from
the largest input exponent, with one value bit to spare.  A carry, in the
engine or in a span column, means the fields are too narrow: the level
starts over with fields twice as wide, its inputs repacked, and the levels
after it keep the wider fields, so no exponent ever wraps into its
neighbour.
"""

from __future__ import annotations

import heapq
from itertools import groupby
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


def monomial_elements(spec: RingSpec, mons):
    """Wrap plain monomials (or (component, monomial) pairs) as FreeElements.

    The ambient module is the untwisted free module whose rank is one more
    than the largest component named, rank 1 for plain monomials.
    """
    labels = [spec.label(m) for m in mons]
    ambient = FreeModuleSpec((0,) * (1 + max((c for c, _ in labels), default=0)))
    return [FreeElement(spec, ambient, {label: 1}) for label in labels]


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


def _first_layout(elements) -> _Layout:
    """Fields with room for twice the largest exponent of the elements."""
    top = max(max(m) for v in elements for _, m in v.coeffs)
    return _Layout(elements[0].spec.num_vars, top.bit_length() + 2)


def _wider(layout: _Layout) -> _Layout:
    return _Layout(len(layout.shifts), 2 * layout.width - 1)


def _pack(elements, layout: _Layout) -> list:
    """Each element as (terms, degree): its packed (term, coefficient) pairs,
    the lead first, and its weighted degree.  Raises InhomogeneousInput on
    an element whose terms differ in degree."""
    spec, ambient = elements[0].spec, elements[0].ambient
    weights, twists = spec.weights, ambient.twists
    out = []
    for idx, v in enumerate(elements):
        if v.spec != spec or v.ambient != ambient:
            raise ValueError("generators live in different modules")
        terms, degs = [], set()
        for (c, m), coeff in v.coeffs.items():
            degs.add(sum(map(mul, m, weights)) + twists[c])
            terms.append((layout.pack(c, m), coeff))
        if len(degs) > 1:
            raise InhomogeneousInput(idx, degs)
        terms.sort()                             # the lead first
        out.append((terms, degs.pop()))
    return out


# ---------------------------------------------------------------------------
# Buchberger's algorithm, carrying representations


class _Engine:
    """Buchberger's algorithm on packed inputs, collecting syzygies.

    inputs lists (terms, degree) per generator of the submodule of the free
    module with the given twists, terms its packed (term, coefficient) pairs
    with the lead first.  Basis element k is monic, with packed lead
    leads[k], its other terms tails[k] as (term, coefficient) pairs and its
    expression in the inputs reps[k], a dict from packed source term to
    coefficient.  The source twists are the input degrees.  run() collects
    the syzygies as (rep, degree) pairs."""

    def __init__(self, spec: RingSpec, twists: tuple, inputs, layout: _Layout):
        self.layout = layout
        self.p = spec.char
        self.weights = spec.weights
        self.twists = twists
        self.source = FreeModuleSpec(tuple(d for _, d in inputs))
        self.leads = []
        self.tails = []
        self.reps = []
        self.wexps = []          # the weighted exponents of leads[k]
        self.by_comp = {}        # component -> [(k, leads[k])], k ascending
        self.syzygies = []       # (rep, degree) pairs
        self.pairs = []          # heap of (degree, i, j, packed lcm)
        shift = layout.shift
        for j, (terms, _) in enumerate(inputs):
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
        comp, exps = self.layout.unpack(lead)
        wexp = tuple(map(mul, exps, self.weights))
        self.wexps.append(wexp)
        same = self.by_comp.setdefault(comp, [])
        twist = self.twists[comp]
        lcm, wexps = self.layout.lcm, self.wexps
        for i, mi in same:
            deg = sum(map(max, wexps[i], wexp)) + twist
            heapq.heappush(self.pairs, (deg, i, k, lcm(mi, lead)))
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


def _sort_key(element):
    """(degree, lead) of a (rep, degree) pair: the lead of a homogeneous rep
    is its least packed term."""
    rep, deg = element
    return deg, min(rep)


# ---------------------------------------------------------------------------
# minimal generators


def _select(spec: RingSpec, layout: _Layout, elements) -> list:
    """Indices of the elements that a minimal generating set keeps.

    elements lists (rep, degree) pairs, rep a dict from packed term to
    coefficient, sorted by (degree, least packed term).  An element is kept
    iff it lies outside the graded span of those kept before it, multiples
    included: one sparse column reduction per degree.  By graded Nakayama
    the kept elements generate what all of them generate, minimally.
    Raises _Overflow when a span column carries into a guard bit.
    """
    guard = layout.guard
    shifts = {}      # degree e -> the packed monomials of weighted degree e
    kept = []
    for d, group in groupby(range(len(elements)), key=lambda k: elements[k][1]):
        columns = []
        for k in kept:
            rep, dk = elements[k]
            qs = shifts.get(d - dk)
            if qs is None:
                qs = [layout.pack(0, m) for m in monomials_of_wdeg(spec, d - dk)]
                shifts[d - dk] = qs
            for q in qs:
                column = {t + q: c for t, c in rep.items()}
                if any(t & guard for t in column):
                    raise _Overflow
                columns.append(column)
        group = list(group)
        base = len(columns)
        independent = modp.pivots(columns + [elements[k][0] for k in group], spec.char)
        kept.extend(group[i - base] for i in independent if i >= base)
    return kept


def minimal_generators(elements):
    """Prune a homogeneous generating set to a minimal one.

    Candidates are processed in ascending degree, then by lead term; each is
    kept iff it falls outside the graded span of everything kept so far
    (multiples included), decided on packed terms by ``_select``.  Returns
    the kept elements themselves, in that order.  By graded Nakayama the
    survivors are a minimal generating set.
    """
    elements = [v for v in elements if v]
    if not elements:
        return []
    layout = _first_layout(elements)
    while True:
        try:
            packed = [(dict(terms), d) for terms, d in _pack(elements, layout)]
            order = sorted(range(len(packed)), key=lambda k: _sort_key(packed[k]))
            kept = _select(elements[0].spec, layout, [packed[k] for k in order])
            return [elements[order[k]] for k in kept]
        except _Overflow:
            layout = _wider(layout)


def minimal_syzygies(gens):
    """The minimal free resolution of the submodule gens generate, level by
    level.

    gens must be a minimal generating set (``minimal_generators``).  Yields
    (source, columns) per level, the first for gens: source is the free
    module on the level's generators, its twists their degrees, and columns
    the minimal generators of their syzygy module, each a dict from
    (component, exponents) to coefficient, the component an index into the
    level's generators.  The columns are the next level's generators; the
    last level yielded has no columns.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    spec, twists = gens[0].spec, gens[0].ambient.twists
    layout = _first_layout(gens)
    inputs = _pack(gens, layout)
    while True:
        while True:
            try:
                eng = _Engine(spec, twists, inputs, layout)
                eng.run()
                syz = sorted(eng.syzygies, key=_sort_key)
                kept = [syz[k] for k in _select(spec, layout, syz)]
                break
            except _Overflow:
                wider = _wider(layout)
                inputs = [
                    ([(wider.pack(*layout.unpack(t)), c) for t, c in terms], d)
                    for terms, d in inputs
                ]
                layout = wider
        unpack = layout.unpack
        yield eng.source, [{unpack(t): c for t, c in rep.items()} for rep, _ in kept]
        if not kept:
            return
        twists = eng.source.twists
        inputs = [(sorted(rep.items()), d) for rep, d in kept]
