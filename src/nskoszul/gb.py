"""Minimal free resolutions of monomial submodules of free modules over the
weighted ring: Schreyer syzygies and minimal generators, kept packed from
one resolution level to the next.

Every module this package resolves is a truncation of the weighted ring, a
monomial module, so the input is monomial elements, one term each; any
other element is refused with NotMonomial.  The module order is
position-over-term on top of weighted degrevlex.

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
  where m falls short of the lcm;
- subtracting from lcm | G the lowest bit of a field where some divisor
  falls short of the lcm, or of two such fields, clears no guard bit: the
  lcm's exponent there is at least 1, so nothing borrows.

Reduction pops the largest remaining term from a heap of the packed terms.
Every term of one component of a homogeneous element has the same weighted
degree, so the position-over-term order on it is the component, then the
reversed exponents compared lexicographically, which is exactly the order
of the ints: ascending ints pop the terms from the largest down, in the
order of the key (component, -weighted degree, reversed exponents) that the
reference engine on tuple terms in the tests uses.  The reducers of each
component are listed in index order and the first whose lead divides the
term is taken: the lowest-index reducer, the one the reference finds by
scanning every lead.

The chain criterion (Buchberger; Gebauer and Moeller, J. Symb. Comput. 6,
1988) drops (i, j) when some third lead m_k of the same component divides
l = lcm(m_i, m_j) while lcm(m_i, m_k) and lcm(m_k, m_j) both differ from
l.  The engine decides it as membership in the ideal of the component's
leads: with S_i the fields where m_i falls short of l, and S_j those where
m_j does, it drops (i, j) iff l - e_f - e_g lies in that ideal for some f
in S_i and g in S_j.  Proof: for a divisor m_k of l, lcm(m_i, m_k) differs
from l iff m_k falls short of l at a field of S_i, and likewise for j; S_i
and S_j are disjoint, since at each field m_i or m_j reaches l; so such an
m_k divides l - e_f - e_g for some f in S_i and g in S_j, and a lead that
divides l - e_f - e_g divides l and falls short at f and at g.  Neither m_i
(which reaches l at g) nor m_j (at f) divides it, so k is a third lead
without a test.  That is at most n^2/4 queries per pair; the answers are
stored per component, and the store is emptied when a lead joins it.

A pair is decided when it is formed: the pairs of the inputs once all of
them are in, those of an element that run() adds as it adds it.  Only the
pairs kept go on the heap, each with the number of leads its component had
then, and a popped pair is decided again only if that number has grown.
The lead ideal only grows, so a dropped pair would be dropped at its pop
too, and every pair reaches the reduction iff the criterion on the leads at
its pop keeps it.  A pair's degree is its component's twist plus the
weighted degree of l, read from a table by l's fields.  Which pairs are
dropped, the pair order (degree, i, j), and the order of every reduction
fix the syzygy set, and through it the basis that the selection keeps.

A monomial module is multigraded: the generator x^m e_c sits at the
multidegree (c, m), and giving each generator of a level the multidegree of
its image makes every element the engine forms, and every syzygy,
homogeneous for it.  Each element of a level carries its multidegree,
packed like a term: for a generator the packed term itself, for a syzygy
the multidegree of the generator its least term names plus that term's
exponents.  The component part only keeps the ambient components apart.

The selection of minimal generators (``_select``) runs on the packed terms.
The elements of a level, sorted by (degree, least packed term), which is
(degree, component and reversed exponents of the lead), are each kept iff
they lie outside the graded span of those kept before them: one sparse
column reduction (``modp.pivots``) per degree d, whose columns are
x^(b - b_k) times each kept element k of lower degree, for each multidegree
b of a candidate of degree d that k's multidegree b_k divides, then the
candidates of degree d.  Every column and candidate is multihomogeneous, so
a candidate lies in the span of the columns before it iff it lies in the
span of those at its own multidegree: these columns keep what the products
of the kept elements with every monomial of the missing degree would keep.
The candidates kept are the column rank profile among them, and whether a
column lies in the span of the columns before it does not depend on how the
keys of the reduction are ordered; so packed ints as keys keep the same
elements as (component, monomial) labels.

No packed sum carries into a guard bit.  Let L be the lcm of the
generators.  Every generator's multidegree is at most L; an S-pair sits at
the join of two multidegrees, and a reduction step or a span column at the
multidegree of the element it changes or extends; so every multidegree of
the resolution is at most L (they are the multidegrees of the lcm lattice:
Gasharov, Peeva and Welker, Math. Res. Lett. 6, 1999), and so is every
term's exponent vector.  The fields, sized once from the largest generator
exponent, hold twice it plus one, so they hold L.  Each level checks that
no kept multidegree has a guard bit set and raises RuntimeError otherwise,
so a broken argument cannot turn into wrong output.  A level's kept
elements are unpacked, once each, for the differential, their exponents
read from a table by their fields that lives as long as the layout, one
resolution; they go into the next level's engine packed, with their
degrees as its source twists.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from operator import itemgetter, mul

from . import modp
from .ring import FreeElement, FreeModuleSpec, RingSpec


class NotMonomial(ValueError):
    """A generator of the module to resolve has more than one term."""

    def __init__(self, index: int, terms: int):
        self.index = index
        super().__init__(f"generator {index} is not a monomial: it has {terms} terms")


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


class _Table(dict):
    """A dict that fills a missing key k with fill(k) on first lookup."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Layout:
    """The packing of module terms for n variables in fields of width bits,
    the top bit of each field its guard bit.  The exponent tuples of the
    fields of unpacked terms are kept in a table (exps) for the layout's
    lifetime, one resolution."""

    def __init__(self, n: int, width: int):
        self.width = width
        self.shifts = tuple(range(0, n * width, width))
        self.shift = n * width                   # the component's place
        self.fields = (1 << self.shift) - 1      # every bit below it
        self.field = (1 << (width - 1)) - 1      # the value bits of a field
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)
        self.ones = sum(1 << s for s in self.shifts)
        field, shifts = self.field, self.shifts
        self.exps = _Table(lambda f: tuple(f >> s & field for s in shifts))

    def pack(self, comp: int, m) -> int:
        t = comp
        for e in reversed(m):
            if e < 0:
                raise ValueError(f"negative exponent in {m}")
            t = t << self.width | e
        return t

    def unpack(self, t: int):
        return t >> self.shift, self.exps[t & self.fields]


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
        self.twists = twists
        self.source = FreeModuleSpec(tuple(d for _, d in inputs))
        self.leads = []
        self.tails = []
        self.reps = []
        self.by_comp = {}        # component -> [(k, leads[k])], k ascending
        self.members = {}        # component -> {query: in its lead ideal?}
        self.syzygies = []       # (rep, degree) pairs
        weights, exps = spec.weights, layout.exps
        self.wdeg = _Table(lambda f: sum(map(mul, exps[f], weights)))
        shift = layout.shift
        for j, (terms, _) in enumerate(inputs):
            self._add(terms, {j << shift: 1})
        # heap of the pairs kept, each decided once all inputs are in
        self.pairs = [pair for k in range(len(self.leads)) for pair in self._pairs(k)]
        heapq.heapify(self.pairs)

    def _add(self, terms, rep) -> int:
        """Add the element with packed terms (lead first) and expression rep,
        scaled to be monic, to the basis; returns its index."""
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
        comp = lead >> self.layout.shift
        self.by_comp.setdefault(comp, []).append((k, lead))
        self.members[comp] = {}
        return k

    def _pairs(self, k: int):
        """The pairs (i, k), i < k in the component of lead k, that the
        chain criterion keeps against the leads there now, as heap entries
        (degree, i, k, packed lcm, number of leads in the component)."""
        layout = self.layout
        guard, low = layout.guard, layout.width - 1
        lead = self.leads[k]
        comp = lead >> layout.shift
        same = self.by_comp[comp]
        twist, fields, wdeg, count = self.twists[comp], layout.fields, self.wdeg, len(same)
        for i, mi in same:
            if i == k:
                return
            ge = ((mi | guard) - lead) & guard   # guard bits where mi >= lead
            lcm = lead ^ ((mi ^ lead) & (ge - (ge >> low)))
            if not self._chain_skip(i, k, lcm):
                yield wdeg[lcm & fields] + twist, i, k, lcm, count

    def _chain_skip(self, i: int, j: int, lcm: int) -> bool:
        # The chain criterion as lead-ideal membership (module docstring):
        # drop (i, j) iff lcm - e_f - e_g lies in the ideal of the
        # component's leads for a field f where mi falls short of the lcm
        # and a field g where mj does.
        layout = self.layout
        guard, low = layout.guard, layout.width - 1
        top = lcm | guard
        short_i = (top - self.leads[i] - layout.ones) & guard
        short_j = (top - self.leads[j] - layout.ones) & guard
        comp = lcm >> layout.shift
        members, same = self.members[comp], self.by_comp[comp]
        while short_i:
            f = short_i & -short_i
            short_i ^= f
            below = top - (f >> low)
            rest = short_j
            while rest:
                g = rest & -rest
                rest ^= g
                q = below - (g >> low)
                hit = members.get(q)
                if hit is None:
                    hit = False
                    for _, mk in same:
                        if (q - mk) & guard == guard:
                            hit = True
                            break
                    members[q] = hit
                if hit:
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
                nv = (rep.get(t2, 0) - c * co) % p
                if nv:
                    rep[t2] = nv
                else:
                    del rep[t2]
        return remainder, rep

    def run(self):
        p = self.p
        leads, tails, reps, by_comp = self.leads, self.tails, self.reps, self.by_comp
        pairs, shift = self.pairs, self.layout.shift
        while pairs:
            deg, i, j, lcm, count = heapq.heappop(pairs)
            # decided when formed: again only if its component gained a lead
            if len(by_comp[lcm >> shift]) != count and self._chain_skip(i, j, lcm):
                continue
            # the S-polynomial without its lead, which cancels
            qi, qj = lcm - leads[i], lcm - leads[j]
            work = {t + qi: c for t, c in tails[i]}
            rep = {t + qi: c for t, c in reps[i].items()}
            for acc, terms in ((work, tails[j]), (rep, reps[j].items())):
                for t, c in terms:
                    t += qj
                    c = (acc.get(t, 0) - c) % p
                    if c:
                        acc[t] = c
                    else:
                        del acc[t]
            # a zero S-polynomial leaves rep a syzygy as it stands
            if work:
                remainder, rep = self._reduce(work, rep)
                if remainder:
                    for pair in self._pairs(self._add(remainder, rep)):
                        heapq.heappush(pairs, pair)
                    continue
            if rep:
                # rep has the degree of the pair's lcm in the source module
                self.syzygies.append((rep, deg))


# ---------------------------------------------------------------------------
# minimal generators


def _select(p: int, layout: _Layout, elements) -> list:
    """The elements that a minimal generating set keeps, in order.

    elements lists (degree, lead, rep, multidegree) per candidate, rep a
    dict from packed term to coefficient, lead its least packed term, and
    the multidegree packed like a term.  They are sorted by (degree, lead),
    and each is kept iff it lies outside the graded span of those kept
    before it, multiples included: one sparse column reduction per degree,
    the span columns only at the candidates' multidegrees.  By graded
    Nakayama the kept elements generate what all of them generate,
    minimally.  Raises RuntimeError when a kept multidegree has a guard bit
    set: the fields are too narrow for it.
    """
    guard = layout.guard
    same = guard | (-1 << layout.shift)    # the guard bits and the component
    elements = sorted(elements, key=itemgetter(0, 1))
    kept = []
    for _, group in groupby(elements, key=itemgetter(0)):
        group = list(group)
        targets = {b for *_, b in group}
        columns = []
        for _, _, rep, bk in kept:
            for b in targets:
                q = (b | guard) - bk
                if q & same == guard:            # bk divides b, same component
                    q ^= guard
                    columns.append({t + q: c for t, c in rep.items()})
        base = len(columns)
        independent = modp.pivots(columns + [rep for _, _, rep, _ in group], p)
        kept.extend(group[i - base] for i in independent if i >= base)
    if any(b & guard for *_, b in kept):
        raise RuntimeError("a multidegree reached a guard bit: the fields are too narrow")
    return kept


def minimal_syzygies(gens):
    """The minimal free resolution of the submodule that the monomial
    elements gens generate, level by level.

    The elements share one free module, and each has one term; a zero
    element is left out, and any other raises NotMonomial.  Level 0 is a
    minimal generating set of gens, selected like the syzygies of every
    later level.  Yields (source, columns) per level: source is the free
    module on the level's minimal generators, its twists their degrees, and
    columns the minimal generators of their syzygy module, each a dict from
    (component, exponents) to coefficient, the component an index into the
    level's generators.  The columns are the next level's generators; the
    last level yielded has no columns.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    spec, ambient = gens[0].spec, gens[0].ambient
    for idx, v in enumerate(gens):
        if v.spec != spec or v.ambient != ambient:
            raise ValueError("generators live in different modules")
        if len(v.coeffs) > 1:
            raise NotMonomial(idx, len(v.coeffs))
    top = max(max(m) for v in gens for _, m in v.coeffs)
    layout = _Layout(spec.num_vars, top.bit_length() + 2)
    shift, fields, unpack = layout.shift, layout.fields, layout.unpack
    weights, twists = spec.weights, ambient.twists
    level = []
    for v in gens:
        ((c, m), coeff), = v.coeffs.items()
        t = layout.pack(c, m)
        level.append((sum(map(mul, m, weights)) + twists[c], t, {t: coeff}, t))
    kept = _select(spec.char, layout, level)
    while True:
        eng = _Engine(spec, twists, [(sorted(rep.items()), d) for d, _, rep, _ in kept], layout)
        eng.run()
        mdegs = [b for *_, b in kept]
        level = []
        for rep, d in eng.syzygies:
            lead = min(rep)
            level.append((d, lead, rep, mdegs[lead >> shift] + (lead & fields)))
        kept = _select(spec.char, layout, level)
        yield eng.source, [{unpack(t): c for t, c in rep.items()} for _, _, rep, _ in kept]
        if not kept:
            return
        twists = eng.source.twists
