"""Explicit graded modules of monomial labels and their Koszul-strand Betti
tables.

An :class:`ExplicitGradedModule` stores a finite window of a graded module as
ordered bases of (component, monomial) labels per internal degree, and the
action of each variable x_t as a label map: x_t sends a label m to a nonzero
multiple of the label x_t * m, or to zero.  The graded Betti numbers
beta_ij = dim H_i(K (x) M)_j are read off the strands of the Koszul complex
of all variables; the ranks are taken over the coefficient field.

Along label maps the strands split by exponent multidegree, and the rank
work reduces to many tiny blocks.  Only the blocks at critical multidegrees
are built: a value c is critical for x_t when x_t fails to send the labels
with t-exponent c - 1 bijectively, with nonzero coefficients, onto those
with t-exponent c.  A strand whose multidegree a has some a_t not critical
is the mapping cone of the isomorphism x_t between two strands of the
Koszul complex on the other variables, hence acyclic.  The tests cross-check
the blocks against a dense strand assembly.

The label maps are found on the labels packed into int64 arrays: the
component, the exponents, the degree and one mixed-radix key per label, in
which x_t * m is key + a stride.  Key packing raises ValueError when the
radices would not fit in 64 bits, rather than wrap.  The associated graded
builders hand their labels over as arrays (_array_module).  The module
keeps, in a private field, its labels' degrees and exponents and per
variable the masks of the labels x_t acts on and of those it reaches; the
critical values are read off those masks, which are packed from the dicts
only for a module built by hand.  Only the labels that lie in a strand at a
critical multidegree leave the arrays for the Python loop that builds the
strands.  The tests build their modules through the same arrays.

The stored window is the degrees up to ``bound`` and, when ``corner`` is
set, only the multidegrees m <= corner: the quotient of the module by the
labels outside the box [0, corner].  Its strands at multidegrees <= corner
equal those of the whole module, and only those are built.  A positively
a-determined monomial module (Miller-Sturmfels, Combinatorial Commutative
Algebra, GTM 227, Ch. 5) has every Betti multidegree in [0, a], so the box
at a is the whole of its Betti table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, product
from operator import add, itemgetter, mul

import numpy as np

from . import modp
from .complexes import BettiTable
from .ring import RingSpec


class DegreeRangeError(ValueError):
    """A request exceeded the stored window."""


@dataclass(frozen=True)
class ExplicitGradedModule:
    """A graded module presented by per-degree label bases and label maps.

    degrees maps internal degree -> ordered tuple of (component, monomial)
    labels.  actions is a tuple of one dict per variable: actions[t][m] = c
    means x_t * m = c * (x_t m), where m is a stored label of degree j, the
    image x_t m (same component, exponent of t raised by one) is a stored
    label of degree j + w_t, and c is nonzero mod the characteristic.  A
    label absent from actions[t] is sent to zero by x_t.  Each label is
    stored in one degree only.  Labels are stored for degrees <= bound and,
    when corner is set, only for exponent multidegrees <= corner; x_t sends
    a label with exponent corner_t in t out of the window.

    _arrays, when set, holds the labels in stored order as arrays with the
    masks of the label maps (_LabelArrays).  The builders set it; it takes
    no part in comparison or repr, and a module built without it has it
    packed from the dicts when its strands are taken.
    """

    spec: RingSpec
    bound: int
    degrees: dict
    actions: tuple
    corner: tuple | None = None
    _arrays: _LabelArrays | None = field(default=None, compare=False, repr=False)


def _label_arrays(spec: RingSpec, degrees: dict) -> tuple:
    """The component, exponent and degree arrays of a degrees dict's labels,
    in their stored order."""
    labels = [lb for labels in degrees.values() for lb in labels]
    count = len(labels)
    sizes = [len(labels) for labels in degrees.values()]
    deg = np.repeat(np.fromiter(degrees, np.int64, len(degrees)), sizes)
    comp = np.fromiter(map(itemgetter(0), labels), np.int64, count)
    monomials = chain.from_iterable(map(itemgetter(1), labels))
    exps = np.fromiter(monomials, np.int64, count * spec.num_vars).reshape(count, spec.num_vars)
    return comp, exps, deg


def _array_module(
    spec: RingSpec,
    bound: int,
    keys: list,
    comp: np.ndarray,
    exps: np.ndarray,
    deg: np.ndarray,
    corner: tuple | None = None,
) -> ExplicitGradedModule:
    """The module on labels given as arrays: label i is (comp[i], exps[i]) of
    degree deg[i], and keys lists the degrees in the order the module stores
    them (a degree with no label among them is stored empty), each sorted by
    component and then descending monomial order.  x_t sends a label to
    x_t * label when that is a label of degree j + w_t, else to zero.
    Raises ValueError when a label is listed twice or the exponents are too
    large for 64-bit keys (see _PackedLabels).  The module keeps the label
    arrays in stored order with its x_t masks."""
    packed = _PackedLabels(spec, comp, exps, deg)
    key_arr = np.fromiter(keys, np.int64, len(keys))
    by_value = np.argsort(key_arr)
    rank = by_value[np.searchsorted(key_arr[by_value], deg)]
    # by key within each degree, the degrees in the order of keys
    order = np.lexsort((packed.key, rank))
    labels = list(zip(comp[order].tolist(), zip(*exps[order].T.tolist())))
    final = {}
    start = 0
    for j, size in zip(keys, np.bincount(rank, minlength=len(keys)).tolist()):
        final[j] = tuple(labels[start:start + size])
        start += size
    acts, reached = [], []
    for t, w in enumerate(spec.weights):
        image = packed.images(t)
        hit = (image >= 0) & (deg[image] == deg + w)
        acts.append(hit[order])
        reached.append(_reached(image, hit)[order])
    actions = tuple(dict.fromkeys(compress(labels, hit.tolist()), 1) for hit in acts)
    arrays = _LabelArrays(deg[order], exps[order], acts, reached)
    return ExplicitGradedModule(spec, bound, final, actions, corner, arrays)


def _reached(image: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """The mask of the labels image[i] for i in hit: those x_t reaches."""
    reached = np.zeros(len(image), dtype=bool)
    reached[image[hit & (image >= 0)]] = True
    return reached


@dataclass(frozen=True)
class _LabelArrays:
    """A module's labels in stored order as arrays: the degree and the
    exponents of each, and per variable t the mask of the labels that x_t
    sends to a label (acts) and of the labels that x_t of a label is
    (reached)."""

    deg: np.ndarray
    exps: np.ndarray
    acts: list
    reached: list

    @classmethod
    def of(cls, M: ExplicitGradedModule) -> "_LabelArrays":
        """The arrays of a module built without them, its label maps read
        from the dicts."""
        comp, exps, deg = _label_arrays(M.spec, M.degrees)
        packed = _PackedLabels(M.spec, comp, exps, deg)
        labels = list(chain.from_iterable(M.degrees.values()))
        acts, reached = [], []
        for t, image in enumerate(M.actions):
            acts.append(np.fromiter(map(image.__contains__, labels), bool, len(labels)))
            reached.append(_reached(packed.images(t), acts[-1]))
        return cls(deg, exps, acts, reached)


class _PackedLabels:
    """Labels as int64 arrays: the component, the exponents, the degree and
    one mixed-radix key per label.

    The key reads a label (c, m) as the digits c, m_{n-1}, ..., m_0, where
    m_t has radix max m_t + 2.  So keys order the labels by component and
    then by reversed exponents, and key + strides[t] is the key of x_t * m
    whether or not that is a label (no digit carries).  Raises ValueError
    when the product of the radices reaches 2**63, where int64 keys would
    wrap, or when a label is stored twice.
    """

    def __init__(self, spec: RingSpec, comp: np.ndarray, exps: np.ndarray, deg: np.ndarray):
        strides = [1]
        for top in exps.max(axis=0, initial=0).tolist():
            strides.append(strides[-1] * (top + 2))
        if strides[-1] * (int(comp.max(initial=0)) + 1) >= 2**63:
            raise ValueError("label exponents too large for 64-bit keys")
        self.strides = strides[:-1]
        self.key = exps @ np.array(self.strides, dtype=np.int64) + comp * strides[-1]
        self._order = np.argsort(self.key, kind="stable")
        self._sorted = self.key[self._order]
        twice = np.flatnonzero(self._sorted[1:] == self._sorted[:-1])
        if len(twice):
            i = self._order[twice[0]]
            raise ValueError(f"label {(int(comp[i]), tuple(exps[i].tolist()))} is stored twice")

    def images(self, t: int) -> np.ndarray:
        """The index of the label x_t * m for each label m, or -1 where there is none."""
        keys = self.key + self.strides[t]
        pos = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        return np.where(self._sorted[pos] == keys, self._order[pos], -1)


# ---------------------------------------------------------------------------
# Koszul strands


def betti_via_koszul(M: ExplicitGradedModule, bound: int | None = None) -> BettiTable:
    """Graded Betti numbers beta_ij = dim H_i(Koszul (x) M)_j for j <= bound,
    and on a module stored up to a corner, at multidegrees <= corner only.

    The strands split into multidegree blocks along the label maps, and only
    the blocks whose multidegree is critical in every coordinate are ranked:
    any other block is the cone of an isomorphism x_t and has no homology
    (see :func:`_betti_blocks`).
    """
    b = M.bound if bound is None else bound
    if b > M.bound:
        raise DegreeRangeError(f"bound {b} exceeds stored degree range {M.bound}")
    return _betti_blocks(M, b)


def _critical_labels(M: ExplicitGradedModule, bound: int) -> tuple:
    """The critical values per coordinate t, and the labels in strands whose
    every coordinate is critical.

    c is critical for t when a label of degree <= bound with exponent c in t
    has no x_t-preimage (c = 0, or the label below is missing or sent to
    zero), or when a label with exponent c - 1 in t and
    degree <= bound - w_t is sent to zero by x_t.  On a module stored up to a
    corner, a label with exponent corner_t in t is sent out of the window,
    not to zero, so the values above corner_t are dropped.

    A label m of degree <= bound may stay out of T when m_t is critical and
    enter T when m_t + 1 is.  It is kept when it can do one or the other for
    every t, as (label, degree, pattern) in stored order, where bit t of
    pattern says it may stay out and bit n + t that it may enter.
    """
    n = M.spec.num_vars
    arrays = M._arrays if M._arrays is not None else _LabelArrays.of(M)
    deg = arrays.deg
    low = deg <= bound
    keep = low.copy()
    pattern = np.zeros(len(deg), dtype=np.int64)
    crit = []
    for t, w in enumerate(M.spec.weights):
        acts, reached = arrays.acts[t], arrays.reached[t]
        c = arrays.exps[:, t]
        values = set(c[low & ~reached].tolist())
        values.update((c[low & ~acts & (deg + w <= bound)] + 1).tolist())
        if M.corner is not None:
            values = {v for v in values if v <= M.corner[t]}
        crit.append(values)
        table = np.zeros(int(c.max(initial=0)) + 2, dtype=bool)
        table[list(values)] = True
        stay, enter = table[c], table[c + 1]
        keep &= stay | enter
        pattern |= stay.astype(np.int64) << t | enter.astype(np.int64) << (n + t)
    rows = np.flatnonzero(keep)
    labels = map(list(chain.from_iterable(M.degrees.values())).__getitem__, rows.tolist())
    return crit, list(zip(labels, deg[rows].tolist(), pattern[rows].tolist()))


def _betti_blocks(M: ExplicitGradedModule, bound: int) -> BettiTable:
    """Betti numbers from the Koszul strands at critical multidegrees only.

    The cells e_T (x) m (T a subset of the variables, m a label) lie in
    strands indexed by (component, a, j) with a = m + e_T and j = deg(m) +
    w(T).  Fix t.  The strand at (a, j) is the mapping cone of +-x_t from the
    strand at (a - e_t, j - w_t) to the strand at (a, j), both taken over the
    subsets not containing t.  If a_t is not critical (:func:`_critical_labels`),
    x_t sends the labels of the first strand bijectively, with nonzero
    coefficients, onto those of the second; on a module (the actions
    commute) that is an isomorphism of complexes, so the cone is acyclic.
    Hence only strands with every a_t critical can have homology, and only
    those are built: a label m takes t outside T when m_t is critical and
    inside T when m_t + 1 is.  For gr of a truncation the critical values lie
    among 0 and the generator exponents, and on a corner window none exceeds
    the corner, so no strand outside the window is built.

    The critical values and the labels that take part come from the
    module's label arrays: per t, the masks of the labels x_t acts on and of
    those it reaches, and a lookup table of the critical values gives the
    masks of the labels that may stay out of T and of those that may enter
    it.  Only the labels with a choice for every t reach the cell
    loop, and the subsets T are listed once per distinct (stay, enter)
    pattern.
    """
    spec = M.spec
    n = spec.num_vars
    p = spec.char
    maps = M.actions
    _, kept = _critical_labels(M, bound)

    # multidegree block key: (component, total exponent vector)
    blocks = {}
    picks = {}
    for lb, jdeg, pattern in kept:
        if pattern not in picks:
            # pick[t] = 1 puts t in T, allowed where the pattern's bit says so
            choices = [[k for k in (0, 1) if pattern >> (k * n + t) & 1] for t in range(n)]
            picks[pattern] = [
                (tuple(t for t in range(n) if pick[t]), sum(map(mul, spec.weights, pick)), pick)
                for pick in product(*choices)
            ]
        comp, m = lb
        for T, weight, pick in picks[pattern]:
            j = jdeg + weight
            if j <= bound:
                blocks.setdefault((comp, tuple(map(add, m, pick))), []).append((T, lb, j))

    out = {}
    for (comp, a), cells in blocks.items():
        by_j = {}
        for T, lb, j in cells:
            by_j.setdefault(j, {})[T] = lb
        for j, present in by_j.items():
            # column e_T (x) m of d_|T|, keyed by the faces T - {t} present
            columns = [[] for _ in range(max(map(len, present)) + 1)]
            for T, lb in present.items():
                column = {}
                for posn, t in enumerate(T):
                    rest = T[:posn] + T[posn + 1:]
                    coeff = maps[t].get(lb)
                    if coeff is not None and rest in present:
                        column[rest] = coeff if posn % 2 == 0 else -coeff
                columns[len(T)].append(column)
            ranks = [0, *(len(modp.pivots(level, p)) for level in columns[1:]), 0]
            for size, level in enumerate(columns):
                h = len(level) - ranks[size] - ranks[size + 1]
                if h:
                    key = (size, j)
                    out[key] = out.get(key, 0) + h
    return BettiTable.from_dict(out)
