"""Explicit graded modules of monomial labels and their Koszul-strand Betti
tables.

An :class:`ExplicitGradedModule` stores a finite window of a graded module as
its (component, monomial) labels, each of one internal degree, and the
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
Koszul complex on the other variables, hence acyclic.  A strand has at most
one cell e_T (x) (a - e_T) per subset T, so its homology depends only on
which cells are present and on the coefficients of their edges, and the
blocks share few such patterns: each distinct pattern is ranked once.  The
tests cross-check the blocks against a dense strand assembly.

The module is its label arrays: the component, the exponents and the
degree of each label, and per variable x_t the coefficient of x_t on each
label (0 where x_t sends it to zero) and the mask of the labels that x_t
reaches.  The associated graded builders read the label maps off their
ord table (assoc_graded).  The critical values and the cells of the
critical strands are found by index arithmetic on the label arrays, the
strands by one sort of the cells' keys, with ValueError rather than a wrap
past 64 bits, and the patterns by one sort of the strands' rows of cell
codes; only the distinct patterns reach the sparse rank kernel.  The tests build
modules from dicts of labels and label maps, read them back as such dicts,
and find label maps by key search (tests/oracles.py).

The stored window is the degrees up to ``bound`` and, when ``corner`` is
set, only the multidegrees m <= corner: the quotient of the module by the
labels outside the box [0, corner].  Its strands at multidegrees <= corner
equal those of the whole module, and only those are built.  A positively
a-determined monomial module (Miller-Sturmfels, Combinatorial Commutative
Algebra, GTM 227, Ch. 5) has every Betti multidegree in [0, a], so the box
at a is the whole of its Betti table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modp
from .complexes import BettiTable, _row_ids
from .ring import RingSpec, as_int


class DegreeRangeError(ValueError):
    """A request exceeded the stored window."""


@dataclass(frozen=True, eq=False)
class ExplicitGradedModule:
    """A graded module presented by its labels and label maps, as arrays.

    Label i is (comp[i], exps[i]) of internal degree deg[i]; each label is
    stored once, in no particular order.  coef[i, t] = c means x_t * m = c *
    (x_t m) mod the characteristic, where the image x_t m (same component,
    exponent of t raised by one) is a stored label of degree deg[i] + w_t;
    c = 0 means x_t sends m to zero.  reached[i, t] is set when label i is
    x_t m for a label m with coef[m, t] != 0.  Labels are stored for degrees
    <= bound and, when corner is set, only for exponent multidegrees
    <= corner; x_t sends a label with exponent corner_t in t out of the
    window.  Modules compare by identity.
    """

    spec: RingSpec
    bound: int
    comp: np.ndarray
    deg: np.ndarray
    exps: np.ndarray
    coef: np.ndarray
    reached: np.ndarray
    corner: tuple | None = None

    @property
    def degrees(self) -> dict:
        """Degree j -> the indices of the labels of degree j, for each degree
        that has a label, in increasing order.  perfbench's tracer counts a
        gr module's labels through it."""
        order = np.argsort(self.deg, kind="stable")
        values, starts = np.unique(self.deg[order], return_index=True)
        return dict(zip(values.tolist(), np.split(order, starts[1:])))


class _PackedLabels:
    """One mixed-radix int64 key per label, from its component and exponents.

    The key reads a label (c, m) as the digits c, m_{n-1}, ..., m_0, where
    m_t has radix max m_t + 2.  So key + strides[t] is the key of x_t * m
    whether or not that is a label (no digit carries); every such key is
    below size, the product of the radices.  Raises ValueError when size
    reaches 2**63, where int64 keys would wrap.
    """

    def __init__(self, comp: np.ndarray, exps: np.ndarray):
        strides = [1]
        for top in exps.max(axis=0, initial=0).tolist():
            strides.append(strides[-1] * (top + 2))
        self.size = strides[-1] * (int(comp.max(initial=0)) + 1)
        if self.size >= 2**63:
            raise ValueError("label exponents too large for 64-bit keys")
        self.strides = strides[:-1]
        self.key = exps @ np.array(self.strides, dtype=np.int64) + comp * strides[-1]


# ---------------------------------------------------------------------------
# Koszul strands


def betti_via_koszul(M: ExplicitGradedModule, bound: int | None = None) -> BettiTable:
    """Graded Betti numbers beta_ij = dim H_i(Koszul (x) M)_j for j <= bound,
    and on a module stored up to a corner, at multidegrees <= corner only.

    The strands split into multidegree blocks along the label maps, and only
    the blocks whose multidegree is critical in every coordinate are ranked,
    each distinct block pattern once: any other block is the cone of an
    isomorphism x_t and has no homology (see :func:`_betti_blocks`).
    """
    b = M.bound if bound is None else as_int(bound, "bound")
    if b > M.bound:
        raise DegreeRangeError(f"bound {b} exceeds stored degree range {M.bound}")
    return _betti_blocks(M, b)


def _critical_labels(M: ExplicitGradedModule, bound: int) -> tuple:
    """The critical values per coordinate t, and the rows of the labels in
    strands whose every coordinate is critical, with their stay/enter bits.

    c is critical for t when a label of degree <= bound with exponent c in t
    has no x_t-preimage (c = 0, or the label below is missing or sent to
    zero), or when a label with exponent c - 1 in t and
    degree <= bound - w_t is sent to zero by x_t.  On a module stored up to a
    corner, a label with exponent corner_t in t is sent out of the window,
    not to zero, so the values above corner_t are dropped.

    A label m of degree <= bound may stay out of T when m_t is critical and
    enter T when m_t + 1 is.  It is kept when it can do one or the other for
    every t.  Returns (crit, rows, bits): the sets of critical values, the
    kept labels' indices, ascending, and bits[k] with bit t set when label
    rows[k] may stay out of T and bit n + t when it may enter.
    """
    n = M.spec.num_vars
    deg = M.deg
    low = deg <= bound
    keep = low.copy()
    bits = np.zeros(len(deg), dtype=np.min_scalar_type((1 << 2 * n) - 1))
    crit = []
    for t, w in enumerate(M.spec.weights):
        c = M.exps[:, t]
        starts = c[low & ~M.reached[:, t]]
        ends = c[low & (M.coef[:, t] == 0) & (deg <= bound - w)] + 1
        top = int(c.max(initial=0)) + 2
        if top <= 2 * len(c) + 64:
            # every critical value is some c or c + 1: mark them in a table
            critical = np.zeros(top, dtype=bool)
            critical[starts] = critical[ends] = True
            if M.corner is not None:
                critical[M.corner[t] + 1:] = False
            values = np.flatnonzero(critical)
            stay, enter = critical[c], critical[c + 1]
        else:  # exponents too far apart for a table
            values = np.union1d(starts, ends)
            if M.corner is not None:
                values = values[values <= M.corner[t]]
            stay, enter = np.isin(c, values), np.isin(c + 1, values)
        crit.append(set(values.tolist()))
        keep &= stay | enter
        bits |= stay.astype(bits.dtype) << t | enter.astype(bits.dtype) << (n + t)
    rows = np.flatnonzero(keep)
    return crit, rows, bits[rows]


def _betti_blocks(M: ExplicitGradedModule, bound: int) -> BettiTable:
    """Betti numbers from the Koszul strands at critical multidegrees only,
    each distinct strand pattern ranked once.

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

    A strand holds at most one cell per T, the label a - e_T, and its
    differential sends e_T (x) m to the sum over t in T of
    +-coef_t(m) e_{T - t} (x) x_t m.  So its homology depends only on which
    cells are present and on the coefficients of their edges: the module
    form of the upper Koszul simplicial complex (Miller-Sturmfels, GTM 227,
    Thm 1.34).  A cell's code is 1 + the index of its label's coefficients,
    zeroed outside T, among the distinct such rows: a table over the
    distinct coefficient rows of the kept labels and all T, so a code never
    exceeds their number times 2**n.  The cells (row, T) come from a mask
    over chunks of kept rows and all T.  A strand's key is its label key
    plus the strides of T (_PackedLabels) and its degree, and its row of
    cell codes by T (0 where absent) is its pattern.  Each distinct pattern
    is ranked once; the table adds, per pattern and j, the number of strands
    times its homology.  Raises ValueError when the (key, j) pairs would
    reach 2**63.
    """
    n = M.spec.num_vars
    _, rows, bits = _critical_labels(M, bound)
    if not len(rows):
        return BettiTable(())
    deg = M.deg[rows]
    packed = _PackedLabels(M.comp[rows], M.exps[rows])
    low = int(deg.min())
    span = bound - low + 1
    space = packed.size * span
    if space >= 2**63:
        raise ValueError("label exponents and degrees too large for 64-bit strand keys")
    subsets = np.arange(1 << n)
    inside = subsets[:, None] >> np.arange(n) & 1
    weight = inside @ np.array(M.spec.weights)
    shift = inside @ np.array(packed.strides)
    need = ((subsets << n) | (((1 << n) - 1) ^ subsets)).astype(bits.dtype)
    # cell (r, T) gets 1 + the index of row r's coefficients zeroed off T
    kinds, kind = _row_ids(M.coef[rows])
    on_t, cell_code = _row_ids(np.where(inside.astype(bool), kinds[:, None], 0).reshape(-1, n))
    code_type = np.min_scalar_type(len(on_t))
    cell_code = (cell_code + 1).astype(code_type).reshape(len(kinds), -1)
    step = max(1, 2**16 >> n)  # kept rows masked at a time
    cells = []
    for start in range(0, len(rows), step):
        # cell (r, T): kept row r with the subset T, where every t may stay out or enter
        part = slice(start, start + step)
        r, T = np.nonzero(((bits[part, None] & need) == need) & (deg[part, None] <= bound - weight))
        r += start
        keys = (packed.key[r] + shift[T]) * span + (deg[r] + weight[T] - low)
        cells.append((keys.astype(np.min_scalar_type(space - 1)), T.astype(bits.dtype), cell_code[kind[r], T]))
    strand_keys, strand = np.unique(np.concatenate([keys for keys, _, _ in cells]), return_inverse=True)
    grid = np.zeros((len(strand_keys), len(subsets)), dtype=code_type)
    start = 0
    for _, T, code in cells:
        grid[strand[start:start + len(T)], T] = code
        start += len(T)
    patterns, pattern = _row_ids(grid)
    counts = np.bincount(pattern * span + (strand_keys % span).astype(np.int64))
    ts = [[t for t in range(n) if T >> t & 1] for T in range(len(subsets))]
    faces = [[(t, T ^ 1 << t, (-1) ** k) for k, t in enumerate(on)] for T, on in enumerate(ts)]
    coefs = [None, *on_t.tolist()]
    homology = [_strand_homology(row, faces, coefs, M.spec.char) for row in patterns.tolist()]
    out = {}
    for g in np.flatnonzero(counts).tolist():
        k, jr = divmod(g, span)
        for i, h in enumerate(homology[k]):
            if h:
                out[i, jr + low] = out.get((i, jr + low), 0) + int(counts[g]) * h
    return BettiTable.from_dict(out)


def _strand_homology(row: list, faces: list, coefs: list, p: int) -> list:
    """dim H_i, i = 0..n, of the strand whose cell e_T has code row[T] (0
    where absent), ranked over F_p.  faces[T] lists (t, T - {t}, sign) for t
    in T; coefs[code][t] is coef_t of the cell's label."""
    columns = [[] for _ in range(len(faces[-1]) + 1)]
    for T, code in enumerate(row):
        if code:
            # column e_T of d_|T|, keyed by the faces T - {t} present
            column = {rest: s * coefs[code][t] for t, rest, s in faces[T] if row[rest]}
            columns[len(faces[T])].append(column)
    ranks = [0, *(len(modp.pivots(level, p)) for level in columns[1:]), 0]
    return [len(level) - ranks[i] - ranks[i + 1] for i, level in enumerate(columns)]
