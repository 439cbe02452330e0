"""Graded free complexes, the minimal resolution builder, Betti tables, and
homology on the generator grid.

Homology is computed by exact rank computations over the coefficient field,
on complexes whose differential entries are single terms: such a complex
splits into blocks graded by exponent multidegree, and one walk over the
grid of generator coordinate values, one sparse column reduction per slice
along the last coordinate, lists with no degree bound every grid cell where
some H_i with i >= 1 is nonzero.  A grid point's homology holds on its whole
cell, so the list is finite and complete.  The walk finds every slice's
support in one batched numpy pass per block and reduces each distinct
support once, from the top differential down with clearing: a column of d_k
whose index is the low of a reduced column of d_{k+1} is a cycle, since
d o d = 0, and is skipped (Chen-Kerber 2011, Bauer-Kerber-Reininghaus 2014).
Each differential's apparent pairs are found once per block: a column whose
largest row meets no column before it in the block is independent, with
that row as its low, in every slice that holds it, so it is stored
unreduced and only the other columns are reduced (Bauer 2021, Ripser).
A complex that does not split raises NoFiniteDecision.  A differential is
stored as its columns, the shape in which the syzygy engine yields them,
and the blocks are read off the columns.  The tests cross-check the walk
against a dense expansion of each graded piece and against the walk without
batching or clearing, and build the Koszul, Taylor and tensor complexes
they feed it, and the d o d = 0 check, in tests/oracles.py.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product
from operator import mul

import numpy as np

from . import modp
from .gb import minimal_syzygies
from .ring import DimensionMismatch, RingSpec


# ---------------------------------------------------------------------------
# Betti tables


@dataclass(frozen=True)
class BettiTable:
    """Ranks (i, j, rank) of a graded free complex or resolution."""

    entries: tuple

    def __post_init__(self):
        clean = tuple(
            sorted((int(i), int(j), int(r)) for i, j, r in self.entries if r)
        )
        seen = {(i, j) for i, j, _ in clean}
        if len(seen) != len(clean):
            raise ValueError("duplicate (i, j) entries")
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_dict(cls, d: dict) -> "BettiTable":
        return cls(tuple((i, j, r) for (i, j), r in d.items()))

    def as_dict(self) -> dict:
        return {(i, j): r for i, j, r in self.entries}

    def records(self) -> list:
        """The json shape of the table: one {"i", "j", "rank"} per entry."""
        return [{"i": i, "j": j, "rank": r} for i, j, r in self.entries]

    def total(self, i: int) -> int:
        return sum(r for ii, _, r in self.entries if ii == i)

    def max_hom(self) -> int:
        return max((i for i, _, _ in self.entries), default=-1)

    def restrict(self, max_j: int) -> "BettiTable":
        return BettiTable(tuple(e for e in self.entries if e[1] <= max_j))

    def is_diagonal(self) -> bool:
        return all(i == j for i, j, _ in self.entries)

    def diagonal_ranks(self) -> list:
        """Ranks along j = i, as a list indexed by homological degree."""
        if not self.is_diagonal():
            raise ValueError("table is not diagonal")
        out = [0] * (self.max_hom() + 1)
        for i, _, r in self.entries:
            out[i] = r
        return out

    def __add__(self, other: "BettiTable") -> "BettiTable":
        d = self.as_dict()
        for k, r in other.as_dict().items():
            d[k] = d.get(k, 0) + r
        return BettiTable.from_dict(d)

    def render(self) -> str:
        if not self.entries:
            return "(empty Betti table)"
        imax = self.max_hom()
        rows = sorted({j - i for i, j, _ in self.entries})
        lines = ["      " + " ".join(f"{i:>5}" for i in range(imax + 1))]
        lines.append("total " + " ".join(f"{self.total(i):>5}" for i in range(imax + 1)))
        d = self.as_dict()
        for s in rows:
            cells = [d.get((i, i + s), 0) for i in range(imax + 1)]
            lines.append(
                f"{s:>4}: " + " ".join(f"{c if c else '.':>5}" for c in cells)
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class GradedFreeComplex:
    """Twisted free modules F_0..F_len with differentials d_i : F_i -> F_{i-1}.

    diffs[k] is the tuple of columns of d_{k+1}, one per generator of
    F_{k+1}.  Column c is a dict from (r, exponents) to a nonzero
    coefficient, r a generator of F_k: the entry of d_{k+1} at (r, c) is the
    sum of its terms in row r, and zero when the column has none.
    """

    spec: RingSpec
    modules: tuple
    diffs: tuple

    def betti_from_twists(self) -> BettiTable:
        d = {}
        for i, mod in enumerate(self.modules):
            for t in mod.twists:
                d[(i, t)] = d.get((i, t), 0) + 1
        return BettiTable.from_dict(d)


# ---------------------------------------------------------------------------
# resolutions


def resolve_module(gens, minimize: bool = True) -> GradedFreeComplex:
    """Minimal free resolution of the submodule generated by the monomial
    elements gens (gb.NotMonomial on any other).

    gb.minimal_syzygies builds it level by level: level 0 is a minimal
    generating set of gens, and each later level a minimal generating set of
    the Schreyer syzygies of the level before, so the resolution is minimal
    and, by Hilbert's syzygy theorem, ends within num_vars steps.  Only the
    minimal resolution is computed: minimize=False raises ValueError, and
    the keyword takes no other value.

    The minimal resolution has no unit entry.  A unit entry u in row r of a
    syzygy s would give u g_r = -sum of s_k g_k over k != r, where every g_k
    with a unit coefficient has the degree of g_r and every other one a lower
    degree.  The last kept of the generators with unit coefficients would
    then lie in the graded span of generators kept before it, which the
    selection rules out (graded Nakayama).  linear_part still refuses a unit
    entry.

    The differentials are the kept syzygies themselves: diffs[k] lists the
    columns that minimal_syzygies yields for level k, in order.
    """
    if not minimize:
        raise ValueError("resolve_module computes only the minimal resolution")
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    spec = gens[0].spec
    modules = []
    diffs = []
    levels = minimal_syzygies(gens)
    for _, (source, syz) in zip(range(spec.num_vars + 2), levels):
        modules.append(source)
        if not syz:
            break
        diffs.append(tuple(syz))
    else:
        raise RuntimeError("resolution did not terminate within the level cap")
    return GradedFreeComplex(spec, tuple(modules), tuple(diffs))


# ---------------------------------------------------------------------------
# homology on the generator grid


class NoFiniteDecision(RuntimeError):
    """The complex does not split into multidegree blocks, so its homology
    has no finite decision on the generator grid."""


@dataclass(frozen=True)
class _MultidegreeBlock:
    """One connected component of a complex with single-term entries.

    Level i holds the rows of mdegs[i]: each generator's exponent multidegree
    relative to the component's root, ordered by last coordinate.  A
    generator at multidegree m has internal degree wdeg(m) + offset, and
    diffs[k][c] is column c of the component's scalar matrix of d_{k+1}, a
    dict from row to coefficient.  The strand at a multidegree a is spanned
    by the generators with m <= a, one basis vector x^(a - m) each.  grid[t]
    lists the distinct values of coordinate t over all generators, ascending.
    """

    offset: int
    mdegs: tuple
    diffs: tuple
    grid: tuple

    def grid_walk(self, p: int):
        """Yield (index, h) for each grid point whose strand has homology.

        index picks the value grid[t][index[t]] in each coordinate t, in
        lexicographic order, and h lists dim H_i of the strand at that
        point, per level.

        The strands along the last coordinate are nested, so one column
        reduction per slice ranks them all (the persistence reduction of
        Zomorodian and Carlsson, "Computing persistent homology", DCG 33,
        2005).  Fix the first n - 1 coordinates: the slice is spanned by the
        generators at or below them, its strand at the k-th last value v by
        those whose last coordinate is also <= v.  A nonzero entry d[r][c]
        forces m(r) <= m(c), so every column in the slice has all its rows
        in the slice, and the strand's differential is the prefix of the
        slice's columns up to v, each level being ordered by last
        coordinate.  Its rank is the number of independent columns
        (modp.pivots) with last coordinate <= v, counted by bisection.

        A slice depends only on its support, so it is reduced once per
        distinct support.  The supports of all slices are found in one
        batched pass: a (slices x generators) mask, the AND of one
        comparison per coordinate, packed to bits and deduplicated as raw
        bytes, then unpacked once per distinct support, all in chunks of at
        most 2**15 cells.  The slices are then walked in plain Python.

        Within a slice the differentials are reduced from the top level down,
        with clearing (Chen and Kerber, "Persistent homology computation with
        a twist", EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and
        compress", 2014).  Each independent column of d_{k+1} is stored under
        its low, its largest row r once reduced.  That reduced column is a
        boundary b = d_{k+1}(y) with b = u e_r + (rows before r), u != 0, and
        d_k(b) = 0 since d o d = 0, so column r of d_k is a combination of
        the columns before it: not independent.  It is skipped unreduced.
        Skipping a dependent column stores nothing and leaves every other
        column's reduction as it was, so the independent columns, and every
        strand's rank counted from them, are unchanged.

        Most columns need no reduction at all, and which ones is decided
        once per block, before any slice, from the apparent pairs of each
        differential (Bauer, "Ripser: efficient computation of Vietoris-Rips
        persistence barcodes", J. Appl. Comput. Topol. 5, 2021).  A column c
        with largest row r is apparent when no column before c in the
        block's order has an entry in row r.  Lemma: in every slice that
        holds c, c is independent with low r.  The slice's columns before c
        (clearing leaves some out, which does not matter) are among the
        block's columns before c, so none has an entry in row r; each column
        stored before c is a combination of them, so none has an entry in
        row r either and r is not yet a low.  So c is stored as it is, under
        r.  Each slice therefore stores its apparent columns unreduced under
        their lows, where they clear column r of d_k and count in the ranks,
        and hands only the other columns to modp.pivots, with the apparent
        ones already stored.  Every reduction is unchanged: while c' is
        reduced it stays a combination of c' and the slice's columns before
        it, and an apparent column after c' has its low in a row that none
        of those has an entry in, so c' never meets it.
        """
        apparent = [_apparent_lows(columns) for columns in self.diffs]
        head = self.grid[:-1]
        M = np.concatenate(self.mdegs)
        prefixes = list(product(*(range(len(vals)) for vals in head)))
        corners = np.array(list(product(*head)), dtype=np.int64).reshape(len(prefixes), len(head))
        step = max(1, 2**15 // len(M))  # slices masked, or supports unpacked, at a time
        packed = []
        for chunk in range(0, len(corners), step):
            # slice x generator: m(g) at or below the slice's corner, one
            # comparison per coordinate ANDed in
            corner = corners[chunk:chunk + step]
            mask = np.ones((len(corner), len(M)), dtype=bool)
            for t in range(len(head)):
                mask &= M[:, t] <= corner[:, t, None]
            packed.append(np.packbits(mask, axis=1))
        distinct, support_of = _row_ids(np.concatenate(packed))
        starts = np.cumsum([0, *map(len, self.mdegs)]).tolist()
        lasts = [M[a:b, -1].tolist() for a, b in zip(starts, starts[1:])]
        tables = []
        for chunk in range(0, len(distinct), step):
            bits = np.unpackbits(distinct[chunk:chunk + step], axis=1, count=len(M))
            which, rows = np.nonzero(bits)
            ends = np.cumsum(np.bincount(which, minlength=len(bits))).tolist()
            rows = rows.tolist()
            for a, b in zip([0, *ends], ends):
                support = rows[a:b]
                cuts = [bisect_left(support, s) for s in starts]
                levels = [[g - s for g in support[i:j]] for s, i, j in zip(starts, cuts, cuts[1:])]
                tables.append(self._slice_homology(levels, lasts, apparent, p))
        for prefix, support in zip(prefixes, support_of.tolist()):
            for k, h in enumerate(tables[support]):
                if any(h):
                    yield (*prefix, k), h

    def _slice_homology(self, support: list, lasts: list, apparent: list, p: int) -> list:
        """h per level at each last value, for the slice spanned by the rows
        support[i] of each level i, with lasts[i][r] the last coordinate of
        row r of level i and apparent[k][c] the low of column c of d_{k+1}
        if that column is apparent, else -1."""
        last = self.grid[-1]
        # rank at each last value: the independent columns at or below it
        ranks = [[0] * len(last)] * (len(support) + 1)
        kept = support[-1]
        for k in reversed(range(len(self.diffs))):
            columns, low, values = self.diffs[k], apparent[k], lasts[k + 1]
            lows, found, rest = {}, [], []
            for c in kept:
                r = low[c]
                if r < 0:
                    rest.append(c)
                else:
                    lows[r] = columns[c]
                    found.append(values[c])
            pivots = modp.pivots([columns[c] for c in rest], p, lows)
            # found: the last coordinates of the independent columns
            found += [values[rest[i]] for i in pivots]
            found.sort()
            ranks[k + 1] = [bisect_right(found, v) for v in last]
            kept = [c for c in support[k] if c not in lows]
        dims = [
            [bisect_right(values, v) for v in last]
            for values in ([level[r] for r in rows] for level, rows in zip(lasts, support))
        ]
        return [
            [dim[k] - ranks[i][k] - ranks[i + 1][k] for i, dim in enumerate(dims)]
            for k in range(len(last))
        ]


def _apparent_lows(columns) -> list:
    """For each column, its largest row r if no column before it has an
    entry in row r, else -1: the apparent pairs (column, r)."""
    seen = set()
    out = []
    for column in columns:
        r = max(column, default=-1)
        out.append(-1 if r in seen else r)
        seen.update(column)
    return out


def _row_ids(rows: np.ndarray) -> tuple:
    """The distinct rows of a 2-d array, and for each row the index of its
    copy among them.  The rows are compared as raw bytes, which sorts far
    faster than np.unique's axis=0."""
    rows = np.ascontiguousarray(rows)
    raw = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return rows[first], inverse.reshape(-1)


def _multidegree_blocks(C: GradedFreeComplex) -> list:
    """Split a single-term complex into its connected multigraded components.

    Raises NoFiniteDecision when some entry has more than one term, or when
    the entries admit no consistent multigrading.  A column key whose
    exponents do not match the ring raises DimensionMismatch; a row outside
    the target module, a column count other than the source's rank, or a
    coefficient that is zero mod p raises ValueError.
    """
    spec = C.spec
    n, p = spec.num_vars, spec.char
    nodes = [(i, g) for i, m in enumerate(C.modules) for g in range(m.rank)]
    adj = {node: [] for node in nodes}
    for k, columns in enumerate(C.diffs):
        rank = C.modules[k].rank
        if len(columns) != C.modules[k + 1].rank:
            raise ValueError(
                f"d_{k + 1} has {len(columns)} columns for rank {C.modules[k + 1].rank}"
            )
        for c, column in enumerate(columns):
            rows = set()
            for (r, mon), coeff in column.items():
                if len(mon) != n:
                    raise DimensionMismatch(
                        f"monomial has {len(mon)} exponents, ring has {n} variables"
                    )
                if not 0 <= r < rank:
                    raise ValueError(f"row {r} of d_{k + 1} out of range for rank {rank}")
                if not coeff % p:
                    raise ValueError(f"zero coefficient in d_{k + 1} at ({r}, {c})")
                if r in rows:
                    raise NoFiniteDecision(
                        "an entry has more than one term, so the complex does not "
                        "split into multidegree blocks"
                    )
                rows.add(r)
                # source gen (k+1, c) sits at target multidegree plus exp(mon)
                adj[(k + 1, c)].append(((k, r), mon, +1))
                adj[(k, r)].append(((k + 1, c), mon, -1))

    multideg = {}
    components = []
    for root in nodes:
        if root in multideg:
            continue
        comp_nodes = [root]
        multideg[root] = (0,) * n
        queue = [root]
        while queue:
            cur = queue.pop()
            for nb, mon, sgn in adj[cur]:
                want = tuple(
                    m - sgn * e for m, e in zip(multideg[cur], mon)
                )
                if nb in multideg:
                    if multideg[nb] != want:
                        raise NoFiniteDecision("the entries admit no consistent multigrading")
                else:
                    multideg[nb] = want
                    comp_nodes.append(nb)
                    queue.append(nb)
        components.append(comp_nodes)

    weights = spec.weights
    blocks = []
    levels = len(C.modules)
    for comp_nodes in components:
        offsets = {
            C.modules[i].twists[g] - sum(map(mul, multideg[(i, g)], weights))
            for i, g in comp_nodes
        }
        if len(offsets) != 1:
            raise NoFiniteDecision("the entries admit no consistent multigrading")
        local = [[] for _ in range(levels)]
        for i, g in sorted(comp_nodes, key=lambda node: (multideg[node][-1], node)):
            local[i].append(g)
        local_pos = [
            {g: pos for pos, g in enumerate(lv)} for lv in local
        ]
        M = tuple(
            np.array([multideg[(i, g)] for g in lv], dtype=np.int64).reshape(
                len(lv), n
            )
            for i, lv in enumerate(local)
        )
        D = tuple(
            tuple(
                {local_pos[k][r]: coeff for (r, _), coeff in C.diffs[k][c].items()}
                for c in local[k + 1]
            )
            for k in range(levels - 1)
        )
        grid = tuple(tuple(sorted(set(col))) for col in np.concatenate(M).T.tolist())
        blocks.append(_MultidegreeBlock(offsets.pop(), M, D, grid))
    return blocks


def homology_witnesses(C: GradedFreeComplex) -> list:
    """Sorted (i, j, dim) of every grid cell where H_i(C) != 0 with i >= 1.

    Complete with no degree bound, for complexes whose differential entries
    are single terms; any other complex raises NoFiniteDecision.  A cell
    spans [grid[t][k], grid[t][k + 1]) in each coordinate t of its block,
    unbounded at the last value; j is the internal degree of its corner, the
    lowest in the cell, and dim is dim H_i at every multidegree of the cell.

    Why a finite check is complete: such a complex is the direct sum of its
    connected components, and each component is Z^n-graded with generator g
    at a multidegree m(g).  Its strand at a multidegree a is spanned by the
    generators with m(g) <= a, with the differential restricted from the
    component's scalar matrix, so the strand depends on a only through the
    set S(a) = {g : m(g) <= a}.  Rounding each coordinate a_t down to the
    largest value m(g)_t <= a_t that occurs leaves S(a) unchanged, and if no
    value occurs below a_t then S(a) is empty.  So every strand already
    occurs at a point of the product grid of the coordinate values
    {m(g)_t}, the corner of its cell (the argument behind the lcm-lattice
    theorem of Gasharov, Peeva and Welker, Math. Res. Lett. 6, 1999).

    The grid is walked a slice at a time.  The strands are nested: for
    a <= a' the generators of S(a) span a subcomplex of the strand at a',
    because a nonzero entry d[r][c] forces m(r) <= m(c).  So along the last
    coordinate, with the first n - 1 fixed, each strand's differential is a
    column prefix of the slice's matrix, and one sparse column reduction per
    differential (modp.pivots, whatever the block's size) gives every
    strand's rank as a count of independent columns (the persistence
    reduction of Zomorodian and Carlsson, "Computing persistent homology",
    DCG 33, 2005).  The supports of all slices come from one batched mask
    per block, and each distinct support is reduced once, top differential
    first, with clearing (Chen and Kerber, "Persistent homology computation
    with a twist", EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and
    compress", 2014): the low of each reduced column of d_{k+1} names a
    column of d_k that d o d = 0 makes dependent on the columns before it,
    so it is skipped unreduced and every count is unchanged.  The apparent
    pairs of each differential, found once per block, are independent in
    every slice that holds them and are stored without reduction
    (_MultidegreeBlock.grid_walk has both arguments).  A block whose
    generators all sit at level 0 has no H_i with i >= 1 and is not walked.
    """
    out = []
    for blk in _multidegree_blocks(C):
        if not any(map(len, blk.mdegs[1:])):
            continue  # every generator at level 0: no H_i with i >= 1
        for index, h in blk.grid_walk(C.spec.char):
            if not any(h[1:]):
                continue
            corner = [vals[k] for vals, k in zip(blk.grid, index)]
            j = blk.offset + C.spec.wdeg(corner)
            out.extend((i, j, d) for i, d in enumerate(h) if i and d)
    return sorted(out)
