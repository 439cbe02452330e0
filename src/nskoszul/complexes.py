"""Graded free complexes: hygiene checks, Koszul complexes, tensor
totalization, Taylor complexes, the minimal resolution builder, Betti tables,
and homology on the generator grid.

Homology is computed by exact rank computations over the coefficient field,
on complexes whose differential entries are single terms: such a complex
splits into blocks graded by exponent multidegree, and one walk over the
grid of generator coordinate values, one sparse column reduction per slice
along the last coordinate, lists with no degree bound every grid cell where
some H_i with i >= 1 is nonzero.  A grid point's homology holds on its whole
cell, so the list is finite and complete.  A complex that does not split
raises NoFiniteDecision; the tests cross-check the walk against a dense
expansion of each graded piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import modp
from .gb import minimal_generators, syzygies
from .ring import (
    FreeModuleSpec,
    Polynomial,
    RingSpec,
    mon_lcm,
    mon_quotient,
    monomials_of_wdeg,
)


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

    diffs[k] is the matrix of d_{k+1} (rows indexed by F_k generators, columns
    by F_{k+1} generators), entries homogeneous polynomials.
    """

    spec: RingSpec
    modules: tuple
    diffs: tuple

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def betti_from_twists(self) -> BettiTable:
        d = {}
        for i, mod in enumerate(self.modules):
            for t in mod.twists:
                d[(i, t)] = d.get((i, t), 0) + 1
        return BettiTable.from_dict(d)


def free_hilbert(spec: RingSpec, twists, j: int) -> int:
    return sum(len(monomials_of_wdeg(spec, j - t)) for t in twists)


@dataclass(frozen=True)
class ComplexReport:
    ok: bool
    problems: tuple

    @property
    def first(self):
        return self.problems[0] if self.problems else None


def check_complex(C: GradedFreeComplex) -> ComplexReport:
    """Verify shapes, homogeneity of entries, and d o d = 0."""
    problems = []
    if len(C.diffs) != len(C.modules) - 1:
        problems.append(f"{len(C.diffs)} differentials for {len(C.modules)} modules")
        return ComplexReport(False, tuple(problems))
    for k, mat in enumerate(C.diffs):
        tgt, src = C.modules[k], C.modules[k + 1]
        if len(mat) != tgt.rank or any(len(row) != src.rank for row in mat):
            problems.append(f"d_{k + 1}: matrix shape does not match module ranks")
            continue
        for r in range(tgt.rank):
            for c in range(src.rank):
                entry = mat[r][c]
                if not entry:
                    continue
                want = src.twists[c] - tgt.twists[r]
                if not entry.is_homogeneous() or entry.homogeneous_degree() != want:
                    problems.append(
                        f"d_{k + 1}[{r}][{c}] is not homogeneous of degree {want}"
                    )
    if not problems:
        for k in range(len(C.diffs) - 1):
            a, b = C.diffs[k], C.diffs[k + 1]
            rows = len(a)
            mids = len(b)
            cols = len(b[0]) if b else 0
            for r in range(rows):
                for c in range(cols):
                    acc = Polynomial.zero(C.spec)
                    for m in range(mids):
                        if a[r][m] and b[m][c]:
                            acc = acc + a[r][m] * b[m][c]
                    if acc:
                        problems.append(f"(d_{k + 1} o d_{k + 2})[{r}][{c}] != 0")
    return ComplexReport(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# standard complexes


def koszul_complex(spec: RingSpec, var_idxs) -> GradedFreeComplex:
    """Exterior-algebra complex on the chosen variables, standard signs."""
    vs = tuple(sorted(set(var_idxs)))
    if not vs:
        raise ValueError("need a non-empty set of variables")
    if any(not 0 <= v < spec.num_vars for v in vs):
        raise ValueError(f"variable indices out of range: {vs}")
    k = len(vs)
    subsets = [list(combinations(vs, i)) for i in range(k + 1)]
    modules = [
        FreeModuleSpec(tuple(sum(spec.weights[v] for v in T) for T in level))
        for level in subsets
    ]
    diffs = []
    for i in range(1, k + 1):
        tgt_index = {T: r for r, T in enumerate(subsets[i - 1])}
        mat = [
            [Polynomial.zero(spec) for _ in subsets[i]] for _ in subsets[i - 1]
        ]
        for c, T in enumerate(subsets[i]):
            for pos, t in enumerate(T):
                rest = T[:pos] + T[pos + 1:]
                r = tgt_index[rest]
                sign = 1 if pos % 2 == 0 else -1
                mat[r][c] = mat[r][c] + Polynomial.term(spec, spec.variable(t), sign)
        diffs.append(tuple(tuple(row) for row in mat))
    return GradedFreeComplex(spec, tuple(modules), tuple(diffs))


def totalize_tensor(F: GradedFreeComplex, G: GradedFreeComplex) -> GradedFreeComplex:
    """Total complex of F (x) G with the sign (-1)^i on the G-differential."""
    if F.spec != G.spec:
        raise ValueError("complexes live over different rings")
    spec = F.spec
    lmax = F.length + G.length
    gens = []
    index = []
    for k in range(lmax + 1):
        level = []
        for i in range(max(0, k - G.length), min(k, F.length) + 1):
            j = k - i
            for a in range(F.modules[i].rank):
                for b in range(G.modules[j].rank):
                    level.append((i, a, b))
        gens.append(level)
        index.append({g: pos for pos, g in enumerate(level)})
    modules = tuple(
        FreeModuleSpec(
            tuple(
                F.modules[i].twists[a] + G.modules[k - i].twists[b]
                for (i, a, b) in gens[k]
            )
        )
        for k in range(lmax + 1)
    )
    diffs = []
    for k in range(1, lmax + 1):
        mat = [
            [Polynomial.zero(spec) for _ in gens[k]] for _ in gens[k - 1]
        ]
        for c, (i, a, b) in enumerate(gens[k]):
            j = k - i
            if i >= 1:
                dF = F.diffs[i - 1]
                for a2 in range(F.modules[i - 1].rank):
                    entry = dF[a2][a]
                    if entry:
                        r = index[k - 1][(i - 1, a2, b)]
                        mat[r][c] = mat[r][c] + entry
            if j >= 1:
                dG = G.diffs[j - 1]
                sign = 1 if i % 2 == 0 else -1
                for b2 in range(G.modules[j - 1].rank):
                    entry = dG[b2][b]
                    if entry:
                        r = index[k - 1][(i, a, b2)]
                        mat[r][c] = mat[r][c] + entry.scale(sign)
        diffs.append(tuple(tuple(row) for row in mat))
    return GradedFreeComplex(spec, modules, tuple(diffs))


def taylor_complex(spec: RingSpec, mons) -> GradedFreeComplex:
    """Taylor complex of a monomial generating set (resolves the ideal).

    Exponential in the number of generators; used as an independent test
    oracle for the resolution engine, not on hot paths.
    """
    mons = [tuple(m) for m in mons]
    r = len(mons)
    if r == 0 or r > 12:
        raise ValueError("taylor_complex supports 1..12 generators")

    def set_lcm(S):
        acc = mons[S[0]]
        for s in S[1:]:
            acc = mon_lcm(acc, mons[s])
        return acc

    subsets = [list(combinations(range(r), i + 1)) for i in range(r)]
    modules = [
        FreeModuleSpec(tuple(spec.wdeg(set_lcm(S)) for S in level))
        for level in subsets
    ]
    diffs = []
    for i in range(1, r):
        tgt_index = {S: k for k, S in enumerate(subsets[i - 1])}
        mat = [
            [Polynomial.zero(spec) for _ in subsets[i]] for _ in subsets[i - 1]
        ]
        for c, S in enumerate(subsets[i]):
            lc = set_lcm(S)
            for pos, s in enumerate(S):
                rest = S[:pos] + S[pos + 1:]
                rr = tgt_index[rest]
                q = mon_quotient(lc, set_lcm(rest))
                sign = 1 if pos % 2 == 0 else -1
                mat[rr][c] = mat[rr][c] + Polynomial.term(spec, q, sign)
        diffs.append(tuple(tuple(row) for row in mat))
    return GradedFreeComplex(spec, tuple(modules), tuple(diffs))


# ---------------------------------------------------------------------------
# resolutions


def resolve_module(gens, minimize: bool = True) -> GradedFreeComplex:
    """Minimal free resolution of the submodule generated by homogeneous gens.

    Each level is a minimal generating set (minimal_generators) of the
    Schreyer syzygies of the level before, so the resolution is minimal and,
    by Hilbert's syzygy theorem, ends within num_vars steps.  Only the minimal
    resolution is computed: minimize=False raises ValueError, and the keyword
    takes no other value.

    The minimal resolution has no unit entry.  A unit entry u in row r of a
    syzygy s would give u g_r = -sum of s_k g_k over k != r, where every g_k
    with a unit coefficient has the degree of g_r and every other one a lower
    degree.  The last kept of the generators with unit coefficients would
    then lie in the graded span of generators kept before it, which
    minimal_generators rules out (graded Nakayama).  linear_part still
    refuses a unit entry.

    Each differential is built in one pass over every syzygy's terms; the
    entries a syzygy does not reach are one shared zero Polynomial, which no
    caller mutates.
    """
    if not minimize:
        raise ValueError("resolve_module computes only the minimal resolution")
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    spec = gens[0].spec
    current = minimal_generators(gens)
    modules = [FreeModuleSpec(tuple(g.homogeneous_degree() for g in current))]
    diffs = []
    zero = Polynomial.zero(spec)
    for _ in range(spec.num_vars + 2):
        syz = minimal_generators(syzygies(current)[0])
        if not syz:
            break
        rows = [[zero] * len(syz) for _ in current]
        for col, s in enumerate(syz):
            parts = {}
            for (comp, m), c in s.coeffs.items():
                parts.setdefault(comp, {})[m] = c
            for comp, terms in parts.items():
                rows[comp][col] = Polynomial(spec, terms, _clean=True)
        diffs.append(tuple(map(tuple, rows)))
        modules.append(FreeModuleSpec(tuple(s.homogeneous_degree() for s in syz)))
        current = syz
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
        (modp.pivots) with last coordinate <= v.  A slice depends only on
        its support, so it is reduced once per distinct support.
        """
        last = self.grid[-1]
        zero = np.zeros(len(last), dtype=np.int64)
        slices = {}
        for prefix in product(*(range(len(vals)) for vals in self.grid[:-1])):
            corner = [vals[k] for vals, k in zip(self.grid, prefix)]
            masks = [np.all(M[:, :-1] <= corner, axis=1) for M in self.mdegs]
            key = np.concatenate(masks).tobytes()
            table = slices.get(key)
            if table is None:
                lasts = [M[mask, -1] for M, mask in zip(self.mdegs, masks)]
                # rank at each last value: the independent columns at or below it
                ranks = [zero]
                for k, columns in enumerate(self.diffs):
                    support = [columns[c] for c in np.flatnonzero(masks[k + 1])]
                    pivots = modp.pivots(support, p)
                    ranks.append(np.searchsorted(lasts[k + 1][pivots], last, "right"))
                ranks.append(zero)
                table = slices[key] = np.array(
                    [
                        np.searchsorted(lv, last, "right") - ranks[i] - ranks[i + 1]
                        for i, lv in enumerate(lasts)
                    ]
                ).T.tolist()
            for k, h in enumerate(table):
                if any(h):
                    yield (*prefix, k), h


def _multidegree_blocks(C: GradedFreeComplex) -> list:
    """Split a single-term complex into its connected multigraded components.

    Raises NoFiniteDecision when some entry has more than one term, or when
    the entries admit no consistent multigrading.
    """
    spec = C.spec
    n = spec.num_vars
    # per level: (row, col) -> (monomial, coeff)
    term_data = []
    for mat in C.diffs:
        entries = {}
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if not entry:
                    continue
                if len(entry.coeffs) != 1:
                    raise NoFiniteDecision(
                        "an entry has more than one term, so the complex does not "
                        "split into multidegree blocks"
                    )
                ((mon, coeff),) = entry.coeffs.items()
                entries[(r, c)] = (mon, coeff)
        term_data.append(entries)

    nodes = [(i, g) for i, m in enumerate(C.modules) for g in range(m.rank)]
    adj = {node: [] for node in nodes}
    for k, entries in enumerate(term_data):
        for (r, c), (mon, _) in entries.items():
            # source gen (k+1, c) sits at target multidegree plus exp(mon)
            adj[(k + 1, c)].append(((k, r), mon, +1))
            adj[(k, r)].append((((k + 1), c), mon, -1))

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

    wdeg = spec.wdeg
    blocks = []
    levels = len(C.modules)
    for comp_nodes in components:
        offsets = {
            C.modules[i].twists[g] - wdeg(multideg[(i, g)]) for i, g in comp_nodes
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
        D = []
        for k in range(levels - 1):
            columns = [{} for _ in local[k + 1]]
            for (r, c), (_, coeff) in term_data[k].items():
                if c in local_pos[k + 1]:
                    columns[local_pos[k + 1][c]][local_pos[k][r]] = coeff
            D.append(tuple(columns))
        grid = tuple(tuple(sorted(set(col))) for col in np.concatenate(M).T.tolist())
        blocks.append(_MultidegreeBlock(offsets.pop(), M, tuple(D), grid))
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
    DCG 33, 2005).
    """
    out = []
    for blk in _multidegree_blocks(C):
        for index, h in blk.grid_walk(C.spec.char):
            corner = [vals[k] for vals, k in zip(blk.grid, index)]
            j = blk.offset + C.spec.wdeg(corner)
            out.extend((i, j, d) for i, d in enumerate(h) if i and d)
    return sorted(out)
