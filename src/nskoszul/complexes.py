"""Graded free complexes: hygiene checks, minimization, Koszul complexes,
tensor totalization, Taylor complexes, the resolution builder, homology
dimensions, and Betti tables.

Homology dimensions are computed degreewise by exact rank computations over
the coefficient field.  When every differential entry is a single term the
complex splits into finite blocks indexed by exponent multidegrees and the
ranks are taken blockwise; otherwise the graded pieces are expanded densely.
Both routes produce identical numbers and are cross-checked in the tests.
For single-term complexes the same blocks also decide, with no degree bound,
whether all homology in positive homological degrees vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import modp
from .gb import buchberger, graded_basis, minimal_generators, syzygies
from .ring import (
    FreeModuleSpec,
    Polynomial,
    RingSpec,
    mon_lcm,
    mon_mul,
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

    def rank(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(r for ii, _, r in self.entries if ii == i)

    def max_hom(self) -> int:
        return max((i for i, _, _ in self.entries), default=-1)

    def max_internal(self) -> int:
        return max((j for _, j, _ in self.entries), default=-1)

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


def alternating_betti_series(table: BettiTable, bound: int) -> list:
    """Coefficients of sum_i (-1)^i sum_j beta_ij t^j, up to t^bound."""
    out = [0] * (bound + 1)
    for i, j, r in table.entries:
        if j <= bound:
            out[j] += r if i % 2 == 0 else -r
    return out

def truncated_series_product(a: list, b: list, bound: int) -> list:
    out = [0] * (bound + 1)
    for i, x in enumerate(a[: bound + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: bound + 1 - i]):
            out[i + j] += x * y
    return out


def one_minus_t_power(n: int, bound: int) -> list:
    from math import comb

    return [((-1) ** k) * comb(n, k) if k <= n else 0 for k in range(bound + 1)]


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

    def differential(self, i: int):
        """Matrix of d_i : F_i -> F_{i-1} (1-based homological index)."""
        return self.diffs[i - 1]

    def betti_from_twists(self) -> BettiTable:
        d = {}
        for i, mod in enumerate(self.modules):
            for t in mod.twists:
                d[(i, t)] = d.get((i, t), 0) + 1
        return BettiTable.from_dict(d)

    def module_hilbert(self, i: int, j: int) -> int:
        return free_hilbert(self.spec, self.modules[i].twists, j)


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


def minimize_complex(C: GradedFreeComplex) -> GradedFreeComplex:
    """Cancel unit entries until none remain; quasi-isomorphic minimal model.

    Pivot choice is the lexicographically smallest (differential index, row,
    column) among unit entries, so the output is deterministic.
    """
    spec = C.spec
    mods = [list(m.twists) for m in C.modules]
    mats = [[list(row) for row in mat] for mat in C.diffs]
    p = spec.char

    def find_unit():
        for k, mat in enumerate(mats):
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if entry and entry.is_constant():
                        return k, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        k, r, c = hit
        mat = mats[k]
        u = mat[r][c].constant_value()
        uinv = pow(u, -1, p)
        col = [mat[rr][c] for rr in range(len(mat))]
        rowvec = mat[r]
        new_mat = []
        for rr in range(len(mat)):
            if rr == r:
                continue
            new_row = []
            for cc in range(len(rowvec)):
                if cc == c:
                    continue
                correction = (col[rr] * rowvec[cc]).scale(uinv)
                new_row.append(mat[rr][cc] - correction)
            new_mat.append(new_row)
        mats[k] = new_mat
        if k + 1 < len(mats):
            mats[k + 1] = [row for rr, row in enumerate(mats[k + 1]) if rr != c]
        if k - 1 >= 0:
            mats[k - 1] = [
                [e for cc, e in enumerate(row) if cc != r] for row in mats[k - 1]
            ]
        mods[k + 1].pop(c)
        mods[k].pop(r)

    while len(mods) > 1 and not mods[-1]:
        mods.pop()
        mats.pop()
    return GradedFreeComplex(
        spec,
        tuple(FreeModuleSpec(tuple(t)) for t in mods),
        tuple(tuple(tuple(row) for row in mat) for mat in mats),
    )


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
    """Free resolution of the submodule generated by homogeneous gens.

    With minimize=True (default) each level's generators are pruned to a
    minimal generating set of the kernel before continuing, so the output is
    the minimal resolution and terminates within num_vars steps.  With
    minimize=False the levels are the reduced Groebner bases of the iterated
    Schreyer syzygies, i.e. a typically non-minimal resolution.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    spec = gens[0].spec
    if minimize:
        level = minimal_generators(gens)
    else:
        level = list(buchberger(gens).generators)
    modules = [FreeModuleSpec(tuple(g.homogeneous_degree() for g in level))]
    diffs = []
    current = level
    cap = spec.num_vars + 2 if minimize else 60
    for _ in range(cap):
        syz, _src = syzygies(current)
        if minimize:
            syz = minimal_generators(syz)
        elif syz:
            syz = list(buchberger(syz).generators)
        if not syz:
            break
        rows = len(current)
        mat = tuple(
            tuple(syz[c].component_poly(r) for c in range(len(syz)))
            for r in range(rows)
        )
        diffs.append(mat)
        modules.append(FreeModuleSpec(tuple(s.homogeneous_degree() for s in syz)))
        current = syz
    else:
        raise RuntimeError("resolution did not terminate within the level cap")
    C = GradedFreeComplex(spec, tuple(modules), tuple(diffs))
    if minimize:
        C = minimize_complex(C)
    return C


# ---------------------------------------------------------------------------
# homology dimensions


def homology_dims(C: GradedFreeComplex, bound: int) -> dict:
    """dim H_i(C)_j for all i and internal degrees j <= bound.

    Returns a dict with the nonzero dimensions only; absent keys are zero.
    Complexes with single-term entries are counted blockwise by exponent
    multidegree; any other complex falls back to the dense expansion of each
    graded piece, which the tests also use as the oracle for the blocks.
    Whether H_{>=1} vanishes at all is decided with no bound by
    positive_homology_vanishes on the grid of generator multidegrees; the
    acyclicity check runs this bounded count only to report witnesses.
    """
    out = _homology_blocks(C, bound)
    return _homology_dense(C, bound) if out is None else out


def _homology_dense(C: GradedFreeComplex, bound: int) -> dict:
    spec = C.spec
    p = spec.char
    min_twist = min((t for m in C.modules for t in m.twists), default=0)
    out = {}
    for j in range(min_twist, bound + 1):
        bases = [graded_basis(spec, m, j) for m in C.modules]
        ranks = [0] * (C.length + 2)
        for i in range(1, C.length + 1):
            rows = {key: idx for idx, key in enumerate(bases[i - 1])}
            cols = bases[i]
            if not rows or not cols:
                continue
            mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
            dmat = C.diffs[i - 1]
            for cidx, (comp, mon) in enumerate(cols):
                for r in range(C.modules[i - 1].rank):
                    entry = dmat[r][comp]
                    for mm, coeff in entry.coeffs.items():
                        mat[rows[(r, mon_mul(mon, mm))], cidx] = coeff
            ranks[i] = modp.rank_mod(mat, p)
        for i in range(C.length + 1):
            h = len(bases[i]) - ranks[i] - ranks[i + 1]
            if h:
                out[(i, j)] = h
    return out


def _term_entries(C: GradedFreeComplex):
    # (level k, row, col) -> (monomial, coeff); None when an entry has >1 term
    out = []
    for mat in C.diffs:
        entries = {}
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if not entry:
                    continue
                if len(entry.coeffs) != 1:
                    return None
                ((mon, coeff),) = entry.coeffs.items()
                entries[(r, c)] = (mon, coeff)
        out.append(entries)
    return out


@dataclass(frozen=True)
class _MultidegreeBlock:
    """One connected component of a complex with single-term entries.

    Level i holds the rows of mdegs[i]: each generator's exponent multidegree
    relative to the component's root.  A generator at multidegree m has
    internal degree wdeg(m) + offset, and diffs[k] is the component's scalar
    matrix of d_{k+1}.  The strand at a multidegree a is spanned by the
    generators with m <= a, one basis vector x^(a - m) each.
    """

    offset: int
    mdegs: tuple
    diffs: tuple

    def strand_homology(self, masks, p: int) -> list:
        """dim H_i of the strand on the generators selected by masks, per level."""
        levels = len(masks)
        dims = [int(mask.sum()) for mask in masks]
        ranks = [0] * (levels + 1)
        for i in range(1, levels):
            if dims[i - 1] and dims[i]:
                block = self.diffs[i - 1][np.ix_(masks[i - 1], masks[i])]
                ranks[i] = _block_rank(block, p)
        return [dims[i] - ranks[i] - ranks[i + 1] for i in range(levels)]


def _multidegree_blocks(C: GradedFreeComplex) -> list | None:
    """Split a single-term complex into its connected multigraded components.

    Returns None when some entry has more than one term, or when the entries
    admit no consistent multigrading.
    """
    spec = C.spec
    n = spec.num_vars
    term_data = _term_entries(C)
    if term_data is None:
        return None

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
                        return None
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
            return None
        local = [[] for _ in range(levels)]
        for i, g in sorted(comp_nodes):
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
            mat = np.zeros((len(local[k]), len(local[k + 1])), dtype=np.int64)
            for (r, c), (_, coeff) in term_data[k].items():
                if r in local_pos[k] and c in local_pos[k + 1]:
                    mat[local_pos[k][r], local_pos[k + 1][c]] = coeff
            D.append(mat)
        blocks.append(_MultidegreeBlock(offsets.pop(), M, tuple(D)))
    return blocks


def _homology_blocks(C: GradedFreeComplex, bound: int) -> dict | None:
    blocks = _multidegree_blocks(C)
    if blocks is None:
        return None
    spec = C.spec
    wdeg = spec.wdeg
    p = spec.char
    out = {}
    for blk in blocks:
        candidates = set()
        for Mi in blk.mdegs:
            for mg in map(tuple, Mi.tolist()):
                cap = bound - blk.offset - wdeg(mg)
                if cap < 0:
                    continue
                for d in range(cap + 1):
                    for beta in monomials_of_wdeg(spec, d):
                        candidates.add(mon_mul(mg, beta))

        for a in sorted(candidates):
            a_arr = np.array(a, dtype=np.int64)
            masks = [np.all(Mi <= a_arr, axis=1) for Mi in blk.mdegs]
            if not any(mask.any() for mask in masks):
                continue
            j = wdeg(a) + blk.offset
            if j > bound:
                continue
            for i, h in enumerate(blk.strand_homology(masks, p)):
                if h:
                    out[(i, j)] = out.get((i, j), 0) + h
    return out


def positive_homology_vanishes(C: GradedFreeComplex) -> bool | None:
    """Is H_i(C) = 0 for every i >= 1, in every internal degree?

    Decided with no degree bound, for complexes whose differential entries
    are single terms; returns None for any other complex.

    Why a finite check is complete: such a complex is the direct sum of its
    connected components, and each component is Z^n-graded with generator g
    at a multidegree m(g).  Its strand at a multidegree a is spanned by the
    generators with m(g) <= a, with the differential restricted from the
    component's scalar matrix, so the strand depends on a only through the
    set S(a) = {g : m(g) <= a}.  Rounding each coordinate a_t down to the
    largest value m(g)_t <= a_t that occurs leaves S(a) unchanged, and if no
    value occurs below a_t then S(a) is empty.  So every strand already
    occurs at a point of the product grid of the coordinate values
    {m(g)_t}, and H_{>=1} vanishes everywhere iff it vanishes at each grid
    point (the argument behind the lcm-lattice theorem of Gasharov, Peeva
    and Welker, Math. Res. Lett. 6, 1999).  Grid points with the same S(a)
    are checked once.
    """
    blocks = _multidegree_blocks(C)
    if blocks is None:
        return None
    p = C.spec.char
    for blk in blocks:
        allm = np.concatenate(blk.mdegs)
        # below[t][k, g]: generator g lies at or below the k-th value of
        # coordinate t; a grid point's support is the AND over coordinates.
        # One slice of the first coordinate at a time bounds the memory.
        below = [
            col[None, :] <= np.array(sorted(set(col.tolist())))[:, None]
            for col in allm.T
        ]
        cuts = np.cumsum([len(Mi) for Mi in blk.mdegs])[:-1]
        seen = set()
        for first in below[0]:
            support = first[None, :]
            for table in below[1:]:
                support = (support[:, None, :] & table[None, :, :]).reshape(
                    -1, allm.shape[0]
                )
            for row in support:
                key = row.tobytes()
                if key in seen:
                    continue
                seen.add(key)
                masks = np.split(row, cuts)
                if not any(mask.any() for mask in masks[1:]):
                    continue
                if any(blk.strand_homology(masks, p)[1:]):
                    return False
    return True


def _block_rank(block: np.ndarray, p: int) -> int:
    if block.size == 0:
        return 0
    if max(block.shape) <= 12:
        return modp.rank_py(block.tolist(), p)
    return modp.rank_mod(block, p)
