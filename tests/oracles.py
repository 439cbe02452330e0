"""Independent computations that the tests use as oracles, the complexes and
modules only the tests build, the label-map invariant of explicit graded
modules, and truncated power-series arithmetic.

No production path reaches these.  Lin homology is decided on multidegree
blocks (``complexes.homology_witnesses``), the Koszul strands likewise
(``egm.betti_via_koszul``) and minimal generators on sparse columns, all
three with the sparse column reduction ``modp.pivots``; the syzygy engine is
checked here against the brute-force span of its output.  Each dense routine
expands every graded piece in full (``graded_basis``) and ranks it with
``rank_mod``, the pivot count of the dense numpy elimination ``pivots_mod``,
or spans it with ``_EchelonSpace``, a dense incremental row echelon form.
``homology_dims`` counts dim H_i(C)_j per degree from the grid walk's cells,
a second reading of the walk that the tests compare with ``homology_dense``.
``slice_walk`` is the grid walk as it was before it batched its supports
and cleared columns: one mask per slice and every supported column
reduced, the reference that the walk must equal on random complexes
(``random_monomial_modules`` draws their ideals and modules).
``minimize_complex`` cancels unit entries, the reference for the minimal
resolution and for the Taylor complexes' minimal models.  The complexes
store each differential as its columns, and every oracle here reads and
writes those columns directly: ``column_entries`` splits a column into its
entries by row, and ``add_multiple`` adds a multiple of one column to another.
``syzygies_reference`` runs the syzygy engine as it was before it packed
its terms into ints, on (component, exponent tuple) terms: the whole
syzygy set of one run of the packed engine, ``syzygies`` here (the seam
over ``gb._Engine``, which packs any homogeneous elements;
``record_engine_runs`` records the runs of a resolution), must be the
same list in the same order.  ``minimal_generators_reference`` is the
minimal-generator selection on (component, monomial) labels over whole
graded pieces (``monomials_of_wdeg``): each level of
``gb.minimal_syzygies``, which spans only the candidates' multidegrees,
must keep the same elements in the same order.
``reduce_max_scan`` is the engines' reduction with the largest term found
by a scan of every remaining term, the reference for the heap order of the
packed engine's reduction.
``labelled_module_scan`` and ``critical_values_scan`` build the label maps
and find the critical values by a dict scan of every label and variable,
the references for the packed label arrays of ``egm``.  ``_array_module``
finds label maps by key search: each label packed into one int64 key
(``egm._PackedLabels``), the keys sorted, and the key of each x_t * m
searched among them; it is the reference for the maps that ``assoc_graded``
reads off its least-divisor table.  A module is its
label arrays; ``module_view`` reads it back as a dict of labels per degree
and one label map per variable, and ``module_from_dicts`` builds one by
hand from such dicts, coefficients included.
``_component_ord_table`` lists ord for every monomial of a window by
comparing each candidate with every generator (``_ords``), and ``ord_scan``
one ord by a scan of the generators: the references for the prefix-minimum
table of ``assoc_graded``.  The modules the tests build with unit label
maps go through the key search (``labelled_module``).  The last section
holds the arithmetic and the views of the ring's, complexes' and modules'
values that only the tests use, as functions (``lead``, ``sub``,
``module_dim``, ...).
"""

import heapq
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import mul

import numpy as np

from nskoszul import gb, modp
from nskoszul.assoc_graded import OrdContext
from nskoszul.complexes import BettiTable, GradedFreeComplex, _multidegree_blocks
from nskoszul.construction import construct_gr_betti
from nskoszul.egm import DegreeRangeError, ExplicitGradedModule, _PackedLabels
from nskoszul.ring import (
    DimensionMismatch,
    FreeElement,
    FreeModuleSpec,
    RingSpec,
    mon_divides,
    mon_lcm,
    term_key,
)
from nskoszul.truncation import trunc_gens


@lru_cache(maxsize=None)
def monomials_of_wdeg(spec: RingSpec, d: int) -> tuple:
    """All monomials of weighted degree exactly d, descending lexicographic."""
    if d < 0:
        return ()
    out = []

    def rec(i: int, rem: int, prefix: tuple):
        if i == spec.num_vars - 1:
            w = spec.weights[i]
            if rem % w == 0:
                out.append(prefix + (rem // w,))
            return
        w = spec.weights[i]
        for e in range(rem // w, -1, -1):
            rec(i + 1, rem - e * w, prefix + (e,))

    rec(0, d, ())
    return tuple(out)


def pivots_mod(mat, p: int) -> list:
    """Pivot columns of an integer matrix over F_p (dense numpy elimination);
    multiplying two residues in int64 needs p < 2**31."""
    a = np.ascontiguousarray(np.asarray(mat, dtype=np.int64)) % p
    if a.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {a.shape}")
    m, n = a.shape
    pivots = []
    if a.size == 0:
        return pivots
    r = 0
    for c in range(n):
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        f = a[r + 1:, c]
        if f.size:
            a[r + 1:, c:] = (a[r + 1:, c:] - np.outer(f, a[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rank_mod(mat, p: int) -> int:
    """Exact rank of an integer matrix over F_p (numpy elimination)."""
    return len(pivots_mod(mat, p))


@lru_cache(maxsize=None)
def graded_basis(spec: RingSpec, ambient: FreeModuleSpec, degree: int):
    """(component, monomial) basis of the degree-d piece of the free module."""
    out = []
    for comp, t in enumerate(ambient.twists):
        for m in monomials_of_wdeg(spec, degree - t):
            out.append((comp, m))
    return tuple(out)


def _expand(v, index: dict) -> np.ndarray:
    """The FreeElement v as a dense vector over the basis positions index."""
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


def homology_dense(C, bound: int) -> dict:
    """dim H_i(C)_j for j <= bound, from the dense matrix of each graded piece."""
    spec = C.spec
    p = spec.char
    min_twist = min((t for m in C.modules for t in m.twists), default=0)
    out = {}
    for j in range(min_twist, bound + 1):
        bases = [graded_basis(spec, m, j) for m in C.modules]
        ranks = [0] * (complex_length(C) + 2)
        for i in range(1, complex_length(C) + 1):
            rows = {key: idx for idx, key in enumerate(bases[i - 1])}
            cols = bases[i]
            if not rows or not cols:
                continue
            mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
            for cidx, (comp, mon) in enumerate(cols):
                for (r, mm), coeff in C.diffs[i - 1][comp].items():
                    mat[rows[(r, mon_mul(mon, mm))], cidx] = coeff
            ranks[i] = rank_mod(mat, p)
        for i in range(complex_length(C) + 1):
            h = len(bases[i]) - ranks[i] - ranks[i + 1]
            if h:
                out[(i, j)] = h
    return out


def slice_walk(blk, p: int) -> list:
    """The (index, h) that blk.grid_walk(p) yields, one slice at a time: each
    slice's support from its own mask, each distinct support reduced once
    per differential from d_1 up, every supported column reduced (no
    clearing), and the ranks counted with searchsorted."""
    last = blk.grid[-1]
    zero = np.zeros(len(last), dtype=np.int64)
    slices = {}
    out = []
    for prefix in product(*(range(len(vals)) for vals in blk.grid[:-1])):
        corner = [vals[k] for vals, k in zip(blk.grid, prefix)]
        masks = [np.all(M[:, :-1] <= corner, axis=1) for M in blk.mdegs]
        key = np.concatenate(masks).tobytes()
        table = slices.get(key)
        if table is None:
            lasts = [M[mask, -1] for M, mask in zip(blk.mdegs, masks)]
            ranks = [zero]
            for k, columns in enumerate(blk.diffs):
                support = [columns[c] for c in np.flatnonzero(masks[k + 1])]
                pivots = modp.pivots(support, p)
                ranks.append(np.searchsorted(lasts[k + 1][pivots], last, "right"))
            ranks.append(zero)
            dims = [np.searchsorted(lv, last, "right") for lv in lasts]
            table = slices[key] = (
                np.array([d - ranks[i] - ranks[i + 1] for i, d in enumerate(dims)]).T.tolist()
            )
        out.extend(((*prefix, k), h) for k, h in enumerate(table) if any(h))
    return out


def homology_dims(C, bound: int) -> dict:
    """dim H_i(C)_j for all i and internal degrees j <= bound, nonzero only.

    Counted on the cells of the grid walk: a grid point's homology holds on
    its whole cell, whose multidegrees of degree j number the coefficient of
    z^j in prod_t sum_k z^(w_t k), k running over the cell's range in
    coordinate t.  A complex that does not split into multidegree blocks
    raises NoFiniteDecision.
    """
    out = {}
    for blk in _multidegree_blocks(C):
        for index, h in blk.grid_walk(C.spec.char):
            # the cell spans [grid[t][k], grid[t][k + 1]) in coordinate t,
            # unbounded at the last value; its corner has its lowest degree
            corner = [vals[k] for vals, k in zip(blk.grid, index)]
            low = blk.offset + C.spec.wdeg(corner)
            if low > bound:
                continue
            top = bound - low
            counts = [1]
            for w, vals, k in zip(C.spec.weights, blk.grid, index):
                span = vals[k + 1] - vals[k] if k + 1 < len(vals) else top + 1
                series = [int(d % w == 0 and d < span * w) for d in range(top + 1)]
                counts = truncated_series_product(counts, series, top)
            for d, count in enumerate(counts):
                for i, hi in enumerate(h):
                    if count and hi:
                        out[(i, low + d)] = out.get((i, low + d), 0) + count * hi
    return out


def minimize_complex(C: GradedFreeComplex) -> GradedFreeComplex:
    """Cancel unit entries until none remain; quasi-isomorphic minimal model.

    Pivot choice is the lexicographically smallest (differential index, row,
    column) among unit entries, so the output is deterministic.
    """
    spec = C.spec
    p = spec.char
    one = spec.one()
    mods = [list(m.twists) for m in C.modules]
    diffs = [list(columns) for columns in C.diffs]

    def find_unit():
        for k, columns in enumerate(diffs):
            units = [
                (r, c)
                for c, column in enumerate(columns)
                for r, entry in column_entries(column).items()
                if set(entry) == {one}
            ]
            if units:
                return (k, *min(units))
        return None

    def drop_row(column, r):
        return {(rr - (rr > r), m): v for (rr, m), v in column.items() if rr != r}

    while (hit := find_unit()) is not None:
        k, r, c = hit
        # d' = d - d[:, c] d[r, :] / d[r, c], without row r and column c
        uinv = pow(diffs[k][c][(r, one)], -1, p)
        pivot = drop_row(diffs[k][c], r)
        new = []
        for cc, column in enumerate(diffs[k]):
            if cc != c:
                out = drop_row(column, r)
                add_multiple(out, pivot, column_entries(column).get(r, {}), -uinv, p)
                new.append(out)
        diffs[k] = new
        if k + 1 < len(diffs):
            diffs[k + 1] = [drop_row(column, c) for column in diffs[k + 1]]
        if k >= 1:
            del diffs[k - 1][r]
        mods[k + 1].pop(c)
        mods[k].pop(r)

    while len(mods) > 1 and not mods[-1]:
        mods.pop()
        diffs.pop()
    modules = tuple(FreeModuleSpec(tuple(t)) for t in mods)
    return GradedFreeComplex(spec, modules, tuple(tuple(d) for d in diffs))


def free_hilbert(spec: RingSpec, twists, j: int) -> int:
    """dim of the degree-j piece of the free module with these twists."""
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
    p = C.spec.char
    for k, columns in enumerate(C.diffs):
        tgt, src = C.modules[k], C.modules[k + 1]
        if len(columns) != src.rank or any(
            not 0 <= r < tgt.rank for column in columns for r, _ in column
        ):
            problems.append(f"d_{k + 1}: matrix shape does not match module ranks")
            continue
        bad = {
            (r, c)
            for c, column in enumerate(columns)
            for (r, m), v in column.items()
            if C.spec.wdeg(m) != src.twists[c] - tgt.twists[r] and v % p
        }
        for r, c in sorted(bad):
            want = src.twists[c] - tgt.twists[r]
            problems.append(f"d_{k + 1}[{r}][{c}] is not homogeneous of degree {want}")
    if not problems:
        for k in range(len(C.diffs) - 1):
            bad = set()
            for c, column in enumerate(C.diffs[k + 1]):
                image = {}
                for mid, entry in column_entries(column).items():
                    add_multiple(image, C.diffs[k][mid], entry, 1, p)
                bad.update((r, c) for r, _ in image)
            for r, c in sorted(bad):
                problems.append(f"(d_{k + 1} o d_{k + 2})[{r}][{c}] != 0")
    return ComplexReport(not problems, tuple(problems))


def boundary_columns(spec: RingSpec, lower, upper, quotient) -> tuple:
    """Columns of the simplicial boundary from the tuples upper to the tuples
    lower: dropping entry pos of S gives the term (-1)^pos quotient(S, pos)."""
    index = {T: r for r, T in enumerate(lower)}
    return tuple(
        {
            (index[S[:pos] + S[pos + 1:]], quotient(S, pos)): (-1) ** pos % spec.char
            for pos in range(len(S))
        }
        for S in upper
    )


def koszul_complex(spec: RingSpec, var_idxs) -> GradedFreeComplex:
    """Exterior-algebra complex on the chosen variables, standard signs."""
    vs = tuple(sorted(set(var_idxs)))
    if not vs:
        raise ValueError("need a non-empty set of variables")
    if any(not 0 <= v < spec.num_vars for v in vs):
        raise ValueError(f"variable indices out of range: {vs}")
    k = len(vs)
    subsets = [list(combinations(vs, i)) for i in range(k + 1)]
    modules = tuple(
        FreeModuleSpec(tuple(sum(spec.weights[v] for v in T) for T in level))
        for level in subsets
    )
    diffs = tuple(
        boundary_columns(
            spec, subsets[i - 1], subsets[i], lambda T, pos: mon_var(spec.num_vars, T[pos])
        )
        for i in range(1, k + 1)
    )
    return GradedFreeComplex(spec, modules, diffs)


def totalize_tensor(F: GradedFreeComplex, G: GradedFreeComplex) -> GradedFreeComplex:
    """Total complex of F (x) G with the sign (-1)^i on the G-differential."""
    if F.spec != G.spec:
        raise ValueError("complexes live over different rings")
    spec = F.spec
    p = spec.char
    lmax = complex_length(F) + complex_length(G)
    gens = []
    index = []
    for k in range(lmax + 1):
        level = []
        for i in range(max(0, k - complex_length(G)), min(k, complex_length(F)) + 1):
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
        columns = []
        for i, a, b in gens[k]:
            j = k - i
            column = {}
            if i >= 1:
                for (a2, m), v in F.diffs[i - 1][a].items():
                    column[(index[k - 1][(i - 1, a2, b)], m)] = v
            if j >= 1:
                for (b2, m), v in G.diffs[j - 1][b].items():
                    column[(index[k - 1][(i, a, b2)], m)] = (-1) ** i * v % p
            columns.append(column)
        diffs.append(tuple(columns))
    return GradedFreeComplex(spec, modules, tuple(diffs))


def taylor_complex(spec: RingSpec, mons) -> GradedFreeComplex:
    """Taylor complex of a monomial generating set (resolves the ideal).

    Exponential in the number of generators: a non-minimal resolution that
    checks the resolution engine and feeds the grid walk."""
    mons = [tuple(m) for m in mons]
    r = len(mons)
    if r == 0 or r > 12:
        raise ValueError("taylor_complex supports 1..12 generators")

    def set_lcm(S):
        acc = mons[S[0]]
        for s in S[1:]:
            acc = mon_lcm(acc, mons[s])
        return acc

    def quotient(S, pos):
        return mon_quotient(set_lcm(S), set_lcm(S[:pos] + S[pos + 1:]))

    subsets = [list(combinations(range(r), i + 1)) for i in range(r)]
    modules = tuple(
        FreeModuleSpec(tuple(spec.wdeg(set_lcm(S)) for S in level))
        for level in subsets
    )
    diffs = tuple(
        boundary_columns(spec, subsets[i - 1], subsets[i], quotient) for i in range(1, r)
    )
    return GradedFreeComplex(spec, modules, diffs)


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
    """Coefficients of (1 - t)^n up to t^bound."""
    return [((-1) ** k) * comb(n, k) if k <= n else 0 for k in range(bound + 1)]


def one_minus_t_powers(weights, bound: int) -> list:
    """Coefficients of prod_k (1 - t^{w_k}) up to t^bound."""
    out = [1] + [0] * bound
    for w in weights:
        out = [out[d] - (out[d - w] if d >= w else 0) for d in range(bound + 1)]
    return out


def betti_dense(M, bound: int) -> BettiTable:
    """beta_ij = dim H_i(Koszul (x) M)_j for j <= bound, from the dense
    strand of each internal degree, built from action_matrix."""
    spec = M.spec
    n = spec.num_vars
    p = spec.char
    view = module_view(M)
    degrees = view[0]
    subsets = [list(combinations(range(n), size)) for size in range(n + 1)]
    actions = {}  # (t, degree) -> action_matrix(M, t, degree)
    out = {}
    for j in range(min(degrees, default=0), bound + 1):
        # cells e_T (x) basis(j - w(T)), in the order of subsets, then basis
        bases = [
            [
                (T, idx)
                for T in level
                for idx in range(len(degrees.get(j - sum(spec.weights[t] for t in T), ())))
            ]
            for level in subsets
        ]
        index = [{cell: k for k, cell in enumerate(level)} for level in bases]
        ranks = [0] * (n + 2)
        for size in range(1, n + 1):
            if not bases[size] or not bases[size - 1]:
                continue
            mat = np.zeros((len(bases[size - 1]), len(bases[size])), dtype=np.int64)
            for cidx, (T, vidx) in enumerate(bases[size]):
                mdeg = j - sum(spec.weights[t] for t in T)
                for posn, t in enumerate(T):
                    rest = T[:posn] + T[posn + 1:]
                    sign = 1 if posn % 2 == 0 else -1
                    if (t, mdeg) not in actions:
                        actions[t, mdeg] = _action_matrix(spec, view, t, mdeg)
                    column = actions[t, mdeg][:, vidx]
                    for r in np.nonzero(column)[0]:
                        ridx = index[size - 1][(rest, int(r))]
                        mat[ridx, cidx] = (mat[ridx, cidx] + sign * int(column[r])) % p
            ranks[size] = rank_mod(mat, p)
        for size in range(n + 1):
            h = len(bases[size]) - ranks[size] - ranks[size + 1]
            if h:
                out[(size, j)] = h
    return BettiTable.from_dict(out)


def action_matrix(M, var: int, j: int) -> np.ndarray:
    """The matrix of x_var on M from basis(j) to basis(j + w_var)."""
    return _action_matrix(M.spec, module_view(M), var, j)


def _action_matrix(spec: RingSpec, view: tuple, var: int, j: int) -> np.ndarray:
    degrees, actions = view
    target = degrees.get(j + spec.weights[var], ())
    rows = {lb: r for r, lb in enumerate(target)}
    cols = degrees.get(j, ())
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    image = actions[var]
    for c, lb in enumerate(cols):
        coeff = image.get(lb)
        if coeff is not None:
            comp, m = lb
            mat[rows[comp, m[:var] + (m[var] + 1,) + m[var + 1:]], c] = coeff
    return mat


def commuting_violations(M) -> list:
    """(s, t, j) for each pair of variables whose composed actions on M differ
    from degree j (should be empty); the products are taken in int64."""
    bad = []
    spec = M.spec
    n = spec.num_vars
    view = module_view(M)
    for s in range(n):
        for t in range(s + 1, n):
            ws, wt = spec.weights[s], spec.weights[t]
            for j in list(view[0]):
                if j + ws + wt > M.bound:
                    continue
                a = _action_matrix(spec, view, t, j + ws) @ _action_matrix(spec, view, s, j)
                b = _action_matrix(spec, view, s, j + wt) @ _action_matrix(spec, view, t, j)
                if ((a - b) % spec.char).any():
                    bad.append((s, t, j))
    return bad


def check_label_maps(M) -> None:
    """Assert the label-map invariant of an ExplicitGradedModule on its dict
    view: each label stored once, one map per variable, every key a stored
    label m of some degree j, its image x_t m a stored label of degree
    j + w_t, and every coefficient nonzero mod p."""
    spec = M.spec
    n = spec.num_vars
    degrees, actions = module_view(M)
    degree_of = {}
    for j, labels in degrees.items():
        for lb in labels:
            assert lb not in degree_of, f"{lb} is stored twice"
            degree_of[lb] = j
    assert len(actions) == n, f"{len(actions)} label maps for {n} variables"
    for t, image in enumerate(actions):
        for lb, coeff in image.items():
            assert lb in degree_of, f"x_{t} acts on {lb}, which is not a stored label"
            comp, m = lb
            target = (comp, mon_mul(m, mon_var(n, t)))
            want = degree_of[lb] + spec.weights[t]
            assert degree_of.get(target) == want, (
                f"x_{t} sends {lb} to {target}, not a stored label of degree {want}"
            )
            assert coeff % spec.char, f"x_{t} acts on {lb} with coefficient {coeff} = 0 mod p"


def module_labels(M) -> list:
    """M's labels (component, monomial), in the order its arrays store them."""
    return list(zip(M.comp.tolist(), map(tuple, M.exps.tolist())))


def module_view(M) -> tuple:
    """(degrees, actions), the dict view of M.  degrees maps each degree
    that has a label, in increasing order, to the tuple of its labels
    (component, monomial), sorted by component and then by reversed
    exponents; actions[t] maps each label, in that order, that x_t does not
    send to zero to the coefficient c of x_t * m = c * (x_t m)."""
    # by degree, then component, then m_{n-1}, ..., m_0
    order = np.lexsort((*M.exps.T, M.comp, M.deg))
    labels = list(zip(M.comp[order].tolist(), map(tuple, M.exps[order].tolist())))
    degrees = {}
    for j, lb in zip(M.deg[order].tolist(), labels):
        degrees.setdefault(j, []).append(lb)
    degrees = {j: tuple(lbs) for j, lbs in degrees.items()}
    actions = []
    for coef in M.coef[order].T:
        acting = np.flatnonzero(coef).tolist()
        actions.append(dict(zip([labels[i] for i in acting], coef[acting].tolist())))
    return degrees, tuple(actions)


def label_arrays(spec: RingSpec, degrees: dict) -> tuple:
    """The component, exponent and degree arrays of a degrees dict's labels,
    in the order listed."""
    labels = [lb for labels in degrees.values() for lb in labels]
    count = len(labels)
    sizes = [len(labels) for labels in degrees.values()]
    deg = np.repeat(np.fromiter(degrees, np.int64, len(degrees)), sizes)
    comp = np.fromiter((c for c, _ in labels), np.int64, count)
    monomials = (e for _, m in labels for e in m)
    exps = np.fromiter(monomials, np.int64, count * spec.num_vars).reshape(count, spec.num_vars)
    return comp, exps, deg


def module_from_dicts(
    spec: RingSpec, bound: int, degrees: dict, actions, corner: tuple | None = None
) -> ExplicitGradedModule:
    """The module on the (component, monomial) labels listed per degree, in
    that order, with the label maps actions: actions[t][m] = c means
    x_t * m = c * (x_t m).  A label absent from actions[t], or with c = 0
    mod p, is sent to zero by x_t.  Raises ValueError when a label is listed
    twice or a map acts on a label not listed; an image x_t m that is not a
    label one weight up is kept, for check_label_maps to find."""
    comp, exps, deg = label_arrays(spec, degrees)
    index = {}
    for i, lb in enumerate(lb for labels in degrees.values() for lb in labels):
        if index.setdefault(lb, i) != i:
            raise ValueError(f"label {lb} is stored twice")
    p = spec.char
    coef = np.zeros(exps.shape, dtype=np.int64)
    reached = np.zeros(exps.shape, dtype=bool)
    for t, image in enumerate(actions):
        acting = {}
        for lb, c in image.items():
            if lb not in index:
                raise ValueError(f"x_{t} acts on {lb}, which is not a stored label")
            if c % p:
                acting[lb] = c % p
        coef[[index[lb] for lb in acting], t] = list(acting.values())
        images = ((part, m[:t] + (m[t] + 1,) + m[t + 1:]) for part, m in acting)
        reached[[index[lb] for lb in images if lb in index], t] = True
    return ExplicitGradedModule(spec, bound, comp, deg, exps, coef, reached, corner)


def monomial_module(spec: RingSpec, gens, twists=None, bound: int = 0) -> ExplicitGradedModule:
    """The monomial submodule generated by gens, stored up to internal degree bound.

    gens may be plain monomials (ideal case) or (component, monomial) pairs;
    twists lists the generator degrees of the ambient free module.
    """
    twists = tuple(twists) if twists is not None else (0,)
    by_comp = {}
    for comp, m in map(spec.label, gens):
        if not 0 <= comp < len(twists):
            raise ValueError(f"component {comp} out of range")
        by_comp.setdefault(comp, []).append(m)

    degrees = {}
    for j in range(min(twists), bound + 1):
        for comp, t in enumerate(twists):
            gens_c = by_comp.get(comp, ())
            if not gens_c:
                continue
            for m in monomials_of_wdeg(spec, j - t):
                if any(mon_divides(u, m) for u in gens_c):
                    degrees.setdefault(j, []).append((comp, m))
    return labelled_module(spec, bound, degrees)


def labelled_module(
    spec: RingSpec, bound: int, degrees: dict, corner: tuple | None = None
) -> ExplicitGradedModule:
    """The module on the given (component, monomial) labels per degree, with
    the label maps found by key search (_array_module)."""
    return _array_module(spec, bound, *label_arrays(spec, degrees), corner)


def _array_module(
    spec: RingSpec,
    bound: int,
    comp: np.ndarray,
    exps: np.ndarray,
    deg: np.ndarray,
    corner: tuple | None = None,
) -> ExplicitGradedModule:
    """The module on labels given as arrays: label i is (comp[i], exps[i]) of
    degree deg[i], and x_t sends a label to x_t * label, with coefficient 1,
    when that is a label of degree deg[i] + w_t, else to zero.

    The label maps are found by key search, the reference for the
    least-divisor table reads of assoc_graded: each label is packed into one
    mixed-radix int64 key (egm._PackedLabels), in which x_t * m is key +
    strides[t]; the keys are sorted, and each image key is searched among
    them.  Raises ValueError when a label is listed twice or the exponents
    are too large for 64-bit keys."""
    packed = _PackedLabels(comp, exps)
    order = np.argsort(packed.key, kind="stable")
    keys = packed.key[order]
    twice = np.flatnonzero(keys[1:] == keys[:-1])
    if len(twice):
        i = order[twice[0]]
        raise ValueError(f"label {(int(comp[i]), tuple(exps[i].tolist()))} is stored twice")
    coef = np.zeros(exps.shape, dtype=np.uint8)
    reached = np.zeros(exps.shape, dtype=bool)
    for t, w in enumerate(spec.weights):
        wanted = packed.key + packed.strides[t]
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        image = np.where(keys[pos] == wanted, order[pos], -1)
        hit = (image >= 0) & (deg[image] == deg + w)
        coef[:, t] = hit
        reached[image[hit], t] = True
    return ExplicitGradedModule(spec, bound, comp, deg, exps, coef, reached, corner)


def labelled_module_scan(spec: RingSpec, degrees: dict) -> tuple:
    """The dict view (module_view) of labelled_module by a dict scan of every
    label and variable: each degree that has a label, in increasing order,
    with its labels sorted by component and then reversed exponents, and x_t
    sending a label m of degree j to x_t m when that is a label of degree
    j + w_t.  A label listed in two degrees is kept under both."""
    final = {}
    degree_of = {}
    for j in sorted(degrees):
        if not degrees[j]:
            continue
        final[j] = tuple(sorted(degrees[j], key=lambda lb: (lb[0], tuple(reversed(lb[1])))))
        for lb in final[j]:
            degree_of[lb] = j
    actions = tuple({} for _ in spec.weights)
    for lb, j in degree_of.items():
        comp, m = lb
        for t, w in enumerate(spec.weights):
            if degree_of.get((comp, m[:t] + (m[t] + 1,) + m[t + 1:])) == j + w:
                actions[t][lb] = 1
    return final, actions


def critical_values_scan(M, bound: int) -> list:
    """The critical values of egm._critical_labels by a scan of every label
    and variable: c for t when a label of degree <= bound with exponent c in
    t has no x_t-preimage, c + 1 when such a label of degree <= bound - w_t
    is sent to zero, and on a corner window none above corner_t."""
    n = M.spec.num_vars
    weights = M.spec.weights
    degrees, maps = module_view(M)
    crit = [set() for _ in range(n)]
    for j, labels in degrees.items():
        if j > bound:
            continue
        for lb in labels:
            comp, m = lb
            for t in range(n):
                c = m[t]
                if not c or (comp, m[:t] + (c - 1,) + m[t + 1:]) not in maps[t]:
                    crit[t].add(c)
                if j + weights[t] <= bound and lb not in maps[t]:
                    crit[t].add(c + 1)
    if M.corner is not None:
        crit = [{c for c in values if c <= top} for values, top in zip(crit, M.corner)]
    return crit


class SubringError(ValueError):
    """The module's ring is not a prefix subring of the target ring."""


def extend_gr(M: ExplicitGradedModule, full: RingSpec) -> ExplicitGradedModule:
    """View a module over a prefix subring as a module over the bigger ring.

    The graded pieces are unchanged; the new variables act as zero.
    """
    sub = M.spec
    k = sub.num_vars
    if k > full.num_vars:
        raise SubringError("target ring has fewer variables")
    if (
        full.weights[:k] != sub.weights
        or full.names[:k] != sub.names
        or full.char != sub.char
    ):
        raise SubringError("module ring is not a prefix subring of the target")
    if k == full.num_vars:
        return M
    pad = (0,) * (full.num_vars - k)
    degrees, actions = module_view(M)
    degrees = {
        j: tuple((comp, m + pad) for comp, m in labels)
        for j, labels in degrees.items()
    }
    actions = tuple(
        {(comp, m + pad): coeff for (comp, m), coeff in image.items()} for image in actions
    ) + tuple({} for _ in pad)
    corner = None if M.corner is None else M.corner + pad
    return module_from_dicts(full, M.bound, degrees, actions, corner)


class NotInModule(ValueError):
    """The monomial lies outside the module (no generator divides it)."""


def ord_scan(ctx: OrdContext, g) -> int:
    """The largest i with v in m^i M, g = (comp, v) or a plain monomial v in
    component 0, by a scan of every generator: the standard degree of v
    minus the least one of a generator dividing it."""
    comp, v = ctx.spec.label(g)
    best = None
    for c, u in ctx.generators:
        if c == comp and mon_divides(u, v):
            s = sdeg(ctx.spec, u)
            if best is None or s < best:
                best = s
    if best is None:
        raise NotInModule(f"{ctx.spec.render_monomial(v)} (component {comp}) is not in the module")
    return sdeg(ctx.spec, v) - best


def _gen_array(ctx: OrdContext, comp: int) -> np.ndarray:
    return np.array(ctx.component_gens(comp), dtype=np.int64).reshape(-1, ctx.spec.num_vars)


def _ords(cand: np.ndarray, gen_arr: np.ndarray) -> np.ndarray:
    """ord of each candidate row, or -1 where no generator divides it."""
    div = np.all(cand[:, None, :] >= gen_arr[None, :, :], axis=2)
    masked = np.where(div, gen_arr.sum(axis=1)[None, :], np.iinfo(np.int64).max)
    return np.where(div.any(axis=1), cand.sum(axis=1) - masked.min(axis=1), -1)


def _component_ord_table(ctx: OrdContext, comp: int, bound: int) -> dict:
    """monomial -> ord for all v in the component with ord <= bound."""
    gen_arr = _gen_array(ctx, comp)
    if not len(gen_arr):
        return {}
    n = ctx.spec.num_vars
    max_gen = int(gen_arr.sum(axis=1).max())
    companion = ctx.spec.companion()
    out = {}
    for sd in range(bound + max_gen + 1):
        mons = monomials_of_wdeg(companion, sd)
        if not mons:
            continue
        ords = _ords(np.array(mons, dtype=np.int64).reshape(len(mons), n), gen_arr)
        for k in np.nonzero((ords >= 0) & (ords <= bound))[0]:
            out[mons[k]] = int(ords[k])
    return out


def graded_span_dims(elements, degrees):
    """Dimension of the graded span of the elements in each listed degree.

    The syzygy candidates generate the kernel iff their span matches the
    brute-force kernel dimension degree by degree.
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
            dw = homogeneous_degree(w)
            if dw > d:
                continue
            for m in monomials_of_wdeg(spec, d - dw):
                space.insert(_expand(term_mul(w, m), index))
        out[d] = len(space.rows)
    return out


def reduce_max_scan(v, basis, leads, reps, rep):
    """The reduction of the syzygy engines, (remainder, rep), each step
    reducing the largest remaining term in the POT order, found by a max
    over all of them, by the lowest-index reducer whose lead divides it."""
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
        rep = sub(rep, term_mul(reps[hit], q, c))
    return FreeElement(spec, v.ambient, remainder, _clean=True), rep


def trunc_free_gens(spec: RingSpec, twists, e: int) -> list:
    """Generators of the truncation of a twisted free module, tagged by summand.

    Twists are generator degrees: the summand with generator degree t
    contributes the generators of the degree >= (e - t) truncation.
    """
    out = []
    for comp, t in enumerate(twists):
        for m in trunc_gens(spec, e - t):
            out.append((comp, m))
    return out


def construct_free_betti(weights, twists, e: int) -> BettiTable:
    """The construction's table for the truncation of a twisted free module.

    Twists are generator degrees; the summand with generator degree t behaves
    like the ring truncated at e - t, and the tables add up.
    """
    out = BettiTable(())
    for t in twists:
        table, _ = construct_gr_betti(weights, e - t)
        out = out + table
    return out


class NotStable(ValueError):
    """A monomial ideal is not stable in the order of non-increasing weight."""


def eliahou_kervaire_betti(spec: RingSpec, gens, through_last: bool = False) -> BettiTable:
    """The graded Betti table of the ideal that the monomials gens generate,
    by the closed form of Eliahou and Kervaire (J. Algebra 129, 1990;
    Herzog and Hibi, GTM 260, section 7.2), with no resolution computed.

    The variables are ordered by non-increasing weight, ties by index, and
    m(u) is the last variable of that order that divides u.  The ideal must
    be stable: x_i u / x_m(u) lies in it for every minimal generator u and
    every variable x_i before m(u); NotStable is raised otherwise.  Then
    beta_{i,d} counts the pairs (u, J) of a minimal generator u and a set J
    of i variables before m(u) with wdeg(u) + w(J) = d.  through_last lets
    J take m(u) as well: a wrong count, the tests' negative control.
    """
    w = spec.weights
    order = sorted(range(spec.num_vars), key=lambda v: -w[v])
    gens = set(gens)
    mins = [u for u in gens if not any(v != u and mon_divides(v, u) for v in gens)]

    def last(u) -> int:
        return max((pos for pos, v in enumerate(order) if u[v]), default=0)

    for u in mins:
        m = order[last(u)]
        for v in order[:last(u)]:
            moved = tuple(a + (k == v) - (k == m) for k, a in enumerate(u))
            if not any(mon_divides(g, moved) for g in mins):
                raise NotStable(f"x_{v} u / x_{m} is outside the ideal for u = {u}")
    counts = {}
    for u in mins:
        before = order[:last(u) + through_last]
        for i in range(len(before) + 1):
            for J in combinations(before, i):
                key = (i, spec.wdeg(u) + sum(w[v] for v in J))
                counts[key] = counts.get(key, 0) + 1
    return BettiTable.from_dict(counts)


# ---------------------------------------------------------------------------
# the reference syzygy engine: Buchberger's algorithm on tuple terms


def _reduce_reference(v, basis, leads, reps, rep):
    """Fully reduce v by the monic reducers basis, whose leads are given.

    Returns (remainder, rep): every multiple of basis[k] subtracted from v is
    subtracted from rep as the same multiple of reps[k].  The largest
    reducible term is reduced first, by the lowest-index reducer whose lead
    divides it.  The terms wait in a heap keyed (component, -weighted degree,
    reversed exponents), whose least entry is the largest term in the module
    order; an entry whose term has cancelled is skipped.
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
        rep = sub(rep, term_mul(reps[hit], q, c))
    return FreeElement(spec, v.ambient, remainder, _clean=True), rep


class _ReferenceEngine:
    """Buchberger's algorithm on the inputs, collecting syzygies, with
    (component, exponent tuple) terms: the engine gb.syzygies had before it
    packed its terms into ints, the reference its output must equal."""

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

    def _insert(self, g, rep):
        comp, mon, coeff = lead(g)
        if coeff != 1:
            inv = pow(coeff, -1, self.p)
            g = scale(g, inv)
            rep = scale(rep, inv)
        k = len(self.basis)
        self.basis.append(g)
        self.leads.append((comp, mon, 1))
        self.reps.append(rep)
        twist = self.ambient.twists[comp]
        for i in range(k):
            ci, mi, _ = self.leads[i]
            if ci == comp:
                deg = self.spec.wdeg(mon_lcm(mi, mon)) + twist
                heapq.heappush(self.pairs, (deg, i, k))

    def _chain_skip(self, i: int, j: int, lcm, comp: int) -> bool:
        # drop (i, j) when some third lead divides the pair lcm and both
        # sub-lcms are proper divisors; lcm(mi, mk) is proper iff some
        # exponent of both mi and mk falls short of the lcm's
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
            spoly = sub(term_mul(self.basis[i], qi), term_mul(self.basis[j], qj))
            rep = sub(term_mul(self.reps[i], qi), term_mul(self.reps[j], qj))
            r, rep = _reduce_reference(spoly, self.basis, self.leads, self.reps, rep)
            if r:
                self._insert(r, rep)
            elif rep:
                self.syzygies.append((rep, deg))


def syzygies_reference(gens):
    """syzygies(gens) computed by the reference engine: the same
    (elements, source), in the same order."""
    eng = _ReferenceEngine(list(gens))
    eng.run()
    eng.syzygies.sort(key=lambda sd: element_sort_key(*sd))
    return [s for s, _ in eng.syzygies], eng.source


def element_sort_key(v: FreeElement, deg: int):
    """Ascending key of a homogeneous element of degree deg: the degree, then
    the component and reversed exponents of its lead term.

    The lead lies in the lowest component, where every term has the weighted
    degree deg minus that component's twist, so it is the term whose reversed
    exponent vector is smallest there (weighted degrevlex)."""
    return (deg, *min((c, m[::-1]) for c, m in v.coeffs))


class InhomogeneousInput(ValueError):
    """An element mixes weighted degrees; carries a per-term degree report."""

    def __init__(self, index: int, degrees):
        self.index = index
        self.degrees = sorted(degrees)
        super().__init__(f"generator {index} is not homogeneous: term degrees {self.degrees}")


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
# the packed engine's full syzygy sets, and the reference selection


def engine_syzygies(eng, spec: RingSpec):
    """The syzygies a finished gb._Engine hands to the selection, unpacked:
    (elements, source), sorted by (degree, lead term), the lead of a
    homogeneous rep being its least packed term."""
    unpack = eng.layout.unpack
    syz = sorted(eng.syzygies, key=lambda s: (s[1], min(s[0])))
    out = [
        FreeElement(spec, eng.source, {unpack(t): c for t, c in rep.items()}, _clean=True)
        for rep, _ in syz
    ]
    return out, eng.source


def engine_inputs(gens, layout) -> list:
    """The homogeneous elements gens as gb._Engine takes them: per element
    its packed (term, coefficient) pairs, the lead first, and its degree."""
    return [
        (sorted((layout.pack(c, m), coeff) for (c, m), coeff in g.coeffs.items()), d)
        for g, d in zip(gens, _degrees(gens))
    ]


def syzygies(gens):
    """Generators of the syzygy module of gens, with Schreyer twists: the
    whole syzygy set of one run of the packed engine, before any selection.

    Returns (elements, source) where source is the free module on the inputs
    (generator degrees = degrees of the inputs) and the elements generate the
    kernel of source -> ambient.  The fields are sized as
    gb.minimal_syzygies sizes them, for twice the largest input exponent.
    A general element can outgrow them; the tests that pass one compare
    the result with an independent computation.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    spec = gens[0].spec
    top = max(max(m) for g in gens for _, m in g.coeffs)
    layout = gb._Layout(spec.num_vars, top.bit_length() + 2)
    eng = gb._Engine(spec, gens[0].ambient.twists, engine_inputs(gens, layout), layout)
    eng.run()
    return engine_syzygies(eng, spec)


def record_engine_runs(monkeypatch) -> list:
    """Wrap gb._Engine so that every run it finishes is recorded.

    Returns a list, filled as the runs finish, of (gens, syzygies, source)
    per run: gens the inputs as FreeElements, and (syzygies, source) what
    syzygies(gens) returns.  A resolution runs the engine once per level,
    so after one resolution the list holds one record per level, in the
    order of the levels; clear it between resolutions.
    """
    runs = []

    class Recording(gb._Engine):
        def __init__(self, spec, twists, inputs, layout):
            super().__init__(spec, twists, inputs, layout)
            ambient = FreeModuleSpec(twists)
            self.spec = spec
            self.gens = [
                FreeElement(spec, ambient, {layout.unpack(t): c for t, c in terms}, _clean=True)
                for terms, _ in inputs
            ]

        def run(self):
            super().run()
            runs.append((self.gens, *engine_syzygies(self, self.spec)))

    monkeypatch.setattr(gb, "_Engine", Recording)
    return runs


def minimal_generators_reference(elements):
    """The minimal-generator selection on (component, monomial) labels and
    graded spans, the reference for the multigraded one on packed terms
    that each level of gb.minimal_syzygies makes.

    Candidates are processed in ascending degree; each is kept iff it falls
    outside the graded span of everything kept so far (multiples included),
    decided by one sparse column reduction per degree over the coefficient
    field, the columns keyed by (component, monomial) label: every kept
    element times every monomial of the degree it lacks
    (monomials_of_wdeg), whatever its multidegree.  It takes any
    homogeneous elements and raises InhomogeneousInput on others.
    """
    elements = [v for v in elements if v]
    if not elements:
        return []
    degrees = _degrees(elements)
    spec = elements[0].spec
    by_degree = {}
    for v, d in sorted(zip(elements, degrees), key=lambda vd: element_sort_key(*vd)):
        by_degree.setdefault(d, []).append(v)
    accepted = []
    for d, candidates in sorted(by_degree.items()):
        columns = [
            term_mul(w, m).coeffs
            for dw, w in accepted
            for m in monomials_of_wdeg(spec, d - dw)
        ]
        kept = set(modp.pivots(columns + [v.coeffs for v in candidates], spec.char))
        accepted.extend((d, v) for k, v in enumerate(candidates, len(columns)) if k in kept)
    return [v for _, v in accepted]


# ---------------------------------------------------------------------------
# arithmetic and views that only the tests use


def mon_quotient(a, b):
    """a / b; requires b | a."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in q):
        raise ValueError(f"{b} does not divide {a}")
    return q


def sdeg(spec: RingSpec, m) -> int:
    """Standard degree (sum of exponents) of a monomial of the ring."""
    if len(m) != spec.num_vars:
        raise DimensionMismatch(
            f"monomial has {len(m)} exponents, ring has {spec.num_vars} variables"
        )
    return sum(m)


def lead(v: FreeElement):
    """Lead term (component, monomial, coefficient) in the POT order."""
    if not v.coeffs:
        raise ValueError("zero element has no lead term")
    comp, m = max(v.coeffs, key=lambda k: term_key(v.spec, k[0], k[1]))
    return comp, m, v.coeffs[(comp, m)]


def homogeneous_degree(v: FreeElement) -> int:
    """Weighted degree of a homogeneous FreeElement with its twists; raises
    ValueError for 0 or an inhomogeneous one."""
    degs = {v.spec.wdeg(m) + v.ambient.twists[c] for c, m in v.coeffs}
    if len(degs) != 1:
        raise ValueError(f"no single weighted degree: {sorted(degs)}")
    return degs.pop()


def mon_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mon_var(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


def column_entries(column: dict) -> dict:
    """The entries of a differential's column: row -> {monomial: coefficient}."""
    out = {}
    for (r, m), v in column.items():
        out.setdefault(r, {})[m] = v
    return out


def add_multiple(out: dict, column: dict, f: dict, c: int, p: int) -> None:
    """out += c * f * column over F_p in place, dropping zero terms; out and
    column map (row, monomial) and f maps monomial to a coefficient."""
    for (r, m1), v1 in column.items():
        for m2, v2 in f.items():
            key = (r, mon_mul(m1, m2))
            v = (out.get(key, 0) + c * v1 * v2) % p
            if v:
                out[key] = v
            else:
                out.pop(key, None)


def term_mul(v: FreeElement, m, c: int = 1) -> FreeElement:
    """v multiplied by the ring term c * x^m."""
    p = v.spec.char
    c %= p
    return FreeElement(
        v.spec,
        v.ambient,
        {(comp, mon_mul(mm, m)): x * c % p for (comp, mm), x in v.coeffs.items()} if c else {},
        _clean=True,
    )


def scale(v: FreeElement, c: int) -> FreeElement:
    p = v.spec.char
    return FreeElement(v.spec, v.ambient, {k: x * c % p for k, x in v.coeffs.items()})


def sub(a: FreeElement, b: FreeElement) -> FreeElement:
    """a - b, with a's terms first, then b's new ones in b's order."""
    p = a.spec.char
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        v = (out.get(k, 0) - c) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return FreeElement(a.spec, a.ambient, out, _clean=True)


def complex_length(C: GradedFreeComplex) -> int:
    return len(C.modules) - 1


def module_dim(M: ExplicitGradedModule, j: int) -> int:
    return len(module_basis(M, j))


def module_basis(M: ExplicitGradedModule, j: int):
    if j > M.bound:
        raise DegreeRangeError(f"degree {j} beyond stored bound {M.bound}")
    return module_view(M)[0].get(j, ())


def module_hilbert(M: ExplicitGradedModule, bound: int | None = None) -> list:
    """Dimensions of the graded pieces of M for degrees 0..bound."""
    b = M.bound if bound is None else bound
    if b > M.bound:
        raise DegreeRangeError(f"bound {b} beyond stored bound {M.bound}")
    degrees = M.degrees
    return [len(degrees.get(j, ())) for j in range(b + 1)]


def random_monomial_modules(seed: int, count: int, ranks) -> list:
    """count (spec, rank, generators): 2-4 variables of weights <= 4, p in
    {2, 3, 32003}, and rank to 6 (component, exponents <= 3) generators in
    the free module of that rank, zero monomials left out."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3, 3, 4, 4))
        spec = RingSpec(tuple(rng.randint(1, 4) for _ in range(n)), char=rng.choice((2, 3, 32003)))
        rank = rng.choice(ranks)
        gens = {
            (rng.randrange(rank), tuple(rng.randint(0, 3) for _ in range(n)))
            for _ in range(rng.randint(rank, 6))
        }
        gens = sorted(g for g in gens if any(g[1]))
        if gens:
            out.append((spec, rank, gens))
    return out
