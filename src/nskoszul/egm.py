"""Explicit graded modules and the Koszul-homology Betti oracle.

An :class:`ExplicitGradedModule` stores a finite window of a graded module as
ordered, monomial-labeled bases per internal degree together with the action
of each variable as a per-degree matrix (kept in sparse triple form).  The
graded Betti numbers beta_ij = dim H_i(K (x) M)_j are read off the strands of
the Koszul complex of all variables; the ranks are taken over the coefficient
field.

For monomial modules the variable actions send each basis label to at most
one other label, the strands split along exponent multidegrees, and the rank
work reduces to many tiny blocks.  Only the blocks at critical multidegrees
are built: a value c is critical for x_t when x_t fails to send the labels
with t-exponent c - 1 bijectively, with nonzero coefficients, onto those
with t-exponent c.  A strand whose multidegree a has some a_t not critical
is the mapping cone of the isomorphism x_t between two strands of the
Koszul complex on the other variables, hence acyclic.  The dense strand
assembly remains as the general path and as a cross-check.

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
from itertools import combinations, product
from operator import add, mul

import numpy as np

from . import modp
from .complexes import BettiTable
from .ring import (
    RingSpec,
    mon_divides,
    mon_mul,
    mon_var,
    monomials_of_wdeg,
)


class DegreeRangeError(ValueError):
    """A request exceeded the stored window."""


Label = tuple  # (component, monomial)


@dataclass(frozen=True)
class ExplicitGradedModule:
    """A graded module presented by per-degree bases and variable actions.

    degrees maps internal degree -> ordered tuple of (component, monomial)
    labels; actions maps (variable, degree) -> triples (row, col, coeff) of
    the matrix basis(degree) -> basis(degree + weight of the variable).
    Labels are stored for degrees <= bound and, when corner is set, only for
    exponent multidegrees <= corner; x_t sends a label with exponent
    corner_t in t to zero, out of the window.
    """

    spec: RingSpec
    bound: int
    degrees: dict
    actions: dict
    corner: tuple | None = None

    def dim(self, j: int) -> int:
        if j > self.bound:
            raise DegreeRangeError(f"degree {j} beyond stored bound {self.bound}")
        return len(self.degrees.get(j, ()))

    def basis(self, j: int):
        if j > self.bound:
            raise DegreeRangeError(f"degree {j} beyond stored bound {self.bound}")
        return self.degrees.get(j, ())

    def min_degree(self) -> int:
        return min(self.degrees, default=0)

    def hilbert(self, bound: int | None = None) -> list:
        """Dimensions of the graded pieces for degrees 0..bound."""
        b = self.bound if bound is None else bound
        if b > self.bound:
            raise DegreeRangeError(f"bound {b} beyond stored bound {self.bound}")
        return [len(self.degrees.get(j, ())) for j in range(b + 1)]

    def action_triples(self, var: int, j: int):
        return self.actions.get((var, j), ())

    def action_matrix(self, var: int, j: int) -> np.ndarray:
        rows = len(self.degrees.get(j + self.spec.weights[var], ()))
        cols = len(self.degrees.get(j, ()))
        mat = np.zeros((rows, cols), dtype=np.int64)
        for r, c, coeff in self.action_triples(var, j):
            mat[r, c] = coeff
        return mat

    def commuting_violations(self) -> list:
        """Pairs of variables whose composed actions differ (should be empty)."""
        bad = []
        n = self.spec.num_vars
        for s in range(n):
            for t in range(s + 1, n):
                ws, wt = self.spec.weights[s], self.spec.weights[t]
                for j in list(self.degrees):
                    if j + ws + wt > self.bound:
                        continue
                    a = self.action_matrix(t, j + ws) @ self.action_matrix(s, j)
                    b = self.action_matrix(s, j + wt) @ self.action_matrix(t, j)
                    if ((a - b) % self.spec.char).any():
                        bad.append((s, t, j))
        return bad


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
    """The module on the given (component, monomial) labels per degree, sorted
    by component and then descending monomial order; x_var sends a label to
    x_var * label when that is a label of degree j + weight, else to zero.
    corner is the module's multidegree window (see ExplicitGradedModule)."""
    final = {}
    index = {}
    for j, labels in degrees.items():
        labels = sorted(labels, key=lambda lb: (lb[0], tuple(reversed(lb[1]))))
        final[j] = tuple(labels)
        for pos, lb in enumerate(labels):
            index[lb] = (j, pos)
    n = spec.num_vars
    actions = {}
    for j, labels in final.items():
        for var, w in enumerate(spec.weights):
            if j + w > bound:
                continue
            step = mon_var(n, var)
            triples = []
            for col, (comp, m) in enumerate(labels):
                hit = index.get((comp, mon_mul(m, step)))
                if hit is not None and hit[0] == j + w:
                    triples.append((hit[1], col, 1))
            if triples:
                actions[(var, j)] = tuple(triples)
    return ExplicitGradedModule(spec, bound, final, actions, corner)


# ---------------------------------------------------------------------------
# Koszul strands


def betti_via_koszul(M: ExplicitGradedModule, bound: int | None = None) -> BettiTable:
    """Graded Betti numbers beta_ij = dim H_i(Koszul (x) M)_j for j <= bound,
    and on a module stored up to a corner, at multidegrees <= corner only.

    Modules in which x_t sends each label m to a scalar multiple of the label
    x_t * m (or to zero) are split into multidegree blocks, and only the blocks
    whose multidegree is critical in every coordinate are ranked: any other
    block is the cone of an isomorphism x_t and has no homology (see
    :func:`_betti_blocks`).  Any other module falls back to the dense
    strands, which the tests also use as the oracle for the blocks; those
    do not split by multidegree, so they need the module without a corner.
    """
    b = M.bound if bound is None else bound
    if b > M.bound:
        raise DegreeRangeError(f"bound {b} exceeds stored degree range {M.bound}")
    maps = _label_action_maps(M)
    if maps is None:
        if M.corner is not None:
            raise DegreeRangeError("dense Koszul strands need the module beyond its corner")
        return _betti_dense(M, b)
    return _betti_blocks(M, maps, b)


def _label_action_maps(M: ExplicitGradedModule):
    # One map per variable: label -> coefficient, valid when every action
    # column has at most one entry and it lands exactly on x_var * label.
    n = M.spec.num_vars
    maps = [dict() for _ in range(n)]
    for (var, j), triples in M.actions.items():
        src = M.degrees.get(j, ())
        tgt = M.degrees.get(j + M.spec.weights[var], ())
        step = mon_var(n, var)
        seen_cols = set()
        for r, c, coeff in triples:
            if c in seen_cols:
                return None
            seen_cols.add(c)
            comp, m = src[c]
            if tgt[r] != (comp, mon_mul(m, step)):
                return None
            maps[var][src[c]] = coeff % M.spec.char
    return maps


def _subset_weight(spec: RingSpec, T) -> int:
    return sum(spec.weights[t] for t in T)


def _critical_values(M: ExplicitGradedModule, maps, bound: int) -> list:
    """Per coordinate t, the values c at which x_t may fail to be a bijection
    from the labels with exponent c - 1 in t onto those with exponent c.

    c is critical for t when a label of degree <= bound with exponent c in t
    has no x_t-preimage with a nonzero coefficient (c = 0, or the label below
    is missing or sent to zero), or when a label with exponent c - 1 in t and
    degree <= bound - w_t is sent to zero by x_t.  On a module stored up to a
    corner, a label with exponent corner_t in t is sent out of the window,
    not to zero, so the values above corner_t are dropped.
    """
    n = M.spec.num_vars
    weights = M.spec.weights
    crit = [set() for _ in range(n)]
    for j, labels in M.degrees.items():
        if j > bound:
            continue
        for lb in labels:
            comp, m = lb
            for t in range(n):
                c = m[t]
                if not c or not maps[t].get((comp, m[:t] + (c - 1,) + m[t + 1:])):
                    crit[t].add(c)
                if j + weights[t] <= bound and not maps[t].get(lb):
                    crit[t].add(c + 1)
    if M.corner is not None:
        crit = [{c for c in values if c <= top} for values, top in zip(crit, M.corner)]
    return crit


def _betti_blocks(M: ExplicitGradedModule, maps, bound: int) -> BettiTable:
    """Betti numbers from the Koszul strands at critical multidegrees only.

    The cells e_T (x) m (T a subset of the variables, m a label) lie in
    strands indexed by (component, a, j) with a = m + e_T and j = deg(m) +
    w(T).  Fix t.  The strand at (a, j) is the mapping cone of +-x_t from the
    strand at (a - e_t, j - w_t) to the strand at (a, j), both taken over the
    subsets not containing t.  If a_t is not critical (:func:`_critical_values`),
    x_t sends the labels of the first strand bijectively, with nonzero
    coefficients, onto those of the second; on a module (the actions
    commute) that is an isomorphism of complexes, so the cone is acyclic.
    Hence only strands with every a_t critical can have homology, and only
    those are built: a label m takes t outside T when m_t is critical and
    inside T when m_t + 1 is.  For gr of a truncation the critical values lie
    among 0 and the generator exponents, and on a corner window none exceeds
    the corner, so no strand outside the window is built.
    """
    spec = M.spec
    n = spec.num_vars
    p = spec.char
    crit = _critical_values(M, maps, bound)

    # multidegree block key: (component, total exponent vector)
    blocks = {}
    for jdeg, labels in M.degrees.items():
        if jdeg > bound:
            continue
        for lb in labels:
            comp, m = lb
            # pick[t] = 1 puts t in T; no pick at all when some t has no choice
            choices = [[k for k in (0, 1) if m[t] + k in crit[t]] for t in range(n)]
            for pick in product(*choices):
                j = jdeg + sum(map(mul, spec.weights, pick))
                if j <= bound:
                    T = tuple(t for t in range(n) if pick[t])
                    a = tuple(map(add, m, pick))
                    blocks.setdefault((comp, a), []).append((T, lb, j))

    out = {}
    for (comp, a), cells in blocks.items():
        by_j = {}
        for T, lb, j in cells:
            by_j.setdefault(j, {})[T] = lb
        for j, present in by_j.items():
            max_size = max(len(T) for T in present)
            layer = [
                [T for T in present if len(T) == size]
                for size in range(max_size + 1)
            ]
            pos = [
                {T: k for k, T in enumerate(level)} for level in layer
            ]
            ranks = [0] * (max_size + 2)
            for size in range(1, max_size + 1):
                if not layer[size] or not layer[size - 1]:
                    continue
                rows = []
                for T in layer[size]:
                    row = [0] * len(layer[size - 1])
                    lb = present[T]
                    for posn, t in enumerate(T):
                        rest = T[:posn] + T[posn + 1:]
                        if rest not in pos[size - 1]:
                            continue
                        coeff = maps[t].get(lb)
                        if coeff is None:
                            continue
                        sign = 1 if posn % 2 == 0 else -1
                        row[pos[size - 1][rest]] = sign * coeff % p
                    rows.append(row)
                # rows currently index columns of d_size transposed; rank is the same
                ranks[size] = modp.rank_py(rows, p) if rows else 0
            for size in range(max_size + 1):
                h = len(layer[size]) - ranks[size] - ranks[size + 1]
                if h:
                    key = (size, j)
                    out[key] = out.get(key, 0) + h
    return BettiTable.from_dict(out)


def _betti_dense(M: ExplicitGradedModule, bound: int) -> BettiTable:
    spec = M.spec
    n = spec.num_vars
    p = spec.char
    subsets = [list(combinations(range(n), size)) for size in range(n + 1)]
    sub_weight = [
        {T: _subset_weight(spec, T) for T in level} for level in subsets
    ]
    # per (var, j): col -> list of (row, coeff)
    col_actions = {}
    for (var, j), triples in M.actions.items():
        cols = {}
        for r, c, coeff in triples:
            cols.setdefault(c, []).append((r, coeff))
        col_actions[(var, j)] = cols

    out = {}
    min_j = M.min_degree()
    for j in range(min_j, bound + 1):
        bases = []
        for size in range(n + 1):
            level = []
            for T in subsets[size]:
                mdeg = j - sub_weight[size][T]
                for idx in range(len(M.degrees.get(mdeg, ()))):
                    level.append((T, idx))
            bases.append(level)
        index = [
            {cell: k for k, cell in enumerate(level)} for level in bases
        ]
        ranks = [0] * (n + 2)
        for size in range(1, n + 1):
            if not bases[size] or not bases[size - 1]:
                continue
            mat = np.zeros((len(bases[size - 1]), len(bases[size])), dtype=np.int64)
            for cidx, (T, vidx) in enumerate(bases[size]):
                mdeg = j - sub_weight[size][T]
                for posn, t in enumerate(T):
                    rest = T[:posn] + T[posn + 1:]
                    sign = 1 if posn % 2 == 0 else -1
                    cols = col_actions.get((t, mdeg), {})
                    for r, coeff in cols.get(vidx, ()):
                        ridx = index[size - 1][(rest, r)]
                        mat[ridx, cidx] = (mat[ridx, cidx] + sign * coeff) % p
            ranks[size] = modp.rank_mod(mat, p)
        for size in range(n + 1):
            h = len(bases[size]) - ranks[size] - ranks[size + 1]
            if h:
                out[(size, j)] = out.get((size, j), 0) + h
    return BettiTable.from_dict(out)
