"""Explicit graded modules and the Koszul-homology Betti oracle.

An :class:`ExplicitGradedModule` stores a finite window of a graded module as
ordered, monomial-labeled bases per internal degree together with the action
of each variable as a per-degree matrix (kept in sparse triple form).  The
graded Betti numbers beta_ij = dim H_i(K (x) M)_j are read off the strands of
the Koszul complex of all variables; the ranks are taken over the coefficient
field.

For monomial modules the variable actions send each basis label to at most
one other label, the strands split along exponent multidegrees, and the rank
work reduces to many tiny blocks.  The dense strand assembly remains as the
general path and as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
    """A request exceeded the stored degree window."""


Label = tuple  # (component, monomial)


@dataclass(frozen=True)
class ExplicitGradedModule:
    """A graded module presented by per-degree bases and variable actions.

    degrees maps internal degree -> ordered tuple of (component, monomial)
    labels; actions maps (variable, degree) -> triples (row, col, coeff) of
    the matrix basis(degree) -> basis(degree + weight of the variable).
    """

    spec: RingSpec
    bound: int
    degrees: dict
    actions: dict

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
    index = {}
    for j in range(min(twists), bound + 1):
        labels = []
        for comp, t in enumerate(twists):
            gens_c = by_comp.get(comp, ())
            if not gens_c:
                continue
            for m in monomials_of_wdeg(spec, j - t):
                if any(mon_divides(u, m) for u in gens_c):
                    labels.append((comp, m))
        # within a degree: by component, then descending monomial order
        labels.sort(key=lambda lb: (lb[0], tuple(reversed(lb[1]))))
        if labels:
            degrees[j] = tuple(labels)
            for pos, lb in enumerate(labels):
                index[lb] = (j, pos)

    actions = {}
    for (j, labels) in degrees.items():
        for var in range(spec.num_vars):
            w = spec.weights[var]
            if j + w > bound:
                continue
            triples = []
            for col, (comp, m) in enumerate(labels):
                target = (comp, mon_mul(m, mon_var(spec.num_vars, var)))
                hit = index.get(target)
                if hit is not None and hit[0] == j + w:
                    triples.append((hit[1], col, 1))
            if triples:
                actions[(var, j)] = tuple(triples)
    return ExplicitGradedModule(spec, bound, degrees, actions)


# ---------------------------------------------------------------------------
# Koszul strands


def betti_via_koszul(M: ExplicitGradedModule, bound: int | None = None) -> BettiTable:
    """Graded Betti numbers beta_ij = dim H_i(Koszul (x) M)_j for j <= bound.

    Modules whose variable actions send each label to its monomial multiple
    are split into multidegree blocks; any other module falls back to the
    dense strands, which the tests also use as the oracle for the blocks.
    """
    b = M.bound if bound is None else bound
    if b > M.bound:
        raise DegreeRangeError(f"bound {b} exceeds stored degree range {M.bound}")
    maps = _label_action_maps(M)
    if maps is None:
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
        seen_cols = set()
        for r, c, coeff in triples:
            if c in seen_cols:
                return None
            seen_cols.add(c)
            comp, m = src[c]
            if tgt[r] != (comp, mon_mul(m, mon_var(n, var))):
                return None
            maps[var][src[c]] = coeff % M.spec.char
    return maps


def _subset_weight(spec: RingSpec, T) -> int:
    return sum(spec.weights[t] for t in T)


def _betti_blocks(M: ExplicitGradedModule, maps, bound: int) -> BettiTable:
    spec = M.spec
    n = spec.num_vars
    p = spec.char
    label_degree = {}
    for j, labels in M.degrees.items():
        for lb in labels:
            label_degree[lb] = j

    subsets = [()]
    for size in range(1, n + 1):
        subsets.extend(combinations(range(n), size))
    sub_weight = {T: _subset_weight(spec, T) for T in subsets}

    # multidegree block key: (component, total exponent vector)
    blocks = {}
    for lb, jdeg in label_degree.items():
        comp, m = lb
        for T in subsets:
            j = jdeg + sub_weight[T]
            if j > bound:
                continue
            a = list(m)
            for t in T:
                a[t] += 1
            blocks.setdefault((comp, tuple(a)), []).append((T, lb, j))

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
