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
from itertools import product
from operator import add, mul

import numpy as np

from . import modp
from .complexes import BettiTable
from .ring import RingSpec, mon_divides, monomials_of_wdeg


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
    label absent from actions[t] is sent to zero by x_t.  Labels are stored
    for degrees <= bound and, when corner is set, only for exponent
    multidegrees <= corner; x_t sends a label with exponent corner_t in t
    out of the window.
    """

    spec: RingSpec
    bound: int
    degrees: dict
    actions: tuple
    corner: tuple | None = None

    def dim(self, j: int) -> int:
        if j > self.bound:
            raise DegreeRangeError(f"degree {j} beyond stored bound {self.bound}")
        return len(self.degrees.get(j, ()))

    def basis(self, j: int):
        if j > self.bound:
            raise DegreeRangeError(f"degree {j} beyond stored bound {self.bound}")
        return self.degrees.get(j, ())

    def hilbert(self, bound: int | None = None) -> list:
        """Dimensions of the graded pieces for degrees 0..bound."""
        b = self.bound if bound is None else bound
        if b > self.bound:
            raise DegreeRangeError(f"bound {b} beyond stored bound {self.bound}")
        return [len(self.degrees.get(j, ())) for j in range(b + 1)]

    def action_matrix(self, var: int, j: int) -> np.ndarray:
        """The matrix of x_var from basis(j) to basis(j + w_var)."""
        target = self.degrees.get(j + self.spec.weights[var], ())
        rows = {lb: r for r, lb in enumerate(target)}
        cols = self.degrees.get(j, ())
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        image = self.actions[var]
        for c, lb in enumerate(cols):
            coeff = image.get(lb)
            if coeff is not None:
                comp, m = lb
                mat[rows[comp, m[:var] + (m[var] + 1,) + m[var + 1:]], c] = coeff
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
    degree_of = {}
    for j, labels in degrees.items():
        final[j] = tuple(sorted(labels, key=lambda lb: (lb[0], tuple(reversed(lb[1])))))
        for lb in final[j]:
            degree_of[lb] = j
    actions = tuple({} for _ in spec.weights)
    for lb, j in degree_of.items():
        comp, m = lb
        for t, w in enumerate(spec.weights):
            if degree_of.get((comp, m[:t] + (m[t] + 1,) + m[t + 1:])) == j + w:
                actions[t][lb] = 1
    return ExplicitGradedModule(spec, bound, final, actions, corner)


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


def _critical_values(M: ExplicitGradedModule, bound: int) -> list:
    """Per coordinate t, the values c at which x_t may fail to be a bijection
    from the labels with exponent c - 1 in t onto those with exponent c.

    c is critical for t when a label of degree <= bound with exponent c in t
    has no x_t-preimage (c = 0, or the label below is missing or sent to
    zero), or when a label with exponent c - 1 in t and
    degree <= bound - w_t is sent to zero by x_t.  On a module stored up to a
    corner, a label with exponent corner_t in t is sent out of the window,
    not to zero, so the values above corner_t are dropped.
    """
    n = M.spec.num_vars
    weights = M.spec.weights
    maps = M.actions
    crit = [set() for _ in range(n)]
    for j, labels in M.degrees.items():
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


def _betti_blocks(M: ExplicitGradedModule, bound: int) -> BettiTable:
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
    crit = _critical_values(M, bound)
    maps = M.actions

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
