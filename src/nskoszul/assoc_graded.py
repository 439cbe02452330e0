"""The associated graded module of a monomial submodule, computed through the
order function: for monomial modules the largest i with v in m^i M equals the
standard degree of v minus the smallest standard degree of a generator
dividing it.  The result is exposed as an ExplicitGradedModule over the
standard graded companion ring.

Generator twists are deliberately absent here: the associated graded
construction does not see them, so two truncations that agree as monomial
sets produce literally identical modules.

gr(M) is positively a-determined, where a is the componentwise maximum of
the generator exponents: for b_t >= a_t every generator dividing x^(b + e_t)
divides x^b, so ord rises by exactly one and x_t is an isomorphism.  Every
Betti multidegree of gr(M) therefore lies in the box [0, a] (Miller,
J. Algebra 231 (2000); Miller-Sturmfels, GTM 227, Ch. 5), and gr_betti
computes the whole Betti table, with no degree bound, from the labels in
that box alone.  gr_module and gr_hilbert keep the whole window up to a
degree bound.

ord is read off one table per component over the box [0, a]
(_least_divisor_degrees), which holds at each v <= a the least standard
degree of a generator dividing v.  A monomial v of a window reads the cell
min(v, a): every generator g satisfies g <= a, so g divides v exactly when
it divides min(v, a), and ord(v) = |v| - least(min(v, a)).  The label maps
are read off the same table, at the neighbouring cells (_gr_module).  The
tests check the table against ord found by a scan of every generator, and
the maps against a key search over the labels (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import BettiTable
from .egm import ExplicitGradedModule, betti_via_koszul
from .ring import RingSpec, as_int


@dataclass(frozen=True)
class OrdContext:
    """Minimal monomial generators of M with their standard degrees.

    Raises ValueError for a generator with a negative or non-integral
    exponent.  corner is the componentwise maximum a of all components'
    generator exponents.
    """

    spec: RingSpec
    generators: tuple
    corner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = set()
        for g in self.generators:
            comp, m = self.spec.label(g)
            m = tuple(as_int(e, "exponent") for e in m)
            if min(m) < 0:
                raise ValueError(f"generator {m} has a negative exponent")
            gens.add((comp, m))
        if not gens:
            raise ValueError("need at least one generator")
        object.__setattr__(self, "generators", tuple(sorted(gens)))
        object.__setattr__(self, "corner", tuple(map(max, zip(*(m for _, m in gens)))))

    @property
    def num_components(self) -> int:
        return max(c for c, _ in self.generators) + 1

    def component_gens(self, comp: int):
        return [m for c, m in self.generators if c == comp]


_NONE = np.iinfo(np.int64).max


def _least_divisor_degrees(ctx: OrdContext):
    """(component, least) for each component with a generator: least is the
    box [0, a] flattened in C order, holding at v the least standard degree
    of a generator of the component that divides v, or _NONE where none does.
    Each generator's degree is placed at its exponents, and a running minimum
    along every axis carries it to each v above it."""
    shape = tuple(c + 1 for c in ctx.corner)
    for comp in range(ctx.num_components):
        gens = ctx.component_gens(comp)
        if not gens:
            continue
        least = np.full(shape, _NONE, dtype=np.int64)
        least[tuple(np.array(gens, dtype=np.int64).T)] = list(map(sum, gens))
        for axis in range(len(shape)):
            np.minimum.accumulate(least, axis=axis, out=least)
        yield comp, least.ravel()


def _gr_labels(ctx: OrdContext, cells: np.ndarray, bound: int) -> tuple:
    """The labels of gr(M) among the exponent vectors cells: the C-order
    strides of the box [0, a] and, per component with a generator, (comp,
    least, rows, ords, at), where rows are the indices in cells of the v
    with 0 <= ord(v) <= bound, in the order of cells, ords their ords and
    at the flat index of min(v, a) in the box."""
    top = np.array(ctx.corner, dtype=np.int64)
    strides = np.cumprod((1, *(top[:0:-1] + 1)))[::-1]
    flat = np.minimum(cells, top) @ strides
    sdeg = cells.sum(axis=1)
    parts = []
    for comp, least in _least_divisor_degrees(ctx):
        o = sdeg - least[flat]
        rows = np.flatnonzero((o >= 0) & (o <= bound))
        parts.append((comp, least, rows, o[rows], flat[rows]))
    return strides, parts


def _gr_module(ctx: OrdContext, cells: np.ndarray, bound: int, corner: tuple | None):
    """gr(M) on its labels among cells (_gr_labels), component by component
    in the order of cells: stored up to bound, or with corner = a (cells <=
    a) up to the largest ord, as the box window.

    With flat the C-order index of min(v, a) in the box, min(v +- e_t, a) is
    at flat +- stride_t when v_t < a_t (+) or 1 <= v_t <= a_t (-), else at
    flat.  As ord(u) = |u| - least(min(u, a)), x_t sends v to x_t v, with
    coefficient 1, exactly when least(min(v + e_t, a)) = least(min(v, a)),
    finite, and x_t v is stored: ord(v) < bound on a window, v_t < a_t on a
    box (stored up to its largest ord).  x_t reaches v exactly when v_t >= 1
    and least(min(v - e_t, a)) = least(min(v, a)): v - e_t is then in M, of
    ord ord(v) - 1, so stored."""
    strides, labels = _gr_labels(ctx, cells, bound)
    parts = []
    for comp, least, rows, o, at in labels:
        v = cells[rows]
        here = least[at]
        coef = np.empty(v.shape, dtype=np.uint8)
        reached = np.empty(v.shape, dtype=bool)
        for t, (a_t, stride) in enumerate(zip(ctx.corner, strides.tolist())):
            below, lifted = v[:, t] < a_t, v[:, t] >= 1
            up = least[at + stride * below] == here
            coef[:, t] = up & (o < bound if corner is None else below)
            down = least[at - stride * (lifted & (v[:, t] <= a_t))] == here
            reached[:, t] = lifted & down
        parts.append((np.full(len(rows), comp, dtype=np.int64), o, v, coef, reached))
    comp, deg, exps, coef, reached = map(np.concatenate, zip(*parts))
    if corner is not None:
        bound = int(deg.max())
    return ExplicitGradedModule(ctx.spec.companion(), bound, comp, deg, exps, coef, reached, corner)


def _window(ctx: OrdContext, bound: int) -> np.ndarray:
    """Every monomial that can have ord <= bound: those of standard degree
    <= bound + the largest generator degree, as rows."""
    top = bound + max(sum(m) for _, m in ctx.generators)
    mons = np.arange(top + 1, dtype=np.int64)[:, None]
    for _ in range(ctx.spec.num_vars - 1):
        # prepend a variable: (e, rest) for every rest and e <= top - |rest|
        reps = top + 1 - mons.sum(axis=1)
        rest = np.repeat(np.arange(len(mons)), reps)
        e = np.arange(len(rest)) - np.repeat(np.cumsum(reps) - reps, reps)
        mons = np.column_stack((e, mons[rest]))
    return mons


def gr_module(ctx: OrdContext, bound: int) -> ExplicitGradedModule:
    """The associated graded module, over the standard graded companion ring.

    The basis of graded degree i is the set of monomials of the module with
    ord = i; the variable x_t sends [v] to [x_t v] when the ord increments by
    exactly one, and to zero otherwise.
    """
    bound = as_int(bound, "bound")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return _gr_module(ctx, _window(ctx, bound), bound, None)


def gr_hilbert(ctx: OrdContext, bound: int) -> list:
    """Dimensions of the graded pieces of the associated graded module."""
    bound = as_int(bound, "bound")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    _, labels = _gr_labels(ctx, _window(ctx, bound), bound)
    ords = np.concatenate([o for _, _, _, o, _ in labels])
    return np.bincount(ords, minlength=bound + 1).tolist()


def gr_box_module(ctx: OrdContext) -> ExplicitGradedModule:
    """The quotient of gr(M) by the labels outside the box [0, a], a =
    ctx.corner: every label m <= a, stored up to the largest ord among them,
    with a as the module's multidegree window."""
    shape = tuple(c + 1 for c in ctx.corner)
    box = np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T
    return _gr_module(ctx, box, sum(ctx.corner), ctx.corner)


def gr_betti(ctx: OrdContext) -> BettiTable:
    """The whole graded Betti table of the associated graded module over the
    companion ring.

    Computed on the exponent box [0, a] (gr_box_module): every Betti
    multidegree b lies in it (module docstring), and a strand at b <= a uses
    the labels b - e_T <= a and their x_t-images, which are <= b, so it is
    the same as in gr(M).  The stored degrees cut none of its cells: e_T (x)
    (b - e_T) has degree |b| - min{|g| : g | b - e_T} <= ord(b).
    """
    return betti_via_koszul(gr_box_module(ctx))
