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
stores only the labels in that box.  gr_module, gr_hilbert and extend_gr
keep the whole window up to the degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .complexes import BettiTable
from .egm import ExplicitGradedModule, betti_via_koszul, labelled_module
from .ring import (
    RingSpec,
    mon_divides,
    monomials_of_wdeg,
)


class NotInModule(ValueError):
    """The monomial lies outside the module (no generator divides it)."""


@dataclass(frozen=True)
class OrdContext:
    """Minimal monomial generators of M with their standard degrees."""

    spec: RingSpec
    generators: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "generators", tuple(sorted(set(map(self.spec.label, self.generators))))
        )
        if not self.generators:
            raise ValueError("need at least one generator")

    @property
    def num_components(self) -> int:
        return max(c for c, _ in self.generators) + 1

    def component_gens(self, comp: int):
        return [m for c, m in self.generators if c == comp]

    @property
    def corner(self) -> tuple:
        """The componentwise maximum a of all components' generator exponents."""
        return tuple(max(m[t] for _, m in self.generators) for t in range(self.spec.num_vars))

    def ord(self, v, comp: int = 0) -> int:
        """The largest i with v in m^i M."""
        comp, v = self.spec.label(v, comp)
        best = None
        for c, u in self.generators:
            if c == comp and mon_divides(u, v):
                s = self.spec.sdeg(u)
                if best is None or s < best:
                    best = s
        if best is None:
            raise NotInModule(f"{self.spec.render_monomial(v)} (component {comp}) is not in the module")
        return self.spec.sdeg(v) - best


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


def gr_module(ctx: OrdContext, bound: int) -> ExplicitGradedModule:
    """The associated graded module, over the standard graded companion ring.

    The basis of graded degree i is the set of monomials of the module with
    ord = i; the variable x_t sends [v] to [x_t v] when the ord increments by
    exactly one, and to zero otherwise.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    degrees = {}
    for comp in range(ctx.num_components):
        for m, o in _component_ord_table(ctx, comp, bound).items():
            degrees.setdefault(o, []).append((comp, m))
    return labelled_module(ctx.spec.companion(), bound, degrees)


def gr_hilbert(ctx: OrdContext, bound: int) -> list:
    """Dimensions of the graded pieces of the associated graded module."""
    dims = [0] * (bound + 1)
    for comp in range(ctx.num_components):
        for o in _component_ord_table(ctx, comp, bound).values():
            dims[o] += 1
    return dims


def gr_box_module(ctx: OrdContext, bound: int, corner: tuple) -> ExplicitGradedModule:
    """The quotient of gr_module(ctx, bound) by the labels outside the box
    [0, corner]: the labels m <= corner with ord <= bound, with corner as the
    module's multidegree window."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    n = ctx.spec.num_vars
    box = list(product(*(range(c + 1) for c in corner)))
    box_arr = np.array(box, dtype=np.int64).reshape(len(box), n)
    degrees = {}
    for comp in range(ctx.num_components):
        gen_arr = _gen_array(ctx, comp)
        if not len(gen_arr):
            continue
        ords = _ords(box_arr, gen_arr)
        for k in np.nonzero((ords >= 0) & (ords <= bound))[0]:
            degrees.setdefault(int(ords[k]), []).append((comp, box[k]))
    return labelled_module(ctx.spec.companion(), bound, degrees, corner)


def gr_betti(ctx: OrdContext, bound: int) -> BettiTable:
    """Graded Betti numbers of the associated graded module over the companion
    ring, for degrees j <= bound.

    Computed on the exponent box [0, a], a = ctx.corner (gr_box_module).  A strand at b <= a uses the
    labels b - e_T <= a and their x_t-images, which are <= b, so it is the
    same as in gr_module; every Betti multidegree lies in the box (module
    docstring).
    """
    return betti_via_koszul(gr_box_module(ctx, bound, ctx.corner), bound=bound)


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
    degrees = {
        j: tuple((comp, m + pad) for comp, m in labels)
        for j, labels in M.degrees.items()
    }
    actions = dict(M.actions)
    corner = None if M.corner is None else M.corner + pad
    return ExplicitGradedModule(full, M.bound, degrees, actions, corner)
