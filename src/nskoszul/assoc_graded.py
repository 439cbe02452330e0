"""The associated graded module of a monomial submodule, computed through the
order function: for monomial modules the largest i with v in m^i M equals the
standard degree of v minus the smallest standard degree of a generator
dividing it.  The result is exposed as an ExplicitGradedModule over the
standard graded companion ring.

Generator twists are deliberately absent here: the associated graded
construction does not see them, so two truncations that agree as monomial
sets produce literally identical modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import BettiTable
from .egm import ExplicitGradedModule, betti_via_koszul
from .ring import (
    RingSpec,
    mon_divides,
    mon_mul,
    mon_var,
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


def _component_ord_table(ctx: OrdContext, comp: int, bound: int) -> dict:
    """monomial -> ord for all v in the component with ord <= bound."""
    gens = ctx.component_gens(comp)
    if not gens:
        return {}
    spec = ctx.spec
    n = spec.num_vars
    gen_arr = np.array(gens, dtype=np.int64).reshape(len(gens), n)
    gen_sdeg = gen_arr.sum(axis=1)
    max_gen = int(gen_sdeg.max())
    companion = spec.companion()
    out = {}
    for sd in range(bound + max_gen + 1):
        mons = monomials_of_wdeg(companion, sd)
        if not mons:
            continue
        cand = np.array(mons, dtype=np.int64).reshape(len(mons), n)
        div = np.all(cand[:, None, :] >= gen_arr[None, :, :], axis=2)
        any_div = div.any(axis=1)
        if not any_div.any():
            continue
        masked = np.where(div, gen_sdeg[None, :], np.iinfo(np.int64).max)
        min_deg = masked.min(axis=1)
        ords = sd - min_deg
        for k in np.nonzero(any_div)[0]:
            o = int(ords[k])
            if o <= bound:
                out[mons[k]] = o
    return out


def gr_module(ctx: OrdContext, bound: int) -> ExplicitGradedModule:
    """The associated graded module, over the standard graded companion ring.

    The basis of graded degree i is the set of monomials of the module with
    ord = i; the variable x_t sends [v] to [x_t v] when the ord increments by
    exactly one, and to zero otherwise.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    spec = ctx.spec
    companion = spec.companion()
    n = spec.num_vars
    tables = {
        comp: _component_ord_table(ctx, comp, bound)
        for comp in range(ctx.num_components)
    }
    degrees = {}
    index = {}
    for comp, table in tables.items():
        for m, o in table.items():
            degrees.setdefault(o, []).append((comp, m))
    final = {}
    for o, labels in degrees.items():
        labels.sort(key=lambda lb: (lb[0], tuple(reversed(lb[1]))))
        final[o] = tuple(labels)
        for pos, lb in enumerate(labels):
            index[lb] = (o, pos)
    actions = {}
    for o, labels in final.items():
        if o + 1 > bound:
            continue
        for var in range(n):
            step = mon_var(n, var)
            triples = []
            for col, (comp, m) in enumerate(labels):
                target = (comp, mon_mul(m, step))
                hit = index.get(target)
                if hit is not None and hit[0] == o + 1:
                    triples.append((hit[1], col, 1))
            if triples:
                actions[(var, o)] = tuple(triples)
    return ExplicitGradedModule(companion, bound, final, actions)


def gr_hilbert(ctx: OrdContext, bound: int) -> list:
    """Dimensions of the graded pieces of the associated graded module."""
    dims = [0] * (bound + 1)
    for comp in range(ctx.num_components):
        for o in _component_ord_table(ctx, comp, bound).values():
            dims[o] += 1
    return dims


def gr_betti(ctx: OrdContext, bound: int) -> BettiTable:
    """Graded Betti numbers of the associated graded module over the companion ring."""
    return betti_via_koszul(gr_module(ctx, bound), bound=bound)


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
    return ExplicitGradedModule(full, M.bound, degrees, actions)
