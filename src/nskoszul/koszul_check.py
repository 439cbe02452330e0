"""The linear part of a minimal weighted resolution, its acyclicity test, and
the combined Koszulness verdict.

Three pipelines feed one report: (1) resolve the truncation over the weighted
ring, take the linear part, test acyclicity; (2) the graded Betti numbers of
the associated graded module must be concentrated on the diagonal; (3) the
layer-by-layer construction must predict exactly that Betti table.  Verdicts
only ever refer to internal degrees up to the recorded bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .assoc_graded import OrdContext, gr_betti
from .complexes import (
    BettiTable,
    GradedFreeComplex,
    homology_dims,
    positive_homology_vanishes,
    resolve_module,
)
from .construction import construct_gr_betti
from .gb import monomial_elements
from .ring import FreeModuleSpec, Polynomial, RingSpec
from .truncation import trunc_gens


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"

    @property
    def ok(self) -> bool:
        return self is Verdict.TRUE

    def __str__(self):
        return self.value

    @classmethod
    def at_bound(cls, ok: bool, bound: int, recommended: int) -> "Verdict":
        """A failed check is false; a passed one is true only at a bound no
        lower than the recommended one, and inconclusive below it."""
        if not ok:
            return cls.FALSE
        return cls.TRUE if bound >= recommended else cls.INCONCLUSIVE


EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INCONCLUSIVE = 3


def exit_status(verdicts) -> int:
    """Exit code for a set of verdicts: 1 if any is false, else 0 if all are
    true, else 3 (clean but inconclusive)."""
    verdicts = list(verdicts)
    if Verdict.FALSE in verdicts:
        return EXIT_FALSE
    return EXIT_OK if all(v.ok for v in verdicts) else EXIT_INCONCLUSIVE


def recommended_bound(spec: RingSpec, e: int) -> int:
    """Default certification bound for truncation workloads."""
    n = spec.num_vars
    return max(e, 0) + n * spec.max_weight + n


class NotMinimal(ValueError):
    """linear_part requires a minimal complex (no unit entries)."""


def linear_part(F: GradedFreeComplex, spec: RingSpec | None = None) -> GradedFreeComplex:
    """lin(F): keep the standard-degree-1 component of every entry.

    The i-th module becomes rank(F_i) copies of the companion ring with
    generator degree i.  Entries of standard degree one survive whatever
    their weighted degree (a weight-3 variable y stays, a cube x^3 of a
    weight-1 variable drops).
    """
    spec = spec or F.spec
    if spec != F.spec:
        raise ValueError("spec does not match the complex")
    for k, mat in enumerate(F.diffs):
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if entry and entry.is_constant():
                    raise NotMinimal(f"unit entry in d_{k + 1} at ({r}, {c})")
    companion = spec.companion()
    modules = tuple(
        FreeModuleSpec((i,) * m.rank) for i, m in enumerate(F.modules)
    )
    diffs = []
    for mat in F.diffs:
        new = tuple(
            tuple(
                Polynomial(companion, entry.std_degree_part(1).coeffs)
                for entry in row
            )
            for row in mat
        )
        diffs.append(new)
    return GradedFreeComplex(companion, modules, tuple(diffs))


def lin_acyclicity(L: GradedFreeComplex, bound: int):
    """True iff H_i(L)_j = 0 for all i >= 1 and j <= bound.

    Returns (acyclic, nonzero) where nonzero lists the offending
    (i, j) -> dimension entries.  Acyclicity is first decided with no
    degree bound on the finite grid of generator multidegrees
    (positive_homology_vanishes); only when that finds homology somewhere
    does the bounded count homology_dims run, on the same grid cells, to
    report the witnesses with j <= bound.  A grid point's homology holds on
    its whole cell, whose multidegrees of degree j number the z^j
    coefficient of prod_t sum_k z^(w_t k), k over the cell's range in t.
    """
    if positive_homology_vanishes(L):
        return True, {}
    dims = homology_dims(L, bound)
    nonzero = {key: d for key, d in dims.items() if key[0] >= 1}
    return (not nonzero), nonzero


@dataclass(frozen=True)
class KoszulReport:
    """Verdicts and evidence from the three verification pipelines."""

    spec: RingSpec
    e: int
    bound: int
    recommended: int
    lin_acyclic: Verdict
    gr_linear: Verdict
    construction_match: Verdict
    resolution_betti: BettiTable
    lin_betti: BettiTable
    gr_table: BettiTable
    construct_table: BettiTable
    lin_homology_nonzero: tuple
    generators: tuple

    @property
    def all_true(self) -> bool:
        return all(v.ok for v in self.verdicts().values())

    @property
    def any_false(self) -> bool:
        return any(v is Verdict.FALSE for v in self.verdicts().values())

    def verdicts(self) -> dict:
        return {
            "lin_acyclic": self.lin_acyclic,
            "gr_linear": self.gr_linear,
            "construction_match": self.construction_match,
        }

    def to_dict(self) -> dict:
        return {
            "ring": {
                "names": list(self.spec.names),
                "weights": list(self.spec.weights),
                "char": self.spec.char,
            },
            "e": self.e,
            "bound": self.bound,
            "recommended_bound": self.recommended,
            "generators": [self.spec.render_monomial(m) for m in self.generators],
            "betti": [
                {"i": i, "j": j, "rank": r} for i, j, r in self.gr_table.entries
            ],
            "resolution_betti": [
                {"i": i, "j": j, "rank": r}
                for i, j, r in self.resolution_betti.entries
            ],
            "verdicts": {k: str(v) for k, v in self.verdicts().items()},
            "lin_homology_nonzero": [
                {"i": i, "j": j, "dim": d} for (i, j), d in self.lin_homology_nonzero
            ],
        }


def koszul_verdict(spec: RingSpec, e: int, bound: int | None = None) -> KoszulReport:
    """Run all three pipelines on the degree >= e truncation of the ring.

    Pipeline disagreement is reported as a failed verdict, never silently
    reconciled; a clean result below the recommended bound is reported as
    inconclusive rather than true.
    """
    rec = recommended_bound(spec, e)
    b = rec if bound is None else bound
    gens = trunc_gens(spec, e)

    F = resolve_module(monomial_elements(spec, gens), minimize=True)
    L = linear_part(F, spec)
    acyclic, nonzero = lin_acyclicity(L, b)

    ctx = OrdContext(spec, tuple((0, m) for m in gens))
    gr_table = gr_betti(ctx, b)
    linear = all(i == j for i, j, _ in gr_table.entries)

    construct_table, _trace = construct_gr_betti(spec.weights, e)
    match = construct_table.restrict(b) == gr_table.restrict(b)

    return KoszulReport(
        spec=spec,
        e=e,
        bound=b,
        recommended=rec,
        lin_acyclic=Verdict.at_bound(acyclic, b, rec),
        gr_linear=Verdict.at_bound(linear, b, rec),
        construction_match=Verdict.at_bound(match, b, rec),
        resolution_betti=F.betti_from_twists(),
        lin_betti=L.betti_from_twists(),
        gr_table=gr_table,
        construct_table=construct_table,
        lin_homology_nonzero=tuple(sorted(nonzero.items())),
        generators=tuple(gens),
    )
