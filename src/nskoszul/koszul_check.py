"""The linear part of a minimal weighted resolution, its acyclicity test, and
the combined Koszulness verdict.

Three pipelines feed one report: (1) resolve the truncation over the weighted
ring, take the linear part, test acyclicity; (2) the graded Betti numbers of
the associated graded module must be concentrated on the diagonal; (3) the
layer-by-layer construction must predict exactly that Betti table.  Each
verdict is true or false, decided with no degree bound on a finite support:
lin on the generator grid, gr and the construction on the whole gr table.
A false lin verdict lists its witnesses, the grid cells where H_{>=1} is
nonzero.  A linear part that does not split into multidegree blocks has no
finite decision and raises complexes.NoFiniteDecision, which this module
re-exports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .assoc_graded import OrdContext, gr_betti
from .complexes import (
    BettiTable,
    GradedFreeComplex,
    NoFiniteDecision,
    homology_witnesses,
    resolve_module,
)
from .construction import construct_gr_betti
from .gb import monomial_elements
from .ring import FreeModuleSpec, RingSpec, as_int
from .truncation import trunc_gens


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"

    @property
    def ok(self) -> bool:
        return self is Verdict.TRUE

    def __str__(self):
        return self.value

    @classmethod
    def of(cls, ok: bool) -> "Verdict":
        return cls.TRUE if ok else cls.FALSE


EXIT_OK = 0
EXIT_FALSE = 1


def exit_status(verdicts) -> int:
    """Exit code for a set of verdicts: 1 if any is false, else 0."""
    return EXIT_OK if all(v.ok for v in verdicts) else EXIT_FALSE


def recommended_bound(spec: RingSpec, e: int) -> int:
    """Default degree cap of the infinite outputs (gr-hilbert, ses-check),
    and the bound a report records; no verdict depends on it."""
    n = spec.num_vars
    return max(e, 0) + n * spec.max_weight + n


class NotMinimal(ValueError):
    """linear_part requires a minimal complex (no unit entries)."""


def linear_part(F: GradedFreeComplex, spec: RingSpec | None = None) -> GradedFreeComplex:
    """lin(F): keep the standard-degree-1 terms of every column.

    The i-th module becomes rank(F_i) copies of the companion ring with
    generator degree i.  Terms of standard degree one survive whatever
    their weighted degree (a weight-3 variable y stays, a cube x^3 of a
    weight-1 variable drops).  A constant term raises NotMinimal.
    """
    spec = spec or F.spec
    if spec != F.spec:
        raise ValueError("spec does not match the complex")
    modules = tuple(
        FreeModuleSpec((i,) * m.rank) for i, m in enumerate(F.modules)
    )
    diffs = []
    for k, columns in enumerate(F.diffs):
        new = []
        for c, column in enumerate(columns):
            part = {}
            for (r, m), v in column.items():
                degree = sum(m)
                if degree == 1:
                    part[r, m] = v
                elif not degree:
                    raise NotMinimal(f"unit entry in d_{k + 1} at ({r}, {c})")
            new.append(part)
        diffs.append(tuple(new))
    return GradedFreeComplex(spec.companion(), modules, tuple(diffs))


def lin_acyclicity(L: GradedFreeComplex):
    """(acyclic, witnesses): acyclic iff H_i(L) = 0 for all i >= 1, in every
    internal degree.

    Decided with no degree bound on the finite grid of generator
    multidegrees: witnesses is homology_witnesses(L), the (i, j, dim) of
    every grid cell where H_i(L) != 0 with i >= 1, and is empty exactly when
    L is acyclic.  A complex that does not split into multidegree blocks
    raises NoFiniteDecision.
    """
    try:
        witnesses = homology_witnesses(L)
    except NoFiniteDecision as exc:
        raise NoFiniteDecision(f"in the linear part, {exc}") from None
    return not witnesses, witnesses


def witness_records(witnesses) -> list:
    """The json shape of lin witnesses: one {"i", "j", "dim"} per cell."""
    return [{"i": i, "j": j, "dim": d} for i, j, d in witnesses]


@dataclass(frozen=True)
class KoszulReport:
    """Verdicts and evidence from the three verification pipelines.

    lin_homology_nonzero holds the lin witnesses, (i, j, dim) per grid cell.
    """

    spec: RingSpec
    e: int
    recommended: int
    lin_acyclic: Verdict
    gr_linear: Verdict
    construction_match: Verdict
    resolution_betti: BettiTable
    gr_table: BettiTable
    construct_table: BettiTable
    lin_homology_nonzero: tuple
    generators: tuple

    @property
    def all_true(self) -> bool:
        return all(v.ok for v in self.verdicts().values())

    def verdicts(self) -> dict:
        return {
            "lin_acyclic": self.lin_acyclic,
            "gr_linear": self.gr_linear,
            "construction_match": self.construction_match,
        }

    def to_dict(self) -> dict:
        return {
            "ring": self.spec.to_dict(),
            "e": self.e,
            # both keys predate the bound-free verdicts; the sweep json keeps them
            "bound": self.recommended,
            "recommended_bound": self.recommended,
            "generators": [self.spec.render_monomial(m) for m in self.generators],
            "betti": self.gr_table.records(),
            "resolution_betti": self.resolution_betti.records(),
            "verdicts": {k: str(v) for k, v in self.verdicts().items()},
            "lin_homology_nonzero": witness_records(self.lin_homology_nonzero),
        }


def koszul_verdict(spec: RingSpec, e: int) -> KoszulReport:
    """Run all three pipelines on the degree >= e truncation of the ring.

    Every verdict is decided in full on its finite support.  Pipeline
    disagreement is a false verdict, never silently reconciled.  Raises
    ValueError for a non-integral threshold.
    """
    e = as_int(e, "threshold")
    gens = trunc_gens(spec, e)

    F = resolve_module(monomial_elements(spec, gens))
    acyclic, witnesses = lin_acyclicity(linear_part(F, spec))

    gr_table = gr_betti(OrdContext(spec, gens))
    construct_table, _trace = construct_gr_betti(spec.weights, e)

    return KoszulReport(
        spec=spec,
        e=e,
        recommended=recommended_bound(spec, e),
        lin_acyclic=Verdict.of(acyclic),
        gr_linear=Verdict.of(gr_table.is_diagonal()),
        construction_match=Verdict.of(construct_table == gr_table),
        resolution_betti=F.betti_from_twists(),
        gr_table=gr_table,
        construct_table=construct_table,
        lin_homology_nonzero=tuple(witnesses),
        generators=tuple(gens),
    )
