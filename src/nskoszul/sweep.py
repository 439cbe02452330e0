"""Batch verification over a grid of weight multisets and thresholds.

Cases are independent pure computations; an optional process pool fans them
out and the result order is fixed by sorting (number of variables, weights,
threshold), never by arrival.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from multiprocessing import Pool

from .koszul_check import KoszulReport, exit_status, koszul_verdict, recommended_bound
from .ring import RingSpec, default_characteristic


@dataclass(frozen=True)
class SweepCase:
    weights: tuple
    e: int
    bound: int
    char: int


@dataclass(frozen=True)
class SweepRow:
    case: SweepCase
    report: KoszulReport
    elapsed: float

    def sort_key(self):
        return (len(self.case.weights), self.case.weights, self.case.e)


def sweep_cases(max_vars: int, max_weight: int, max_e: int, char: int | None = None):
    """All weight multisets with n <= max_vars, weights <= max_weight, 1 <= e <= max_e."""
    if char is None:
        char = default_characteristic()
    cases = []
    for n in range(1, max_vars + 1):
        for weights in combinations_with_replacement(range(1, max_weight + 1), n):
            spec = RingSpec(weights, char=char)
            for e in range(1, max_e + 1):
                cases.append(
                    SweepCase(weights, e, recommended_bound(spec, e), char)
                )
    cases.sort(key=lambda c: (len(c.weights), c.weights, c.e))
    return cases


def run_case(case: SweepCase) -> SweepRow:
    spec = RingSpec(case.weights, char=case.char)
    start = time.perf_counter()
    report = koszul_verdict(spec, case.e, case.bound)
    return SweepRow(case, report, time.perf_counter() - start)


def run_sweep(
    max_vars: int,
    max_weight: int,
    max_e: int,
    char: int | None = None,
    jobs: int = 1,
):
    cases = sweep_cases(max_vars, max_weight, max_e, char)
    if jobs > 1 and len(cases) > 1:
        with Pool(jobs) as pool:
            rows = pool.map(run_case, cases)
    else:
        rows = [run_case(c) for c in cases]
    rows.sort(key=SweepRow.sort_key)
    return rows


def rows_to_csv(rows, max_hom: int | None = None) -> str:
    """Frozen CSV format; timings are deliberately excluded for byte stability."""
    if max_hom is None:
        max_hom = max(
            (r.report.gr_table.max_hom() for r in rows), default=0
        )
        max_hom = max(max_hom, 0)
    header = (
        "vars,weights,e,bound,lin_acyclic,gr_linear,construction_match,"
        + ",".join(f"beta_total_{i}" for i in range(max_hom + 1))
    )
    lines = [header]
    for r in rows:
        betti = [str(r.report.gr_table.total(i)) for i in range(max_hom + 1)]
        lines.append(
            ",".join(
                [
                    str(len(r.case.weights)),
                    "+".join(map(str, r.case.weights)),
                    str(r.case.e),
                    str(r.case.bound),
                    str(r.report.lin_acyclic),
                    str(r.report.gr_linear),
                    str(r.report.construction_match),
                ]
                + betti
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_dicts(rows) -> list:
    return [
        {
            "weights": list(r.case.weights),
            "e": r.case.e,
            "report": r.report.to_dict(),
        }
        for r in rows
    ]


def sweep_exit_status(rows) -> int:
    return exit_status(v for r in rows for v in r.report.verdicts().values())
