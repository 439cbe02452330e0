"""The benchmark's workloads: case lists, one-case runners and output checks.

Every workload is a closed loop over a fixed case list, one case at a time in
one process.  The characteristic is pinned so that the program receives only
the inputs generated here, whatever the environment says.

Each case's output is compared with the table recorded from the unmodified
program (``golden/``), and with one identity that does not depend on that
recording.  Every program call goes through a module attribute
(``complexes.resolve_module``, not a local name), so the tracer in
``tracing.py`` sees it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from nskoszul import (  # noqa: E402
    assoc_graded,
    complexes,
    construction,
    egm,
    gb,
    koszul_check,
    sweep,
    truncation,
)
from nskoszul.ring import RingSpec  # noqa: E402

CHAR = 32003

# sha256 of `sweep --max-vars 3 --max-weight 4 --max-e 12 --format csv` at the
# seed commit; golden/grid3.csv is that output, one row per case.
GRID3_GOLDEN_SHA256 = "650d0329263a679a73ae3806bfa2b4ec7917e74b41322bb93cf14c1d48d7ce86"
GRID3_MAX_HOM = 3


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_key(weights, e) -> str:
    return "+".join(map(str, weights)) + f":{e}"


def hilbert_identity_holds(weights, e, entries) -> bool:
    """sum_i (-1)^i sum_j beta_ij t^j == H(R_{>=e}, t) * prod_k (1 - t^{w_k}).

    entries are the (i, j, rank) of a minimal free resolution of the degree
    >= e truncation of the weighted ring, j its weighted degree.  Both sides
    are compared coefficient by coefficient up to past the top Betti degree,
    with the Hilbert function counted here by brute force.
    """
    top = max((j for _, j, _ in entries), default=0) + sum(weights) + 1
    # number of monomials of each weighted degree d <= top
    count = [1] + [0] * top
    for w in weights:
        for d in range(w, top + 1):
            count[d] += count[d - w]
    rhs = [count[d] if d >= e else 0 for d in range(top + 1)]
    for w in weights:
        rhs = [rhs[d] - (rhs[d - w] if d >= w else 0) for d in range(top + 1)]
    lhs = [0] * (top + 1)
    for i, j, r in entries:
        lhs[j] += (-1) ** i * r
    return lhs == rhs


class Workload:
    """One workload: its cases, how to run one, and how to check the output."""

    name = ""

    def __init__(self):
        self._golden = None

    def cases(self) -> list:
        raise NotImplementedError

    def warmup_case(self):
        """The fixed case that set-up runs once before timing."""
        raise NotImplementedError

    def key(self, case) -> str:
        return case_key(case[0], case[1])

    def run(self, case):
        """Call the program on one case and return its raw output."""
        raise NotImplementedError

    def summary(self, case, out):
        """The JSON-able part of the output that the golden file records."""
        raise NotImplementedError

    def identity_problem(self, case, out) -> str | None:
        """An independent check of one output; a message when it fails."""
        raise NotImplementedError

    def load_golden(self) -> dict:
        with open(GOLDEN / f"{self.name}.json") as fh:
            return json.load(fh)

    def golden(self) -> dict:
        if self._golden is None:
            self._golden = self.load_golden()
        return self._golden

    def problem(self, case, out) -> str | None:
        """Why this output is wrong, or None when it passes every check."""
        want = self.golden()["cases"].get(self.key(case))
        if want is None:
            return f"{self.key(case)}: no recorded output"
        got = self.summary(case, out)
        if got != want:
            return f"{self.key(case)}: output {got!r} differs from recorded {want!r}"
        return self.identity_problem(case, out)


class Grid3(Workload):
    """koszul_verdict through the sweep, over part of the acceptance grid.

    The acceptance grid is n <= 3, weights <= 4, e <= 12 (408 cases, about
    210 s single-process).  One pass here takes its 63 cases with weights
    <= 2 and e <= 7, about 7 s, so that several passes fit in one run; high
    e on light weights keeps lin homology the dominant layer, as on the full
    grid.  Every row is checked against the golden CSV of the full grid.
    """

    name = "grid3"
    max_weight = 2
    max_e = 7

    def cases(self):
        return [
            c
            for c in sweep.sweep_cases(3, 4, 12, char=CHAR)
            if max(c.weights) <= self.max_weight and c.e <= self.max_e
        ]

    def warmup_case(self):
        weights, e = (1, 2), 4
        bound = koszul_check.recommended_bound(RingSpec(weights, char=CHAR), e)
        return sweep.SweepCase(weights, e, bound, CHAR)

    def key(self, case):
        return case_key(case.weights, case.e)

    def run(self, case):
        return sweep.run_case(case)

    def summary(self, case, row):
        return sweep.rows_to_csv([row], max_hom=GRID3_MAX_HOM).splitlines()[1]

    def identity_problem(self, case, row):
        if not row.report.all_true:
            return f"{self.key(case)}: verdicts {row.report.verdicts()}"
        if not hilbert_identity_holds(case.weights, case.e, row.report.resolution_betti.entries):
            return f"{self.key(case)}: resolution fails the Hilbert series identity"
        return None

    def load_golden(self):
        text = (GOLDEN / "grid3.csv").read_text()
        if sha256_text(text) != GRID3_GOLDEN_SHA256:
            raise RuntimeError("golden/grid3.csv does not match the golden sweep hash")
        header, *lines = text.splitlines()
        cases = {}
        for line in lines:
            _, weights, e = line.split(",")[:3]
            cases[case_key(weights.split("+"), e)] = line
        return {"header": header, "cases": cases}


def four_variable_cases(max_weight: int, max_e: int) -> list:
    return [
        (weights, e)
        for weights in combinations_with_replacement(range(1, max_weight + 1), 4)
        for e in range(1, max_e + 1)
    ]


class Resolve4(Workload):
    """trunc_gens -> resolve_module -> linear_part, the CLI `resolve` traffic.

    Four variables, weights <= 3, e <= 6 (90 cases).  Homology and Koszul
    strands never run, so the Buchberger/Schreyer layer and linear_part
    carry the time.
    """

    name = "resolve4"

    def cases(self):
        return four_variable_cases(3, 6)

    def warmup_case(self):
        return ((1, 1, 2, 3), 3)

    def run(self, case):
        weights, e = case
        spec = RingSpec(weights, char=CHAR)
        gens = truncation.trunc_gens(spec, e)
        F = complexes.resolve_module(gb.monomial_elements(spec, gens), minimize=True)
        L = koszul_check.linear_part(F, spec)
        return F, L

    def summary(self, case, out):
        F, L = out
        terms = sum(1 for mat in L.diffs for row in mat for entry in row if entry)
        return {
            "resolution": [list(t) for t in F.betti_from_twists().entries],
            "linear": [list(t) for t in L.betti_from_twists().entries],
            "linear_terms": terms,
        }

    def identity_problem(self, case, out):
        F, _ = out
        if not hilbert_identity_holds(case[0], case[1], F.betti_from_twists().entries):
            return f"{self.key(case)}: resolution fails the Hilbert series identity"
        return None


class Gr4(Workload):
    """gr_module -> betti_via_koszul against construct_gr_betti.

    The traffic of the CLI `gr-betti` and `construct` commands, on four
    variables with weights <= 2 and e <= 3 (15 cases, about 6 s a pass).
    Koszul strands carry most of the time; neither Groebner bases nor
    homology run.
    """

    name = "gr4"

    def cases(self):
        return four_variable_cases(2, 3)

    def warmup_case(self):
        return ((1, 1, 1, 2), 1)

    def run(self, case):
        weights, e = case
        spec = RingSpec(weights, char=CHAR)
        bound = koszul_check.recommended_bound(spec, e)
        ctx = assoc_graded.OrdContext(
            spec, tuple((0, m) for m in truncation.trunc_gens(spec, e))
        )
        gr = egm.betti_via_koszul(assoc_graded.gr_module(ctx, bound), bound=bound)
        constructed, _trace = construction.construct_gr_betti(weights, e)
        return bound, gr, constructed.restrict(bound)

    def summary(self, case, out):
        bound, gr, constructed = out
        return {
            "bound": bound,
            "gr": [list(t) for t in gr.entries],
            "construction": [list(t) for t in constructed.entries],
        }

    def identity_problem(self, case, out):
        _, gr, constructed = out
        if gr != constructed:
            return f"{self.key(case)}: construction table differs from the gr table"
        if not gr.is_diagonal():
            return f"{self.key(case)}: gr table is not diagonal"
        return None


WORKLOADS = {w.name: w for w in (Grid3(), Resolve4(), Gr4())}
