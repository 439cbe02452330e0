"""Exact truncations, minimal free resolutions, associated graded modules,
and Koszulness certificates for positively weighted graded polynomial rings.
"""

from .ring import (
    DimensionMismatch,
    FreeElement,
    FreeModuleSpec,
    Monomial,
    RingSpec,
)
from .gb import NotMonomial, minimal_syzygies, monomial_elements
from .complexes import (
    BettiTable,
    GradedFreeComplex,
    homology_witnesses,
    resolve_module,
)
from .egm import ExplicitGradedModule, betti_via_koszul
from .truncation import filtration_layer, trunc_gens
from .assoc_graded import OrdContext, gr_betti, gr_hilbert, gr_module
from .koszul_check import (
    KoszulReport,
    Verdict,
    koszul_verdict,
    lin_acyclicity,
    linear_part,
    recommended_bound,
)
from .construction import (
    ConstructionTrace,
    construct_gr_betti,
    horseshoe_sum,
    ses_hilbert_check,
    tensor_koszul_betti,
)
from .sweep import run_sweep, sweep_cases

__version__ = "0.1.0"
