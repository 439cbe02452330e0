"""Exact truncations, minimal free resolutions, associated graded modules,
and Koszulness certificates for positively weighted graded polynomial rings.
"""

from .ring import (
    DimensionMismatch,
    FreeElement,
    FreeModuleSpec,
    Monomial,
    Polynomial,
    RingSpec,
    default_characteristic,
    monomial_compare,
    standard_degree,
    weighted_degree,
)
from .gb import (
    GroebnerBasis,
    InhomogeneousInput,
    buchberger,
    graded_span_dims,
    minimal_generators,
    monomial_elements,
    normal_form,
    schreyer_syzygies,
    syzygies,
)
from .complexes import (
    BettiTable,
    GradedFreeComplex,
    check_complex,
    homology_dims,
    koszul_complex,
    minimize_complex,
    positive_homology_vanishes,
    resolve_module,
    taylor_complex,
    totalize_tensor,
)
from .egm import ExplicitGradedModule, betti_via_koszul, monomial_module
from .truncation import filtration_layer, trunc_free_gens, trunc_gens
from .assoc_graded import NotInModule, OrdContext, extend_gr, gr_betti, gr_hilbert, gr_module
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
    construct_free_betti,
    construct_gr_betti,
    horseshoe_sum,
    ses_hilbert_check,
    tensor_koszul_betti,
)
from .sweep import run_sweep, sweep_cases

__version__ = "0.1.0"
