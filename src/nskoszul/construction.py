"""The layer-by-layer construction of the linear Betti table of the associated
graded module of a truncation, run as an executable recursion.

For one variable, or a threshold at most zero, every truncation is principal
and the table is free.  Otherwise pick a variable y of maximal weight d (ties
broken by largest index), set N = ceil(e / d), and walk the filtration layers
M intersect <y^i> downward from the principal top layer <y^N>: each step
resolves the quotient layer recursively over the remaining variables, extends
it by the Koszul complex on y (which convolves the table with one extra
exterior variable), and stacks it onto the running table by a degreewise
direct sum, exactly as the Horseshoe lemma prescribes for short exact
sequences whose outer resolutions are linear and generated in degree zero.

Only rank and twist data are constructed; the connecting maps are
non-canonical and nothing downstream needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

from .assoc_graded import OrdContext, gr_hilbert
from .complexes import BettiTable
from .ring import DEFAULT_CHAR, RingSpec, as_int
from .truncation import filtration_layer, trunc_gens


def _pick_last_variable(weights) -> int:
    """Index of a maximal-weight variable, largest index among ties."""
    d = max(weights)
    return max(i for i, w in enumerate(weights) if w == d)


FREE_TABLE = BettiTable(((0, 0, 1),))


def layer_count(weights, e: int) -> int:
    """N = ceil(e / d), d the largest weight: the layers M^(i), 0 <= i < N,
    lie above the principal top layer <y^N>.  For e <= 0 the truncation is
    the whole ring, and there are no layers."""
    return ceil(e / max(weights)) if e > 0 else 0


@lru_cache(maxsize=None)
def _construct(weights_sorted: tuple, e: int) -> BettiTable:
    # Memoized table of the sub-rings the recursion visits.
    return construct_gr_betti(weights_sorted, e)[0]


@dataclass(frozen=True)
class ConstructionStep:
    variable: int
    variable_weight: int
    layer: int
    N: int
    sub_weights: tuple
    sub_threshold: int
    sub_table: BettiTable
    after_tensor: BettiTable
    after_horseshoe: BettiTable

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "variable_weight": self.variable_weight,
            "layer": self.layer,
            "N": self.N,
            "sub_weights": list(self.sub_weights),
            "sub_threshold": self.sub_threshold,
            "sub_table": [list(t) for t in self.sub_table.entries],
            "after_tensor": [list(t) for t in self.after_tensor.entries],
            "after_horseshoe": [list(t) for t in self.after_horseshoe.entries],
        }


@dataclass(frozen=True)
class ConstructionTrace:
    weights: tuple
    e: int
    N: int
    variable: int
    steps: tuple
    final: BettiTable

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "e": self.e,
            "N": self.N,
            "variable": self.variable,
            "steps": [s.to_dict() for s in self.steps],
            "final": [list(t) for t in self.final.entries],
        }


def construct_gr_betti(weights, e: int):
    """Predicted Betti table of the associated graded truncation, with trace.

    All entries land on the diagonal j = i by construction.  Raises
    ValueError for a non-positive or non-integral weight, or a non-integral
    threshold.
    """
    weights = tuple(as_int(w, "weight") for w in weights)
    e = as_int(e, "threshold")
    if any(w < 1 for w in weights) or not weights:
        raise ValueError(f"weights must be positive, got {weights}")
    if e <= 0 or len(weights) == 1:
        trace = ConstructionTrace(weights, e, 0, -1, (), FREE_TABLE)
        return FREE_TABLE, trace
    var = _pick_last_variable(weights)
    d = weights[var]
    rest = tuple(w for i, w in enumerate(weights) if i != var)
    N = layer_count(weights, e)
    running = FREE_TABLE
    steps = []
    for i in range(N - 1, -1, -1):
        sub_e = e - d * i
        sub = _construct(tuple(sorted(rest)), sub_e)
        tensored = tensor_koszul_betti(sub)
        running = horseshoe_sum(tensored, running)
        steps.append(
            ConstructionStep(
                variable=var,
                variable_weight=d,
                layer=i,
                N=N,
                sub_weights=rest,
                sub_threshold=sub_e,
                sub_table=sub,
                after_tensor=tensored,
                after_horseshoe=running,
            )
        )
    return running, ConstructionTrace(weights, e, N, var, tuple(steps), running)


def tensor_koszul_betti(b: BettiTable) -> BettiTable:
    """Convolve a diagonal table with the Koszul complex on one new variable.

    beta'_i = beta_i + beta_{i-1}; matches the Betti table of the totalized
    tensor product on realized complexes.
    """
    ranks = [0] + b.diagonal_ranks() + [0]  # ranks[i + 1] is beta_i
    return BettiTable(tuple((i, i, ranks[i] + ranks[i + 1]) for i in range(len(ranks) - 1)))


def horseshoe_sum(left: BettiTable, right: BettiTable) -> BettiTable:
    """Degreewise direct sum of two linear tables (the Horseshoe step)."""
    if not left.is_diagonal() or not right.is_diagonal():
        raise ValueError("horseshoe sum requires diagonal (linear) tables")
    return left + right


def ses_hilbert_check(weights, e: int, i: int, bound: int, char: int = DEFAULT_CHAR):
    """Degreewise Hilbert additivity of the graded layer sequences.

    Checks gr-Hilbert(M^(i)) = gr-Hilbert(M^(i+1)) + gr-Hilbert of the layer
    quotient, which is the truncation of the smaller ring at e - d*i with the
    eliminated variable acting as zero.  Returns (ok, lhs, rhs).
    """
    spec = RingSpec(tuple(weights), char=char)
    e, i, bound = as_int(e, "threshold"), as_int(i, "layer index"), as_int(bound, "bound")
    var = _pick_last_variable(spec.weights)
    d = spec.weights[var]
    N = layer_count(spec.weights, e)
    if not N:
        raise ValueError(f"no layers at e = {e}: the truncation is the whole ring")
    if not 0 <= i < N:
        raise ValueError(f"layer index {i} outside 0..{N - 1}")
    gens = trunc_gens(spec, e)
    lhs = gr_hilbert(OrdContext(spec, filtration_layer(gens, i, var)), bound)
    mid = gr_hilbert(OrdContext(spec, filtration_layer(gens, i + 1, var)), bound)
    if spec.num_vars == 1:
        # the remaining ring is the field: its truncation is k for
        # thresholds <= 0 and zero otherwise
        quot = [0] * (bound + 1)
        if e - d * i <= 0:
            quot[0] = 1
    else:
        sub = spec.drop_variable(var)
        quot = gr_hilbert(OrdContext(sub, trunc_gens(sub, e - d * i)), bound)
    rhs = [a + b for a, b in zip(mid, quot)]
    return lhs == rhs, lhs, rhs
