"""Exact arithmetic kernel: prime fields, weighted monomials and their order,
the text form of polynomial entries, and elements of twisted free modules.

Monomials are plain exponent tuples.  A :class:`RingSpec` fixes the number of
variables, their positive integer weights and a prime characteristic; the
standard graded companion ring keeps the variable names and sets every weight
to 1.  All values are immutable after construction, so they can be shared
freely across threads or processes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

Monomial = tuple  # exponent vector, one entry per variable

DEFAULT_CHAR = 32003


class DimensionMismatch(ValueError):
    """Exponent vector length does not match the ring."""


# The rank kernel works on Python ints and needs no bound.  Only the tests'
# dense oracles multiply two residues in int64, so the bound is kept as input
# validation: every supported characteristic is one they can check.
MAX_CHAR = 2**31

# Miller-Rabin with these bases is exact for every n < 3.3 * 10**24
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic primality range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_int(value, what: str) -> int:
    """value as an int, refusing (never truncating) a non-integral value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_characteristic(p: int) -> int:
    """Return p if it is a prime the arithmetic kernels support, else raise."""
    p = as_int(p, "characteristic")
    if not 2 <= p < MAX_CHAR:
        raise ValueError(
            f"characteristic {p} is outside the supported range 2 <= p < 2**31"
        )
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    return p


# ---------------------------------------------------------------------------
# monomial helpers


def mon_one(n: int) -> Monomial:
    return (0,) * n


def mon_divides(a: Monomial, b: Monomial) -> bool:
    """Does a divide b?"""
    return all(x <= y for x, y in zip(a, b))


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# ring specification


@dataclass(frozen=True)
class RingSpec:
    """A positively weighted polynomial ring over a prime field."""

    weights: tuple
    names: tuple = ()
    char: int = DEFAULT_CHAR

    def __post_init__(self):
        weights = tuple(as_int(w, "weight") for w in self.weights)
        if not weights:
            raise ValueError("ring needs at least one variable")
        if any(w < 1 for w in weights):
            raise ValueError(f"weights must be positive integers, got {weights}")
        object.__setattr__(self, "weights", weights)
        names = tuple(self.names)
        if not names:
            if len(weights) == 1:
                names = ("x",)
            else:
                names = tuple(f"x{i + 1}" for i in range(len(weights)))
        if len(names) != len(weights):
            raise ValueError("need one name per variable")
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct, got {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "char", check_characteristic(self.char))

    @property
    def num_vars(self) -> int:
        return len(self.weights)

    @property
    def max_weight(self) -> int:
        return max(self.weights)

    def companion(self) -> "RingSpec":
        """The standard graded companion ring (all weights 1)."""
        return self._derived((1,) * self.num_vars, self.names)

    def to_dict(self) -> dict:
        """The json shape of the ring."""
        return {"names": list(self.names), "weights": list(self.weights), "char": self.char}

    def drop_variable(self, idx: int) -> "RingSpec":
        if not 0 <= idx < self.num_vars:
            raise ValueError(f"bad variable index {idx}")
        if self.num_vars == 1:
            raise ValueError("ring needs at least one variable")
        return self._derived(
            self.weights[:idx] + self.weights[idx + 1:],
            self.names[:idx] + self.names[idx + 1:],
        )

    def _derived(self, weights: tuple, names: tuple) -> "RingSpec":
        """A ring over this ring's field, built without checking again: its
        positive weights and distinct names are taken from this ring, and
        its characteristic was checked prime when this ring was built."""
        spec = object.__new__(RingSpec)
        object.__setattr__(spec, "weights", weights)
        object.__setattr__(spec, "names", names)
        object.__setattr__(spec, "char", self.char)
        return spec

    def _check(self, m: Monomial) -> None:
        if len(m) != self.num_vars:
            raise DimensionMismatch(
                f"monomial has {len(m)} exponents, ring has {self.num_vars} variables"
            )

    def label(self, g) -> tuple:
        """(component, monomial) from a monomial or a (component, monomial) pair.

        A plain monomial is placed in component 0.  The component must be a
        non-negative integer.
        """
        if len(g) == 2 and isinstance(g[1], (tuple, list)):
            comp, m = g[0], tuple(g[1])
        else:
            comp, m = 0, tuple(g)
        comp = as_int(comp, "component")
        if comp < 0:
            raise ValueError(f"component {comp} is negative")
        if len(m) != self.num_vars:
            raise DimensionMismatch(
                f"{g!r} is neither a monomial nor a (component, monomial) pair "
                f"over {self.num_vars} variables"
            )
        return comp, m

    def wdeg(self, m: Monomial) -> int:
        """Weighted degree of a monomial."""
        self._check(m)
        return sum(a * d for a, d in zip(m, self.weights))

    def one(self) -> Monomial:
        return mon_one(self.num_vars)

    def render_monomial(self, m: Monomial) -> str:
        self._check(m)
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def render_terms(self, terms: dict) -> str:
        """A monomial -> coefficient map as text: terms in descending weighted
        degrevlex order, each coefficient in the symmetric range about 0."""
        if not terms:
            return "0"
        parts = []
        for m in sorted(terms, key=lambda m: grevlex_key(self, m), reverse=True):
            c = terms[m]
            if c > self.char // 2:
                c -= self.char
            mono = self.render_monomial(m)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# weighted degrevlex order

# Ascending sort key: compare weighted degree first; within a degree, a
# monomial is larger when its reversed exponent vector is lexicographically
# smaller (graded reverse lexicographic, read from the last variable).


def grevlex_key(spec: RingSpec, m: Monomial):
    return (spec.wdeg(m), tuple(-e for e in reversed(m)))


# POT (position over term) module order: lower component index wins, ties
# broken by the monomial order.  Ascending key, as for grevlex_key.


def term_key(spec: RingSpec, comp: int, m: Monomial):
    return (-comp, grevlex_key(spec, m))


# ---------------------------------------------------------------------------
# twisted free modules


@dataclass(frozen=True)
class FreeModuleSpec:
    """A twisted free module, recorded by its generator degrees.

    The summand S(-a) is stored as generator degree a, so a resolution step
    S^2(-5) + S(-6) appears as twists (5, 5, 6).
    """

    twists: tuple

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(as_int(t, "twist") for t in self.twists))

    @property
    def rank(self) -> int:
        return len(self.twists)


class FreeElement:
    """An element of a twisted free module, as a (component, monomial) -> coeff map."""

    __slots__ = ("spec", "ambient", "coeffs")

    def __init__(self, spec: RingSpec, ambient: FreeModuleSpec, coeffs: dict, *, _clean=False):
        self.spec = spec
        self.ambient = ambient
        if _clean:
            self.coeffs = coeffs
        else:
            p = spec.char
            clean = {}
            for (comp, m), c in coeffs.items():
                if not 0 <= comp < ambient.rank:
                    raise ValueError(f"component {comp} out of range for rank {ambient.rank}")
                spec._check(m)
                c %= p
                if c:
                    clean[(comp, tuple(m))] = c
            self.coeffs = clean

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeElement)
            and self.spec == other.spec
            and self.ambient == other.ambient
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other: "FreeElement") -> "FreeElement":
        p = self.spec.char
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = (out.get(k, 0) + c) % p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return FreeElement(self.spec, self.ambient, out, _clean=True)

    def terms_sorted(self) -> list:
        return sorted(
            self.coeffs.items(),
            key=lambda kv: term_key(self.spec, kv[0][0], kv[0][1]),
            reverse=True,
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (comp, m), c in self.terms_sorted():
            parts.append(f"({self.spec.render_terms({m: c})})*e{comp}")
        return " + ".join(parts)
