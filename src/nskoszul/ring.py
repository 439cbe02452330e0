"""Exact arithmetic kernel: prime fields, weighted monomials, graded polynomials,
and elements of twisted free modules.

Monomials are plain exponent tuples.  A :class:`RingSpec` fixes the number of
variables, their positive integer weights and a prime characteristic; the
standard graded companion ring keeps the variable names and sets every weight
to 1.  All values are immutable after construction, so they can be shared
freely across threads or processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

Monomial = tuple  # exponent vector, one entry per variable

DEFAULT_CHAR = 32003
CHAR_ENV = "NSKOSZUL_CHAR"


class DimensionMismatch(ValueError):
    """Exponent vector length does not match the ring."""


# The dense rank kernels multiply two residues in int64, so p**2 must fit.
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


def check_characteristic(p: int) -> int:
    """Return p if it is a prime the arithmetic kernels support, else raise."""
    if not 2 <= p < MAX_CHAR:
        raise ValueError(
            f"characteristic {p} is outside the supported range 2 <= p < 2**31"
        )
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    return p


def default_characteristic() -> int:
    """Default coefficient characteristic, overridable via NSKOSZUL_CHAR."""
    raw = os.environ.get(CHAR_ENV)
    if raw is None:
        return DEFAULT_CHAR
    try:
        return check_characteristic(int(raw))
    except ValueError as exc:
        raise ValueError(f"{CHAR_ENV}={raw}: {exc}") from None


# ---------------------------------------------------------------------------
# monomial helpers


def mon_one(n: int) -> Monomial:
    return (0,) * n


def mon_var(n: int, i: int) -> Monomial:
    return tuple(1 if k == i else 0 for k in range(n))


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mon_divides(a: Monomial, b: Monomial) -> bool:
    """Does a divide b?"""
    return all(x <= y for x, y in zip(a, b))


def mon_quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b; requires b | a."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in q):
        raise ValueError(f"{b} does not divide {a}")
    return q


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
        weights = tuple(int(w) for w in self.weights)
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
        check_characteristic(self.char)

    @property
    def num_vars(self) -> int:
        return len(self.weights)

    @property
    def max_weight(self) -> int:
        return max(self.weights)

    def companion(self) -> "RingSpec":
        """The standard graded companion ring (all weights 1)."""
        return RingSpec((1,) * self.num_vars, self.names, self.char)

    def subring(self, k: int) -> "RingSpec":
        """Prefix subring on the first k variables."""
        if not 1 <= k <= self.num_vars:
            raise ValueError(f"bad prefix length {k}")
        return RingSpec(self.weights[:k], self.names[:k], self.char)

    def drop_variable(self, idx: int) -> "RingSpec":
        if not 0 <= idx < self.num_vars:
            raise ValueError(f"bad variable index {idx}")
        return RingSpec(
            self.weights[:idx] + self.weights[idx + 1:],
            self.names[:idx] + self.names[idx + 1:],
            self.char,
        )

    def _check(self, m: Monomial) -> None:
        if len(m) != self.num_vars:
            raise DimensionMismatch(
                f"monomial has {len(m)} exponents, ring has {self.num_vars} variables"
            )

    def label(self, g, comp: int = 0) -> tuple:
        """(component, monomial) from a monomial or a (component, monomial) pair.

        A plain monomial is placed in component comp.
        """
        if len(g) == 2 and isinstance(g[1], (tuple, list)):
            comp, m = int(g[0]), tuple(g[1])
        else:
            m = tuple(g)
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

    def sdeg(self, m: Monomial) -> int:
        """Standard degree (sum of exponents)."""
        self._check(m)
        return sum(m)

    def one(self) -> Monomial:
        return mon_one(self.num_vars)

    def variable(self, i: int) -> Monomial:
        return mon_var(self.num_vars, i)

    def render_monomial(self, m: Monomial) -> str:
        self._check(m)
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def weighted_degree(m: Monomial, spec: RingSpec) -> int:
    return spec.wdeg(m)


def standard_degree(m: Monomial, spec: RingSpec) -> int:
    return spec.sdeg(m)


@lru_cache(maxsize=None)
def monomials_of_wdeg(spec: RingSpec, d: int) -> tuple:
    """All monomials of weighted degree exactly d, descending lexicographic."""
    if d < 0:
        return ()
    out = []

    def rec(i: int, rem: int, prefix: tuple):
        if i == spec.num_vars - 1:
            w = spec.weights[i]
            if rem % w == 0:
                out.append(prefix + (rem // w,))
            return
        w = spec.weights[i]
        for e in range(rem // w, -1, -1):
            rec(i + 1, rem - e * w, prefix + (e,))

    rec(0, d, ())
    return tuple(out)


def monomials_up_to_wdeg(spec: RingSpec, d: int) -> Iterator[Monomial]:
    for k in range(d + 1):
        yield from monomials_of_wdeg(spec, k)


# ---------------------------------------------------------------------------
# weighted degrevlex order

# Ascending sort key: compare weighted degree first; within a degree, a
# monomial is larger when its reversed exponent vector is lexicographically
# smaller (graded reverse lexicographic, read from the last variable).


def grevlex_key(spec: RingSpec, m: Monomial):
    return (spec.wdeg(m), tuple(-e for e in reversed(m)))


def monomial_compare(a: Monomial, b: Monomial, spec: RingSpec) -> int:
    """-1, 0 or 1 for a < b, a = b, a > b in weighted degrevlex."""
    spec._check(a)
    spec._check(b)
    ka, kb = grevlex_key(spec, a), grevlex_key(spec, b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


# POT (position over term) module order: lower component index wins, ties
# broken by the monomial order.  Ascending key, as for grevlex_key.


def term_key(spec: RingSpec, comp: int, m: Monomial):
    return (-comp, grevlex_key(spec, m))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """A polynomial with coefficients in the prime field of its ring.

    Stored as a monomial -> coefficient map with coefficients normalized to
    1..char-1; the zero polynomial has an empty map.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: RingSpec, coeffs: dict, *, _clean: bool = False):
        self.spec = spec
        if _clean:
            self.coeffs = coeffs
        else:
            p = spec.char
            clean = {}
            for m, c in coeffs.items():
                spec._check(m)
                c %= p
                if c:
                    clean[m] = c
            self.coeffs = clean

    # -- constructors

    @classmethod
    def zero(cls, spec: RingSpec) -> "Polynomial":
        return cls(spec, {}, _clean=True)

    @classmethod
    def constant(cls, spec: RingSpec, c: int) -> "Polynomial":
        return cls(spec, {spec.one(): c})

    @classmethod
    def term(cls, spec: RingSpec, m: Monomial, c: int = 1) -> "Polynomial":
        return cls(spec, {tuple(m): c})

    @classmethod
    def variable(cls, spec: RingSpec, i: int) -> "Polynomial":
        return cls(spec, {spec.variable(i): 1}, _clean=True)

    @classmethod
    def from_terms(cls, spec: RingSpec, terms: Iterable) -> "Polynomial":
        coeffs = {}
        for m, c in terms:
            m = tuple(m)
            coeffs[m] = coeffs.get(m, 0) + c
        return cls(spec, coeffs)

    # -- predicates

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {self.spec.one()}

    def constant_value(self) -> int:
        return self.coeffs.get(self.spec.one(), 0)

    def is_homogeneous(self) -> bool:
        degs = {self.spec.wdeg(m) for m in self.coeffs}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Weighted degree; raises for 0 or inhomogeneous polynomials."""
        degs = {self.spec.wdeg(m) for m in self.coeffs}
        if len(degs) != 1:
            raise ValueError(f"no single weighted degree: {sorted(degs)}")
        return degs.pop()

    # -- arithmetic

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        p = self.spec.char
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(self.spec, out, _clean=True)

    def __neg__(self) -> "Polynomial":
        p = self.spec.char
        return Polynomial(self.spec, {m: p - c for m, c in self.coeffs.items()}, _clean=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: int) -> "Polynomial":
        p = self.spec.char
        c %= p
        if c == 0:
            return Polynomial.zero(self.spec)
        return Polynomial(self.spec, {m: (v * c) % p for m, v in self.coeffs.items()}, _clean=True)

    def term_mul(self, m: Monomial, c: int = 1) -> "Polynomial":
        p = self.spec.char
        c %= p
        if c == 0:
            return Polynomial.zero(self.spec)
        return Polynomial(
            self.spec,
            {mon_mul(mm, m): (v * c) % p for mm, v in self.coeffs.items()},
            _clean=True,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        p = self.spec.char
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = mon_mul(m1, m2)
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(self.spec, out, _clean=True)

    __rmul__ = __mul__

    # -- views

    def terms_sorted(self) -> list:
        """(monomial, coefficient) pairs, strictly descending in the order."""
        return sorted(
            self.coeffs.items(), key=lambda t: grevlex_key(self.spec, t[0]), reverse=True
        )

    def lead_term(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no lead term")
        m = max(self.coeffs, key=lambda t: grevlex_key(self.spec, t))
        return m, self.coeffs[m]

    def std_degree_part(self, k: int) -> "Polynomial":
        """The component whose monomials have standard degree k."""
        return Polynomial(
            self.spec,
            {m: c for m, c in self.coeffs.items() if self.spec.sdeg(m) == k},
            _clean=True,
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        p = self.spec.char
        parts = []
        for m, c in self.terms_sorted():
            c_sym = c - p if c > p // 2 else c
            mono = self.spec.render_monomial(m)
            if mono == "1":
                parts.append(str(c_sym))
            elif c_sym == 1:
                parts.append(mono)
            elif c_sym == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c_sym}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


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
        object.__setattr__(self, "twists", tuple(int(t) for t in self.twists))

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

    @classmethod
    def zero(cls, spec: RingSpec, ambient: FreeModuleSpec) -> "FreeElement":
        return cls(spec, ambient, {}, _clean=True)

    @classmethod
    def generator(cls, spec: RingSpec, ambient: FreeModuleSpec, comp: int) -> "FreeElement":
        return cls(spec, ambient, {(comp, spec.one()): 1})

    @classmethod
    def from_terms(cls, spec: RingSpec, ambient: FreeModuleSpec, terms: Iterable) -> "FreeElement":
        coeffs = {}
        for comp, m, c in terms:
            key = (comp, tuple(m))
            coeffs[key] = coeffs.get(key, 0) + c
        return cls(spec, ambient, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __neg__(self) -> "FreeElement":
        p = self.spec.char
        return FreeElement(
            self.spec, self.ambient, {k: p - c for k, c in self.coeffs.items()}, _clean=True
        )

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def scale(self, c: int) -> "FreeElement":
        p = self.spec.char
        c %= p
        if c == 0:
            return FreeElement.zero(self.spec, self.ambient)
        return FreeElement(
            self.spec, self.ambient, {k: (v * c) % p for k, v in self.coeffs.items()}, _clean=True
        )

    def term_mul(self, m: Monomial, c: int = 1) -> "FreeElement":
        """Multiply by the ring term c * x^m."""
        p = self.spec.char
        c %= p
        if c == 0:
            return FreeElement.zero(self.spec, self.ambient)
        return FreeElement(
            self.spec,
            self.ambient,
            {(comp, mon_mul(mm, m)): (v * c) % p for (comp, mm), v in self.coeffs.items()},
            _clean=True,
        )

    def lead(self):
        """Lead term (component, monomial, coefficient) in the POT order."""
        if not self.coeffs:
            raise ValueError("zero element has no lead term")
        comp, m = max(self.coeffs, key=lambda k: term_key(self.spec, k[0], k[1]))
        return comp, m, self.coeffs[(comp, m)]

    def terms_sorted(self) -> list:
        return sorted(
            self.coeffs.items(),
            key=lambda kv: term_key(self.spec, kv[0][0], kv[0][1]),
            reverse=True,
        )

    def is_homogeneous(self) -> bool:
        degs = {self.spec.wdeg(m) + self.ambient.twists[c] for c, m in self.coeffs}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        degs = {self.spec.wdeg(m) + self.ambient.twists[c] for c, m in self.coeffs}
        if len(degs) != 1:
            raise ValueError(f"no single degree: {sorted(degs)}")
        return degs.pop()

    def component_poly(self, comp: int) -> Polynomial:
        return Polynomial(
            self.spec,
            {m: c for (cc, m), c in self.coeffs.items() if cc == comp},
            _clean=True,
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (comp, m), c in self.terms_sorted():
            poly = Polynomial(self.spec, {m: c}, _clean=True)
            parts.append(f"({poly!r})*e{comp}")
        return " + ".join(parts)
