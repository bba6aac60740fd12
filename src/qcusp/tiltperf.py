"""Characteristic-p series, Frobenius, perfection, and desk-scale tilting.

A CharPSeries has coefficients in the residue field F_p (the coefficient
ring is totally ramified, so its residue field is the prime field). It is
the F_p instance of the sparse series core in `series`, keyed like
FracSeries by integer numerators over p^depth_bound; its products sum raw
integers and reduce mod p once per term. Frobenius is q -> q^p since F_p
coefficients are Frobenius-fixed; its inverse divides every key by p.

A TiltTower is a finite sequence (f_0, ..., f_{T-1}) of such series with
frobenius(f_{i+1}) = f_i exactly: the depth-T approximation of an element
of the inverse limit along the p-th power map of the mod-p series ring.
Untilting precision is fixed at one digit: ``sharp`` lands mod p only,
reading off the 0-th component.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import is_prime
from .errors import DomainError
from .series import FracSeries, _SparseSeries, substitute_power


class CharPSeries(_SparseSeries):
    """Sparse series over F_p with exponents in Z[1/p] and truncation bounds."""

    __slots__ = ()

    # own class-dict entries, so that instrumentation can wrap them per class
    __add__ = _SparseSeries.__add__
    __mul__ = _SparseSeries.__mul__

    @staticmethod
    def _set_ring(p: int) -> int:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        return p

    def _ring(self) -> int:
        return self.p

    @staticmethod
    def _zero() -> int:
        return 0

    def _normalize(self, c: int) -> int | None:
        return c % self.p or None


def charp_from_terms(p: int, pairs, deg_bound, depth_bound: int, laurent: bool = False) -> CharPSeries:
    """Build a CharPSeries from (exponent-like, integer) pairs; duplicate
    exponents are an error."""
    return CharPSeries(p, pairs, deg_bound, depth_bound, laurent)


def reduce_mod_p(f: FracSeries) -> CharPSeries:
    """Residue of an integral FracSeries: coefficients map through the residue
    field (zeta goes to 1, then reduce mod p). Negative-shift coefficients
    are rejected."""
    p = f.p
    out: dict[int, int] = {}
    for k, c in f._terms.items():
        if c.shift < 0:
            raise DomainError("non-integral coefficient has no residue")
        if c.shift > 0:
            continue
        v = sum(c.unit) % p
        if v:
            out[k] = v
    return CharPSeries(p, out, f.deg_bound, f.depth_bound, f.laurent, _trusted=True)


# -- Frobenius and perfection -------------------------------------------------


def frobenius(f: CharPSeries) -> CharPSeries:
    """q -> q^p; a ring endomorphism in characteristic p, and the p-th power
    map on these series since the coefficients are Frobenius-fixed."""
    return substitute_power(f, f.p)


def frobenius_inv(f: CharPSeries) -> CharPSeries:
    """q -> q^(1/p); needs depth headroom within the series' depth bound."""
    return substitute_power(f, Fraction(1, f.p))


# -- tilt towers ---------------------------------------------------------------


class TiltTower:
    """Depth-T sequence of mod-p series with exact p-th power compatibility."""

    __slots__ = ("depth", "components", "effective_depth")

    def __init__(self, components, effective_depth: int | None = None, *, _trusted: bool = False):
        components = tuple(components)
        if not components:
            raise ValueError("a tower needs at least one component")
        # `_trusted` is passed only by tower_mul, tower_add and
        # tower_from_charp, whose results are compatible by construction
        for i in range(0 if _trusted else len(components) - 1):
            if frobenius(components[i + 1]) != components[i]:
                diff = frobenius(components[i + 1]) - components[i]
                term = diff.items()[0] if diff.items() else None
                raise DomainError(
                    f"tower compatibility fails at index {i}: component {i+1}^p != component {i}"
                    + (f", first differing term q^{term[0]}" if term else "")
                )
        self.depth = len(components)
        self.components = components
        self.effective_depth = self.depth if effective_depth is None else effective_depth

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TiltTower):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __repr__(self) -> str:
        return f"TiltTower(depth={self.depth}, f0={self.components[0]!r})"


def tower_mul(x: TiltTower, y: TiltTower) -> TiltTower:
    """Componentwise product; exact, and compatibility is preserved because
    Frobenius is multiplicative."""
    if x.depth != y.depth:
        raise DomainError("tower depth mismatch")
    comps = [a * b for a, b in zip(x.components, y.components)]
    return TiltTower(comps, min(x.effective_depth, y.effective_depth), _trusted=True)


def tower_add(x: TiltTower, y: TiltTower) -> TiltTower:
    """Inverse-limit addition: component i is the stabilizing limit of
    frobenius^j(x_{i+j} + y_{i+j}).

    Over residue-field coefficients the limit stabilizes at j = 0 and no
    depth is lost; the effective depth records how many refinement steps
    the naive componentwise sums actually needed.
    """
    if x.depth != y.depth:
        raise DomainError("tower depth mismatch")
    T = x.depth
    naive = [a + b for a, b in zip(x.components, y.components)]
    deepest = naive[T - 1]
    comps = [deepest] * T
    for i in range(T - 2, -1, -1):
        comps[i] = frobenius(comps[i + 1])
    # how deep we had to go before the naive sums agree with the limit
    steps = 0
    for i in range(T):
        if naive[i] != comps[i]:
            steps = max(steps, T - i)
    eff = min(x.effective_depth, y.effective_depth, T - steps)
    return TiltTower(comps, eff, _trusted=True)


def sharp(x: TiltTower):
    """Projection to characteristic zero mod p: the 0-th component.
    Multiplicative: sharp(x*y) = sharp(x)*sharp(y) exactly mod p."""
    return x.components[0]


def tower_from_charp(g: CharPSeries, depth: int) -> TiltTower:
    """Component i = frobenius_inv^i(g): the canonical tower presentation of
    a characteristic-p series, inverse to sharp."""
    if depth < 1:
        raise ValueError("tower depth must be >= 1")
    comps = [g]
    for _ in range(depth - 1):
        comps.append(frobenius_inv(comps[-1]))
    return TiltTower(comps, _trusted=True)
