"""Characteristic-p series, Frobenius, perfection, and desk-scale tilting.

A CharPSeries has coefficients in the residue field F_p (the coefficient
ring is totally ramified, so its residue field is the prime field) and the
same exponent discipline as FracSeries. Frobenius is q -> q^p since F_p
coefficients are Frobenius-fixed.

A TiltTower is a finite sequence (f_0, ..., f_{T-1}) of such series with
frobenius(f_{i+1}) = f_i exactly: the depth-T approximation of an element
of the inverse limit along the p-th power map of the mod-p series ring.
Untilting precision is fixed at one digit: ``sharp`` lands mod p only,
reading off the 0-th component.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .coeff import is_prime
from .errors import ContextMismatchError, DepthError, DomainError
from .series import FracSeries, _int_keys, _mul_deg_bound, exponent_depth


class CharPSeries:
    """Sparse series over F_p with exponents in Z[1/p] and truncation bounds."""

    __slots__ = ("p", "_terms", "deg_bound", "depth_bound", "laurent")

    def __init__(self, p: int, terms: dict[Fraction, int], deg_bound, depth_bound: int, laurent: bool = False, *, _trusted: bool = False):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.deg_bound = deg_bound if deg_bound == inf else Fraction(deg_bound)
        self.depth_bound = depth_bound
        self.laurent = laurent
        if _trusted:
            self._terms = terms
            return
        clean: dict[Fraction, int] = {}
        for m, c in terms.items():
            m = Fraction(m)
            c %= p
            if c == 0:
                continue
            r = exponent_depth(m, p)
            if r > depth_bound:
                raise DepthError(f"exponent {m} has depth {r} > depth bound {depth_bound}")
            if m > self.deg_bound:
                raise DomainError(f"exponent {m} exceeds degree bound {self.deg_bound}")
            if m < 0 and not laurent:
                raise DomainError(f"negative exponent {m} in a non-Laurent series")
            if m in clean:
                raise DomainError(f"duplicate exponent {m}")
            clean[m] = c
        self._terms = dict(sorted(clean.items()))

    def items(self) -> list[tuple[Fraction, int]]:
        """Terms in increasing exponent order, the order every constructor
        stores them in."""
        return list(self._terms.items())

    def coefficient(self, m) -> int:
        return self._terms.get(Fraction(m), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def max_depth(self) -> int:
        return max((exponent_depth(m, self.p) for m in self._terms), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharPSeries):
            return NotImplemented
        return self.p == other.p and self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*q^{m}" for m, c in self.items()) or "0"
        return f"CharPSeries({body}; p={self.p}, deg<={self.deg_bound}, depth<={self.depth_bound})"

    def _check(self, other: "CharPSeries") -> None:
        if self.p != other.p:
            raise ContextMismatchError("characteristic mismatch")

    def __add__(self, other: "CharPSeries") -> "CharPSeries":
        self._check(other)
        deg = min(self.deg_bound, other.deg_bound)
        out = {m: c for m, c in self._terms.items() if m <= deg}
        for m, c in other._terms.items():
            if m > deg:
                continue
            v = (out.get(m, 0) + c) % self.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return CharPSeries(self.p, dict(sorted(out.items())), deg,
                           max(self.depth_bound, other.depth_bound),
                           self.laurent or other.laurent, _trusted=True)

    def __mul__(self, other: "CharPSeries") -> "CharPSeries":
        """Raw integer sums per output exponent, reduced mod p once each;
        exact, since every partial sum is only ever used mod p."""
        self._check(other)
        p = self.p
        deg = _mul_deg_bound(self, other)
        a, b, den, top = _int_keys(self._terms, other._terms, deg)
        out: dict[int, int] = {}
        for m1, c1 in a:
            for m2, c2 in b:
                m = m1 + m2
                if m > top:
                    break
                out[m] = out.get(m, 0) + c1 * c2
        terms = {Fraction(m, den): v % p for m, v in sorted(out.items()) if v % p}
        return CharPSeries(p, terms, deg, max(self.depth_bound, other.depth_bound),
                           self.laurent or other.laurent, _trusted=True)


def charp_from_terms(p: int, pairs, deg_bound, depth_bound: int, laurent: bool = False) -> CharPSeries:
    terms: dict[Fraction, int] = {}
    for m, c in pairs:
        key = Fraction(m)
        if key in terms:
            raise DomainError(f"duplicate exponent {key}")
        terms[key] = c
    return CharPSeries(p, terms, deg_bound, depth_bound, laurent)


def reduce_mod_p(f: FracSeries) -> CharPSeries:
    """Residue of an integral FracSeries: coefficients map through the residue
    field (zeta goes to 1, then reduce mod p). Negative-shift coefficients
    are rejected."""
    p = f.ctx.p
    out: dict[Fraction, int] = {}
    for m, c in f.items():
        if c.shift < 0:
            raise DomainError("non-integral coefficient has no residue")
        if c.shift > 0:
            continue
        v = sum(c.unit) % p
        if v:
            out[m] = v
    return CharPSeries(p, out, f.deg_bound, f.depth_bound, f.laurent, _trusted=True)


# -- Frobenius and perfection -------------------------------------------------


def frobenius(f: CharPSeries) -> CharPSeries:
    """q -> q^p; a ring endomorphism in characteristic p, and the p-th power
    map on these series since the coefficients are Frobenius-fixed."""
    terms = {m * f.p: c for m, c in f._terms.items()}
    deg = inf if f.deg_bound == inf else f.deg_bound * f.p
    return CharPSeries(f.p, terms, deg, f.depth_bound, f.laurent, _trusted=True)


def frobenius_inv(f: CharPSeries) -> CharPSeries:
    """q -> q^(1/p); needs depth headroom within the series' depth bound."""
    p = f.p
    for m in f._terms:
        if exponent_depth(Fraction(m, p), p) > f.depth_bound:
            raise DepthError(f"depth overflow: q^{m} has no p-th root within depth bound {f.depth_bound}")
    terms = {m / p: c for m, c in f._terms.items()}
    deg = inf if f.deg_bound == inf else f.deg_bound / p
    return CharPSeries(p, terms, deg, f.depth_bound, f.laurent, _trusted=True)


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
                got = frobenius(components[i + 1])
                want = components[i]
                diff = got + CharPSeries(want.p, {m: -c for m, c in want._terms.items()},
                                         want.deg_bound, want.depth_bound, want.laurent, _trusted=True)
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
