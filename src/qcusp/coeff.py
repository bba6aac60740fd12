"""Truncated p-adic cyclotomic coefficient arithmetic.

Elements live in Z[x]/(Phi_{p^s}(x), p^k) where Phi_{p^s} is the p^s-th
cyclotomic polynomial (s = 0 means Z/p^k), extended by an explicit integer
power-of-p shift so that p may be inverted without leaving exact arithmetic.
A value is p^shift * unit with the unit not divisible by p; this models
elements of O[1/p] for O = Z_p[zeta_{p^s}] at working precision p^k.

Precision bookkeeping: every element carries the number of reliable p-adic
digits of its unit part (at most k). Freshly constructed values have k
digits; aligning shifts t1 < t2 in a sum leaves the result reliable mod
p^(k + t1), and pulling a factor p^j out of a sum costs j digits. Equality
compares normal forms at the shared precision. A value all of whose
reliable digits vanish collapses to the zero element; witnesses of such
losses are kept at the layer that owns them (series deciders), not here.

Kernels: every unit-part operation ends in one sparse reduction, `_reduce`,
which folds x^(p^s) = 1 and rewrites x^phi by its p - 1 term identity in
O(p^s). `_poly_mul` is the package's one integer polynomial product, a
schoolbook convolution for short factors and one Kronecker-packed big-int
multiply for longer ones; unit products (`_unit_mul`) and modular's integer
series both run on it. Multiplication by a root of unity is a rotation mod
x^(p^s) - 1; `inv` is a Newton lift built on the product, after one
multiplication by a power of zeta - 1 for a ramified element.

Normal form: the truncating constructor reduces the raw unit mod p^prec and
finds its p-content p^t from one gcd of the entries, then divides by p^t
once. A sum aligns its operands by scaling only the one with the larger
shift. Products at phi = 1 skip the constructor's normalization: a product
of two p-free residues is a p-free residue. At phi > 1 they do not, since two
multiples of pi = zeta - 1 can multiply to a multiple of p.

The pseudo-uniformizer with compatible p-power roots that a perfectoid base
field would provide is not representable at finite cyclotomic depth; p
itself plays that role throughout.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, inf
from operator import add

from .errors import ContextMismatchError, DepthError, NotInvertibleError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _cyclotomic_p_power(p: int, s: int) -> tuple[int, ...]:
    """Coefficients of Phi_{p^s}(x), ascending degree. Phi_1 := x - 1 for s = 0."""
    if s == 0:
        return (-1, 1)
    step = p ** (s - 1)
    coeffs = [0] * (step * (p - 1) + 1)
    for i in range(p):
        coeffs[i * step] = 1
    return tuple(coeffs)


class RingContext:
    """The ring Z[x]/(Phi_{p^s}(x), p^k), with x a primitive p^s-th root of unity.

    Immutable and shareable. Reduction modulo Phi_{p^s} needs no table: x has
    order p^s, and x^phi = -sum_{i<p-1} x^(i*p^(s-1)) has p - 1 terms (see
    `_reduce`).
    """

    def __init__(self, p: int, k: int, s: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if k < 1:
            raise ValueError(f"precision exponent k must be >= 1, got {k}")
        if not 0 <= s <= 4:
            raise ValueError(f"cyclotomic depth s must be in [0, 4], got {s}")
        self.p = p
        self.k = k
        self.s = s
        self.pk = p**k
        self.modulus = _cyclotomic_p_power(p, s)
        # degree of Phi_{p^s}; 1 when s = 0
        self.phi = 1 if s == 0 else p ** (s - 1) * (p - 1)
        self.order = p**s  # multiplicative order of x

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingContext)
            and (self.p, self.k, self.s) == (other.p, other.k, other.s)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.s))

    def __repr__(self) -> str:
        return f"RingContext(p={self.p}, k={self.k}, s={self.s})"


def new_ring(p: int, k: int, s: int) -> RingContext:
    """Build the coefficient ring context Z[x]/(Phi_{p^s}, p^k)."""
    return RingContext(p, k, s)


# Shortest factor at which `_poly_mul`'s packed product beats its schoolbook
# loop, measured for both callers with CPython 3.11 on x86-64. Unit products
# (p in {2, 3, 5, 7, 11}, k in {4, 5, 8}): schoolbook wins at phi = 4, the
# two tie at phi = 6, packing wins from phi = 8 on. modular's series: 6 to
# 7 terms for E4 and residues mod 3^16, 8 for eta^24, 9 for powers of q*j.
_KRONECKER_MIN_PHI = 8

# unsigned array typecode for each C integer size in bytes
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _reduce(ctx: RingContext, acc: list[int] | tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """Canonical unit tuple of the integer polynomial sum acc[i] x^i mod
    (Phi_{p^s}, modulus); acc may have any length.

    Degrees >= p^s fold down by x^(p^s) = 1. Each remaining x^(phi + r),
    r < p^(s-1), then maps in one pass to -sum_{i<p-1} x^(i p^(s-1) + r),
    which lands below phi. For s = 0 this is x = 1, for p = 2, s = 1 it is
    x = -1. Cost O(len(acc) + p^s).
    """
    if ctx.s == 0:
        return (sum(acc) % modulus,)
    n, phi = ctx.order, ctx.phi
    out = list(acc[:n])
    out += [0] * (n - len(out))
    for start in range(n, len(acc), n):
        chunk = acc[start:start + n]
        out[: len(chunk)] = map(add, out, chunk)
    # out[phi:] holds the p^(s-1) top coefficients; repeated p - 1 times it lines up with out[:phi]
    return tuple([(u - v) % modulus for u, v in zip(out, out[phi:] * (ctx.p - 1))])


def _poly_mul(a, b, m: int, modulus: int | None = None) -> list[int]:
    """The first m <= len(a) + len(b) - 1 coefficients of the product of the
    nonempty integer polynomials a and b (ascending): exact, or congruent mod
    `modulus` when one is given.

    A factor shorter than _KRONECKER_MIN_PHI takes the schoolbook loop.
    Otherwise Kronecker substitution (Harvey, J. Symbolic Comput. 2009)
    packs each factor into one int with slots wide enough that no product
    coefficient spills into the next, multiplies once (Karatsuba in CPython)
    and unpacks the first m slots. Slots of up to 8 bytes are rounded to a
    power of two and go through `array` in C. Residues, non-negative, are
    reduced mod `modulus` only if an entry reaches it, and the modulus sizes
    their slots. Signed entries are sized by the largest magnitude; only if
    one is negative are the slots packed in two's complement, corrected by
    their sign bits, and each product slot offset by half its range so that
    it unpacks without borrows.
    """
    length = len(a) + len(b) - 1
    if len(a) < _KRONECKER_MIN_PHI or len(b) < _KRONECKER_MIN_PHI:
        acc = [0] * length
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    acc[j] += ai * bj
        if m < length:
            del acc[m:]
        return acc
    if modulus is None:
        low_a, low_b = min(a), min(b)
        signed = low_a < 0 or low_b < 0
        bits = max(max(a), -low_a).bit_length() + max(max(b), -low_b).bit_length() + signed
    else:
        if max(a) >= modulus:
            a = [v % modulus for v in a]
        if max(b) >= modulus:
            b = [v % modulus for v in b]
        signed = False
        bits = 2 * (modulus - 1).bit_length()
    width = (bits + min(len(a), len(b)).bit_length() + 7) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    code = _ARRAY_CODES.get(width)
    if code is None:
        fa, fb = [int.from_bytes(b"".join([v.to_bytes(width, "little", signed=signed) for v in f]), "little")
                  for f in (a, b)]
    else:
        # native byte order both ways: on a big-endian host both factors and
        # the product are read slot-reversed, which leaves the slots in order
        kind = code.lower() if signed else code  # signed entries pack as two's complement
        fa, fb = int.from_bytes(array(kind, a), sys.byteorder), int.from_bytes(array(kind, b), sys.byteorder)
    if signed:
        half = 1 << (8 * width - 1)
        tops = int.from_bytes(half.to_bytes(width, "little") * length, "little")
        # a slot's top bit is set exactly when its entry is negative
        product = (fa - ((fa & tops) << 1)) * (fb - ((fb & tops) << 1)) + tops
    else:
        product = fa * fb
    if code is None:
        product &= (1 << (8 * width * m)) - 1
        raw = product.to_bytes(width * m, "little")
        out = [int.from_bytes(raw[i:i + width], "little") for i in range(0, width * m, width)]
    else:
        out = array(code, product.to_bytes(width * length, sys.byteorder)).tolist()
        del out[m:]
    return [v - half for v in out] if signed else out


def _unit_mul(ctx: RingContext, a: tuple[int, ...], b: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """Product of two unit tuples mod (Phi_{p^s}, modulus): one integer
    product at phi = 1, else `_poly_mul` and `_reduce`."""
    if ctx.phi == 1:
        return ((a[0] * b[0]) % modulus,)
    return _reduce(ctx, _poly_mul(a, b, 2 * ctx.phi - 1, modulus), modulus)


def _split_p(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and u prime to p, for n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _p_content(ctx: RingContext, shift: int, unit, prec: int) -> tuple[int, tuple[int, ...], int]:
    """Normal form (shift, unit, prec) of p^shift * unit, for entries already
    canonical mod p^prec: one gcd finds the p-content, which moves into the
    shift and spends one digit per factor; zero is the zero element."""
    g = gcd(*unit)
    if g == 0:
        return 0, (0,) * ctx.phi, ctx.k
    if g % ctx.p:  # the usual case, and cheaper than a call
        return shift, tuple(unit), prec
    # g < p^prec, so t < prec and at least one digit survives
    t = _split_p(g, ctx.p)[0]
    q = ctx.p**t
    return shift + t, tuple([v // q for v in unit]), prec - t


class CycloCoeff:
    """An element p^shift * unit of the fraction ring of Z_p[zeta_{p^s}] mod p^k.

    Normal form: the unit part is either the zero polynomial (then shift = 0
    and prec = k) or not divisible by p, stored canonically mod p^prec where
    prec counts its reliable digits.
    """

    __slots__ = ("ctx", "shift", "unit", "prec")

    def __init__(self, ctx: RingContext, shift: int, unit: tuple[int, ...], prec: int | None = None, *, _normalized: bool = False):
        """Truncating constructor: reduce the raw unit part to `prec` digits,
        then pull its p-content into the shift, spending one digit per pulled
        factor. A value that vanishes at the available precision collapses
        to the zero element."""
        self.ctx = ctx
        if _normalized:
            self.shift = shift
            self.unit = unit
            self.prec = ctx.k if prec is None else prec
            return
        if len(unit) != ctx.phi:
            raise ValueError("unit part has wrong degree for this context")
        prec = ctx.k if prec is None else min(prec, ctx.k)
        m = ctx.p ** max(prec, 0)  # no digits left: every entry is 0 mod 1
        self.shift, self.unit, self.prec = _p_content(ctx, shift, [v % m for v in unit], prec)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: RingContext) -> "CycloCoeff":
        return cls(ctx, 0, (0,) * ctx.phi, _normalized=True)

    @classmethod
    def one(cls, ctx: RingContext) -> "CycloCoeff":
        return cls.from_int(ctx, 1)

    @classmethod
    def from_int(cls, ctx: RingContext, n: int, shift: int = 0) -> "CycloCoeff":
        """Exact embedding of the integer p^shift * n; the p-content of n is
        extracted before truncation, so e.g. p^k maps to shift k, unit 1."""
        if n == 0:
            return cls.zero(ctx)
        t, n = _split_p(n, ctx.p) if n % ctx.p == 0 else (0, n)
        poly = (n % ctx.pk,) + (0,) * (ctx.phi - 1)
        return cls(ctx, shift + t, poly, _normalized=True)

    @classmethod
    def from_poly(cls, ctx: RingContext, coeffs: list[int] | tuple[int, ...], shift: int = 0) -> "CycloCoeff":
        """Exact embedding of p^shift * (c0 + c1 x + ...) for integer ci.

        Integer p-content, found with one gcd, is extracted before reduction
        mod (Phi, p^k); the constructor extracts what the reduction creates.
        """
        g = gcd(*coeffs)
        if g == 0:
            return cls.zero(ctx)
        if g % ctx.p == 0:
            t = _split_p(g, ctx.p)[0]
            shift, q = shift + t, ctx.p**t
            coeffs = [c // q for c in coeffs]
        return cls(ctx, shift, _reduce(ctx, coeffs, ctx.pk))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.unit)

    def __bool__(self) -> bool:
        return any(self.unit)

    def __eq__(self, other: object) -> bool:
        """Equality of normal forms at the shared precision."""
        if isinstance(other, int):
            return self == CycloCoeff.from_int(self.ctx, other)
        if not isinstance(other, CycloCoeff):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.shift != other.shift:
            return False
        m = self.ctx.p ** min(self.prec, other.prec)
        return all((a - b) % m == 0 for a, b in zip(self.unit, other.unit))

    __hash__ = None  # equality at shared precision is not hash-compatible

    def equals_mod(self, other: "CycloCoeff", digits: int) -> bool:
        """Equality of normal forms with at most `digits` unit digits compared."""
        if self.ctx != other.ctx:
            raise ContextMismatchError("cannot compare across contexts")
        if digits <= 0:
            return True
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.shift != other.shift:
            return False
        m = self.ctx.p ** min(digits, self.prec, other.prec)
        return all((a - b) % m == 0 for a, b in zip(self.unit, other.unit))

    def reduce_precision(self, digits: int) -> "CycloCoeff":
        """Forget all but the first `digits` digits of the unit part."""
        if self.is_zero():
            return self
        return CycloCoeff(self.ctx, self.shift, self.unit, min(self.prec, digits))

    # -- arithmetic --------------------------------------------------------

    def _check_ctx(self, other: "CycloCoeff") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"context mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other: "CycloCoeff") -> "CycloCoeff":
        self._check_ctx(other)
        ctx = self.ctx
        if not any(self.unit):
            return other
        if not any(other.unit):
            return self
        # align at the smaller shift by scaling only the operand with the
        # larger one; the reliable absolute precision
        # min(s_a + prec_a, s_b + prec_b) is re-expressed at the smaller shift
        lo, hi = (self, other) if self.shift <= other.shift else (other, self)
        d = hi.shift - lo.shift
        if d:
            f = ctx.p**d
            unit = [a + b * f for a, b in zip(lo.unit, hi.unit)]
        else:
            unit = [a + b for a, b in zip(lo.unit, hi.unit)]
        return CycloCoeff(ctx, lo.shift, unit, min(lo.prec, hi.prec + d))

    def __neg__(self) -> "CycloCoeff":
        if self.is_zero():
            return self
        m = self.ctx.p**self.prec
        return CycloCoeff(self.ctx, self.shift, tuple(-v % m for v in self.unit), self.prec, _normalized=True)

    def __sub__(self, other: "CycloCoeff") -> "CycloCoeff":
        return self + (-other)

    def __mul__(self, other: "CycloCoeff") -> "CycloCoeff":
        self._check_ctx(other)
        ctx = self.ctx
        if not any(self.unit) or not any(other.unit):
            return CycloCoeff.zero(ctx)
        prec = min(self.prec, other.prec)
        shift = self.shift + other.shift
        unit = _unit_mul(ctx, self.unit, other.unit, ctx.p**prec)
        # at phi = 1 the product of two p-free units is p-free; above, the
        # entries are canonical mod p^prec and only the p-content is left
        if ctx.phi > 1:
            shift, unit, prec = _p_content(ctx, shift, unit, prec)
        return CycloCoeff(ctx, shift, unit, prec, _normalized=True)

    def mul_zeta_power(self, n: int, e: int) -> "CycloCoeff":
        """Multiply by zeta_{p^n}^e, the designated primitive p^n-th unit root:
        a rotation of the unit part in Z[x]/(x^(p^s) - 1), then `_reduce`."""
        ctx = self.ctx
        if n < 0:
            raise ValueError("root-of-unity level must be >= 0")
        if n > ctx.s:
            raise DepthError(f"zeta_{{p^{n}}} needs cyclotomic depth {n}, context has s={ctx.s}")
        if self.is_zero() or n == 0:
            return self
        exp = (e % ctx.p**n) * ctx.p ** (ctx.s - n)
        if exp == 0:
            return self
        padded = self.unit + (0,) * (ctx.order - ctx.phi)
        unit = _reduce(ctx, padded[-exp:] + padded[:-exp], ctx.p**self.prec)
        # zeta is a unit mod p, so the product keeps a p-free unit part
        return CycloCoeff(ctx, self.shift, unit, self.prec, _normalized=True)

    def __pow__(self, n: int) -> "CycloCoeff":
        if n < 0:
            return inv(self) ** (-n)
        result = CycloCoeff.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def p_times(self, t: int) -> "CycloCoeff":
        """Multiply by p^t (t may be negative); exact on the shift."""
        if self.is_zero():
            return self
        return CycloCoeff(self.ctx, self.shift + t, self.unit, self.prec, _normalized=True)

    def __repr__(self) -> str:
        return f"CycloCoeff(shift={self.shift}, unit={self.unit}, prec={self.prec})"


def zeta(ctx: RingContext, n: int) -> CycloCoeff:
    """The primitive p^n-th unit root zeta_{p^n} = x^(p^(s-n)); zeta(ctx, 0) = 1."""
    if n < 0:
        raise ValueError("root-of-unity level must be >= 0")
    if n > ctx.s:
        raise DepthError(f"zeta_{{p^{n}}} needs cyclotomic depth {n}, context has s={ctx.s}")
    if n == 0:
        return CycloCoeff.one(ctx)
    e = ctx.p ** (ctx.s - n)
    poly = [0] * (e + 1)
    poly[e] = 1
    return CycloCoeff.from_poly(ctx, poly)


def _pi_order(p: int, unit) -> int:
    """The pi-adic valuation of a p-free unit part, pi = zeta_{p^s} - 1:
    its order of vanishing at x = 1 mod p, because Phi_{p^s} = (x - 1)^phi
    mod p. Found by synthetic division by x - 1 until the remainder u(1) is
    not 0 mod p, in O(phi * (r + 1)); the order r is below phi."""
    r = 0
    while True:
        sums = list(accumulate(reversed(unit)))  # top-down partial sums: quotient, then u(1)
        if sums[-1] % p:
            return r
        unit = [v % p for v in sums[-2::-1]]
        r += 1


def _unit_inv(ctx: RingContext, unit, prec: int) -> tuple[int, ...]:
    """Inverse mod p^prec of a unit part with u(1) not 0 mod p, by a Newton
    lift v <- v(2 - uv) from v = u(1)^-1 mod p^prec: 1 - uv starts in the
    maximal ideal M = (p, x - 1) and squares each step, and p^prec lies in
    M^(phi prec), so ceil(log2(phi prec)) steps suffice. Each step costs two
    `_unit_mul` products."""
    m = ctx.p**prec
    one = (1,) + (0,) * (ctx.phi - 1)
    v = (pow(sum(unit), -1, m),) + one[1:]
    for _ in range((ctx.phi * prec - 1).bit_length()):
        uv = _unit_mul(ctx, unit, v, m)
        v = _unit_mul(ctx, v, ((2 - uv[0]) % m,) + tuple(-t % m for t in uv[1:]), m)
    if _unit_mul(ctx, unit, v, m) != one:
        raise NotInvertibleError("inversion failed; unit part is not a unit")
    return v


def inv(a: CycloCoeff) -> CycloCoeff:
    """Inverse of a nonzero element; zero raises NotInvertibleError.

    A unit u, one with u(1) not 0 mod p, is inverted at its precision by
    `_unit_inv`.

    A unit part of pi-adic valuation 0 < r < phi is ramified: u = pi^r * w
    with w a unit. Then c = pi^(phi - r) makes u*c = p*w' with w' a unit,
    since (zeta - 1)^phi generates (p) (Washington, GTM 83, Lemma 1.4), and
    u^-1 = c * w'^-1 / p. u is known mod p^prec, that is mod pi^(phi prec),
    so w is known mod pi^(phi prec - r), and p * u^-1 = c * w^-1 / pi^r is
    known mod pi^(phi (prec + 1) - 2r): prec digits when 2r <= phi, one
    fewer when 2r > phi. Every lift of u gives those digits, so the stored
    representative is used: its product with c mod p^(prec + 1), divided
    by p, is w' to prec digits. Only a one-digit element with 2r > phi has
    no digit left, and raises.
    """
    ctx = a.ctx
    if a.is_zero():
        raise NotInvertibleError("zero is not invertible")
    r = _pi_order(ctx.p, a.unit)
    if not r:
        return CycloCoeff(ctx, -a.shift, _unit_inv(ctx, a.unit, a.prec), a.prec, _normalized=True)
    prec = a.prec if 2 * r <= ctx.phi else a.prec - 1
    if not prec:
        raise NotInvertibleError("a ramified element with one digit leaves no digit of its inverse")
    n, m = ctx.phi - r, ctx.p**a.prec
    c = _reduce(ctx, [(-1) ** (n - i) * comb(n, i) for i in range(n + 1)], m * ctx.p)  # (x - 1)^n
    w = tuple([v // ctx.p for v in _unit_mul(ctx, a.unit, c, m * ctx.p)])
    return CycloCoeff(ctx, -a.shift - 1, _unit_mul(ctx, c, _unit_inv(ctx, w, a.prec), m), prec)


def val_p(a: CycloCoeff) -> Fraction | float:
    """Valuation normalized so val_p(p) = 1; +inf for the zero element.

    The unit part's pi-adic valuation is below phi(p^s), so the reported
    value shift + r/phi is exact at the stored precision.
    """
    if a.is_zero():
        return inf
    ctx = a.ctx
    if ctx.s == 0:
        return Fraction(a.shift)
    return Fraction(a.shift * ctx.phi + _pi_order(ctx.p, a.unit), ctx.phi)
