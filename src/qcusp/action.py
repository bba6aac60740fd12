"""2x2 matrix groups over Z/p^m, the cusp-point quotient, the level-p group
action on Tate parameter data, and the Hodge-Tate period map.

A cusp point is stored in quotient normal form: an upper-triangular matrix
together with its q-expansion and renormalization index e (prime to p).
Replacing the matrix by gamma*(1 0; h 1) while twisting the expansion by h
does not change the point; normalization eagerly removes such factors via
the decomposition (a b; c d) = (det/d, b; 0, d)*(1 0; c/d, 1), which makes
equality decidable.

The group action is implemented only on the chart where d stays a unit
(lower-left entry divisible by p); the other chart has no expansion-level
formula here, only the block classification and the projective-line action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import is_prime
from .errors import DomainError
from .series import FracSeries, twist


@dataclass(frozen=True)
class Mat2:
    """An element of GL_2(Z/p^m): entries mod p^m with unit determinant mod p."""

    p: int
    m: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"matrix modulus needs a prime p, got {self.p}")
        if self.m < 1:
            raise DomainError(f"matrix precision m must be >= 1, got {self.m}")
        pm = self.p**self.m
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % pm)
        if self.det() % self.p == 0:
            raise DomainError("matrix is not invertible mod p")

    @classmethod
    def identity(cls, p: int, m: int) -> "Mat2":
        return cls(p, m, 1, 0, 0, 1)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p**self.m

    def __mul__(self, other: "Mat2") -> "Mat2":
        if (self.p, self.m) != (other.p, other.m):
            raise DomainError("matrix precision mismatch")
        return Mat2(
            self.p, self.m,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def is_upper(self) -> bool:
        return self.c == 0

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def subgroup_test(g: Mat2, which: str, n: int | None = None) -> bool:
    """Membership tests decided by unit/divisibility checks on entries.

    which: 'gamma0' (lower-left divisible by p^n), 'gamma0_inf' (upper
    triangular at the working precision), 'anticanonical' (d a unit),
    'canonical' (b, c units and d divisible by p).
    """
    p = g.p
    if which == "gamma0":
        if n is None:
            raise ValueError("gamma0 test needs a level n")
        if n > g.m:
            raise DomainError(f"level p^{n} is below matrix precision p^{g.m}")
        return g.c % p**n == 0
    if which == "gamma0_inf":
        return g.c == 0
    if which == "anticanonical":
        return g.d % p != 0
    if which == "canonical":
        return g.b % p != 0 and g.c % p != 0 and g.d % p == 0
    raise ValueError(f"unknown subgroup {which!r}")


def decompose_gamma(g: Mat2) -> tuple[Mat2, int]:
    """Write g = (det/d, b; 0, d) * (1, 0; h, 1) with h = c/d; needs d a unit.

    A non-unit d means the point sits on the other chart, where this
    decomposition does not exist.
    """
    pm = g.p**g.m
    if g.d % g.p == 0:
        raise DomainError("decomposition undefined: d is not a unit (other chart)")
    d_inv = pow(g.d, -1, pm)
    upper = Mat2(g.p, g.m, g.det() * d_inv, g.b, 0, g.d)
    h = (g.c * d_inv) % pm
    return upper, h


@dataclass(frozen=True)
class CuspPoint:
    """Quotient normal form (upper-triangular matrix, expansion, index e)."""

    gamma: Mat2
    series: FracSeries
    e: int
    cusp_label: str = ""

    def __post_init__(self):
        if not self.gamma.is_upper():
            raise DomainError("cusp points are stored with an upper-triangular matrix")
        ctx = self.series.ctx
        if self.gamma.p != ctx.p:
            raise DomainError("matrix prime and series context disagree")
        if self.e < 1 or self.e % ctx.p == 0:
            raise DomainError("renormalization index e must be positive and prime to p")
        if self.series.depth_bound > ctx.s:
            raise DomainError("series depth bound exceeds the cyclotomic depth s")

    @classmethod
    def from_representative(cls, gamma: Mat2, series: FracSeries, e: int, cusp_label: str = "") -> "CuspPoint":
        """Normalize an arbitrary representative with unit d: split off the
        unipotent factor and absorb it into the expansion as a twist."""
        upper, h = decompose_gamma(gamma)
        return cls(upper, twist(series, -h, e), e, cusp_label)


def act_cusp(g1: Mat2, x: CuspPoint) -> CuspPoint:
    """Left action of the c = 0 mod p chart: multiply the matrices and
    renormalize, twisting the expansion by -c3/d3."""
    if g1.c % g1.p != 0:
        raise DomainError("act_cusp is defined for matrices with c = 0 mod p")
    if (g1.p, g1.m) != (x.gamma.p, x.gamma.m):
        raise DomainError("matrix precision mismatch")
    if x.series.depth_bound > g1.m:
        raise DomainError("matrix precision is too coarse for the series depth")
    g3 = g1 * x.gamma
    if g3.d % g3.p == 0:
        raise RuntimeError("internal error: d became a non-unit on the upper chart")
    return CuspPoint.from_representative(g3, x.series, x.e, x.cusp_label)


@dataclass(frozen=True)
class ProjPoint:
    """A point (x : y) of P^1(Z/p^m) in normal form: (x : 1) if the second
    coordinate is a unit, else (1 : y)."""

    p: int
    m: int
    x: int
    y: int

    @classmethod
    def make(cls, p: int, m: int, b: int, d: int) -> "ProjPoint":
        pm = p**m
        b %= pm
        d %= pm
        if d % p != 0:
            return cls(p, m, (b * pow(d, -1, pm)) % pm, 1)
        if b % p != 0:
            return cls(p, m, 1, (d * pow(b, -1, pm)) % pm)
        raise DomainError("(b : d) with both coordinates divisible by p is not projective")


def ht(x: CuspPoint) -> ProjPoint:
    """The period map on normal forms: (a b; 0 d) goes to (b : d). Locally
    constant, so the expansion component is ignored by construction."""
    return ProjPoint.make(x.gamma.p, x.gamma.m, x.gamma.b, x.gamma.d)


def proj_action(g: Mat2, pt: ProjPoint) -> ProjPoint:
    """Linear action on column vectors (b; d), renormalized."""
    if (g.p, g.m) != (pt.p, pt.m):
        raise DomainError("matrix precision mismatch")
    return ProjPoint.make(g.p, g.m, g.a * pt.x + g.b * pt.y, g.c * pt.x + g.d * pt.y)


@dataclass(frozen=True)
class TateSymbol:
    """Formal Tate-module element q^(r/p^oo) * zeta^(s/p^oo), additive in
    (r, s) componentwise; the canonical line is r = 0."""

    p: int
    m: int
    r: int
    s: int

    def __post_init__(self):
        pm = self.p**self.m
        object.__setattr__(self, "r", self.r % pm)
        object.__setattr__(self, "s", self.s % pm)

    def __add__(self, other: "TateSymbol") -> "TateSymbol":
        return TateSymbol(self.p, self.m, self.r + other.r, self.s + other.s)

    def scaled(self, n: int) -> "TateSymbol":
        return TateSymbol(self.p, self.m, n * self.r, n * self.s)

    def is_canonical(self) -> bool:
        return self.r == 0


def tate_basis(g: Mat2) -> tuple[TateSymbol, TateSymbol]:
    """The ordered Tate-module basis attached to an upper-triangular matrix:
    e1 = q^(d/p^oo), e2 = zeta^(a/p^oo) q^(-b/p^oo)."""
    if not g.is_upper():
        raise DomainError("tate_basis needs an upper-triangular matrix")
    return TateSymbol(g.p, g.m, g.d, 0), TateSymbol(g.p, g.m, -g.b, g.a)


def canonical_line(g: Mat2) -> ProjPoint:
    """Solve x*e1 + y*e2 onto the canonical line r = 0; this recovers the
    period map by pure Tate-module linear algebra."""
    e1, e2 = tate_basis(g)
    pm = g.p**g.m
    # x*e1.r + y*e2.r = 0 with (x : y) projective
    if e1.r % g.p != 0:
        x, y = (-e2.r * pow(e1.r, -1, pm)) % pm, 1
    elif e2.r % g.p != 0:
        x, y = 1, (-e1.r * pow(e2.r, -1, pm)) % pm
    else:
        raise DomainError("degenerate basis: no canonical line at this precision")
    combo = e1.scaled(x) + e2.scaled(y)
    if not combo.is_canonical():
        raise RuntimeError("internal error: solved line is not canonical")
    return ProjPoint.make(g.p, g.m, x, y)


def splitting_section(a: int, p: int, m: int) -> Mat2:
    """a -> diag(a, 1/a), the section splitting the diagonal out of the
    upper-triangular group; its image maps to (0 : 1) under the period map."""
    pm = p**m
    if a % p == 0:
        raise DomainError("splitting section needs a unit")
    return Mat2(p, m, a, 0, 0, pow(a, -1, pm))
