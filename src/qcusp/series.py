"""Sparse Laurent series in q with exponents in Z[1/p].

A FracSeries is a finite map from exponents (rationals whose denominator is
a p-power) to CycloCoeff values, together with three truncation bounds:

* deg_bound: exponents above it are unknown, which is not the same as zero;
* depth_bound: the largest p-power denominator the series may use;
* laurent: whether finitely many negative exponents are permitted.

These model O[[q^(1/p^oo)]][1/p] and its Laurent completion at working
precision. Operation results carry soundly shrunk degree bounds so that a
term the truncation cannot certify is never reported.

Stored exponent keys are Fraction values; Fraction normalization makes the
"p does not divide the numerator unless the depth is 0" invariant automatic.
The kernels do not loop on Fractions: products key terms by the integer
numerators over one common p-power denominator (`_int_keys`), and compose
and revert work on dense lists indexed by integer exponent. Each result
term converts back to a Fraction once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, inf

from .coeff import CycloCoeff, RingContext
from .errors import ContextMismatchError, DepthError, DomainError


@dataclass(frozen=True)
class Exponent:
    """A fractional exponent num / p^depth. Convenience input form."""

    num: int
    depth: int = 0

    def as_fraction(self, p: int) -> Fraction:
        if self.depth < 0:
            raise ValueError("exponent depth must be >= 0")
        return Fraction(self.num, p**self.depth)


ExponentLike = "Exponent | Fraction | int | tuple[int, int]"


def as_exponent(m, p: int) -> Fraction:
    """Coerce an exponent-like value to a Fraction with p-power denominator."""
    if isinstance(m, Exponent):
        return m.as_fraction(p)
    if isinstance(m, tuple):
        return Exponent(*m).as_fraction(p)
    f = Fraction(m)
    exponent_depth(f, p)  # validates the denominator
    return f


def exponent_depth(m: Fraction, p: int) -> int:
    """The depth r of m = num / p^r in lowest terms; rejects other denominators."""
    den = m.denominator
    r = 0
    while den > 1:
        den, rem = divmod(den, p)
        if rem:
            raise DomainError(f"exponent {m} does not have a p-power denominator (p={p})")
        r += 1
    return r


class FracSeries:
    """Finite q-expansion with fractional exponents and truncation bounds.

    Immutable after construction; do not mutate the returned term maps.
    """

    __slots__ = ("ctx", "_terms", "deg_bound", "depth_bound", "laurent")

    def __init__(
        self,
        ctx: RingContext,
        terms: dict[Fraction, CycloCoeff],
        deg_bound,
        depth_bound: int,
        laurent: bool,
        *,
        _trusted: bool = False,
    ):
        self.ctx = ctx
        self.deg_bound = deg_bound if deg_bound == inf else Fraction(deg_bound)
        self.depth_bound = depth_bound
        self.laurent = laurent
        if _trusted:
            self._terms = terms
            return
        clean: dict[Fraction, CycloCoeff] = {}
        for m, c in terms.items():
            if c.ctx != ctx:
                raise ContextMismatchError("coefficient context differs from series context")
            if c.is_zero():
                continue
            r = exponent_depth(m, ctx.p)
            if r > depth_bound:
                raise DepthError(f"exponent {m} has depth {r} > depth bound {depth_bound}")
            if m > self.deg_bound:
                raise DomainError(f"exponent {m} exceeds degree bound {self.deg_bound}")
            if m < 0 and not laurent:
                raise DomainError(f"negative exponent {m} in a non-Laurent series")
            clean[m] = c
        self._terms = dict(sorted(clean.items()))

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Fraction, CycloCoeff]]:
        """Terms in increasing exponent order, the order every constructor
        stores them in."""
        return list(self._terms.items())

    def coefficient(self, m) -> CycloCoeff:
        key = as_exponent(m, self.ctx.p)
        return self._terms.get(key, CycloCoeff.zero(self.ctx))

    def exponents(self) -> list[Fraction]:
        return list(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def min_exponent(self) -> Fraction | None:
        return min(self._terms) if self._terms else None

    def max_depth(self) -> int:
        """Largest denominator depth among stored terms; 0 for the zero series."""
        p = self.ctx.p
        return max((exponent_depth(m, p) for m in self._terms), default=0)

    def __eq__(self, other: object) -> bool:
        """Equality of term maps; coefficients compare at shared precision.
        The truncation bounds are knowledge metadata, not part of the value."""
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:
        body = " + ".join(f"({c!r})*q^{m}" for m, c in self.items()) or "0"
        return f"FracSeries({body}; deg<={self.deg_bound}, depth<={self.depth_bound}, laurent={self.laurent})"

    def equals_mod(self, other: "FracSeries", digits: int) -> bool:
        """Termwise coefficient equality after re-truncation to `digits`."""
        if self.ctx != other.ctx:
            raise ContextMismatchError("cannot compare across contexts")
        keys = set(self._terms) | set(other._terms)
        zero = CycloCoeff.zero(self.ctx)
        for m in keys:
            a = self._terms.get(m, zero)
            b = other._terms.get(m, zero)
            if not a.equals_mod(b, digits):
                return False
        return True

    # -- ring operations ---------------------------------------------------

    def _check_ctx(self, other: "FracSeries") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError("series contexts differ")

    def __add__(self, other: "FracSeries") -> "FracSeries":
        self._check_ctx(other)
        deg = min(self.deg_bound, other.deg_bound)
        depth = max(self.depth_bound, other.depth_bound)
        out: dict[Fraction, CycloCoeff] = {}
        for m, c in self._terms.items():
            if m <= deg:
                out[m] = c
        for m, c in other._terms.items():
            if m > deg:
                continue
            s = out[m] + c if m in out else c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return FracSeries(
            self.ctx, dict(sorted(out.items())), deg, depth,
            self.laurent or other.laurent, _trusted=True,
        )

    def __neg__(self) -> "FracSeries":
        return FracSeries(
            self.ctx, {m: -c for m, c in self._terms.items()},
            self.deg_bound, self.depth_bound, self.laurent, _trusted=True,
        )

    def __sub__(self, other: "FracSeries") -> "FracSeries":
        return self + (-other)

    def __mul__(self, other: "FracSeries") -> "FracSeries":
        self._check_ctx(other)
        deg = _mul_deg_bound(self, other)
        depth = max(self.depth_bound, other.depth_bound)
        a, b, den, top = _int_keys(self._terms, other._terms, deg)
        out: dict[int, CycloCoeff] = {}
        for m1, c1 in a:
            for m2, c2 in b:
                m = m1 + m2
                if m > top:
                    break
                c = c1 * c2
                if m in out:
                    c = out[m] + c
                if c.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = c
        return FracSeries(
            self.ctx, {Fraction(m, den): c for m, c in sorted(out.items())}, deg, depth,
            self.laurent or other.laurent, _trusted=True,
        )

    def scale(self, c: CycloCoeff) -> "FracSeries":
        """Multiply every coefficient by c."""
        if c.ctx != self.ctx:
            raise ContextMismatchError("scalar context differs")
        out = {}
        for m, v in self._terms.items():
            w = v * c
            if not w.is_zero():
                out[m] = w
        return FracSeries(self.ctx, out, self.deg_bound, self.depth_bound, self.laurent, _trusted=True)

    def p_times(self, t: int) -> "FracSeries":
        """Multiply by p^t, exactly, via the coefficient shifts."""
        return FracSeries(
            self.ctx, {m: c.p_times(t) for m, c in self._terms.items()},
            self.deg_bound, self.depth_bound, self.laurent, _trusted=True,
        )

    def truncate_degree(self, new_deg) -> "FracSeries":
        """Forget all terms above new_deg and lower the degree bound."""
        deg = min(self.deg_bound, new_deg if new_deg == inf else Fraction(new_deg))
        out = {m: c for m, c in self._terms.items() if m <= deg}
        return FracSeries(self.ctx, out, deg, self.depth_bound, self.laurent, _trusted=True)


def _mul_deg_bound(f, g):
    """Sound degree bound for f*g: the unknown tail of one factor first meets
    the smallest known exponent of the other at deg + min-exponent."""
    if f.deg_bound == inf and g.deg_bound == inf:
        return inf
    mf = min([*f._terms, f.deg_bound])
    mg = min([*g._terms, g.deg_bound])
    left = inf if f.deg_bound == inf else f.deg_bound + mg
    right = inf if g.deg_bound == inf else g.deg_bound + mf
    return min(left, right)


def _int_keys(ta: dict, tb: dict, deg):
    """Both term maps as ascending (integer numerator, coefficient) lists over
    their common denominator den, and the largest numerator top <= deg * den.

    Denominators are p-powers, so the largest one is a multiple of the rest.
    deg may have a larger denominator than den, hence floor, never equality.
    """
    den = max([m.denominator for m in ta] + [m.denominator for m in tb], default=1)
    # keys are distinct, so sorting the pairs never compares coefficients
    a = sorted([(m.numerator * (den // m.denominator), c) for m, c in ta.items()])
    b = sorted([(m.numerator * (den // m.denominator), c) for m, c in tb.items()])
    return a, b, den, inf if deg == inf else floor(deg * den)


# -- constructors ------------------------------------------------------------


def from_terms(ctx: RingContext, pairs, deg_bound, depth_bound: int, laurent: bool = False) -> FracSeries:
    """Build a normalized series from (exponent, coefficient) pairs.

    Exponents may be Exponent, Fraction, int, or (num, depth) tuples.
    Coefficients may be CycloCoeff or int. Duplicate exponents after
    normalization are an error; zero coefficients are dropped.
    """
    terms: dict[Fraction, CycloCoeff] = {}
    for m, c in pairs:
        key = as_exponent(m, ctx.p)
        if key in terms:
            raise DomainError(f"duplicate exponent {key}")
        if isinstance(c, int):
            c = CycloCoeff.from_int(ctx, c)
        terms[key] = c
    return FracSeries(ctx, terms, deg_bound, depth_bound, laurent)


def zero_series(ctx: RingContext, deg_bound, depth_bound: int, laurent: bool = False) -> FracSeries:
    return FracSeries(ctx, {}, deg_bound, depth_bound, laurent, _trusted=True)


def monomial(ctx: RingContext, m, c=1, *, deg_bound=None, depth_bound=None, laurent=None) -> FracSeries:
    key = as_exponent(m, ctx.p)
    r = exponent_depth(key, ctx.p)
    return from_terms(
        ctx, [(key, c)],
        key if deg_bound is None else deg_bound,
        r if depth_bound is None else depth_bound,
        (key < 0) if laurent is None else laurent,
    )


# -- substitution, twisting, composition -------------------------------------


def substitute_power(f: FracSeries, j: int) -> FracSeries:
    """Substitute q -> q^j for j a power of p: exponents and the degree bound
    scale by j and denominator depths drop accordingly."""
    p = f.ctx.p
    jj = j
    while jj > 1 and jj % p == 0:
        jj //= p
    if jj != 1 or j < 1:
        raise DomainError(f"substitution power {j} is not a power of p={p}")
    terms = {m * j: c for m, c in f._terms.items()}
    deg = inf if f.deg_bound == inf else f.deg_bound * j
    return FracSeries(f.ctx, terms, deg, f.depth_bound, f.laurent, _trusted=True)


def scale_exponents(f: FracSeries, e: int) -> FracSeries:
    """Substitute q -> q^e for e >= 1 prime to p; depths are unchanged."""
    if e < 1 or e % f.ctx.p == 0:
        raise DomainError(f"exponent scale {e} must be positive and prime to p={f.ctx.p}")
    terms = {m * e: c for m, c in f._terms.items()}
    deg = inf if f.deg_bound == inf else f.deg_bound * e
    return FracSeries(f.ctx, terms, deg, f.depth_bound, f.laurent, _trusted=True)


def twist(f: FracSeries, h: int, e: int = 1) -> FracSeries:
    """The automorphism q^(1/p^n) -> zeta_{p^n}^(h/e) q^(1/p^n).

    The coefficient at exponent m = j/p^r (lowest terms) is multiplied by
    zeta_{p^r}^((h/e mod p^r) * j). Depth r = 0 terms are fixed. Requires
    cyclotomic depth s >= every stored depth and e prime to p.
    """
    ctx = f.ctx
    p = ctx.p
    if e % p == 0 or e < 1:
        raise DomainError(f"twist denominator e={e} must be positive and prime to p={p}")
    need = f.max_depth()
    if need > ctx.s:
        raise DepthError(f"twist needs cyclotomic depth {need}, context has s={ctx.s}")
    out: dict[Fraction, CycloCoeff] = {}
    for m, c in f._terms.items():
        r = exponent_depth(m, p)
        if r == 0:
            out[m] = c
            continue
        pr = p**r
        h_eff = (h * pow(e, -1, pr)) % pr
        out[m] = c.mul_zeta_power(r, (h_eff * m.numerator) % pr)
    return FracSeries(ctx, out, f.deg_bound, f.depth_bound, f.laurent, _trusted=True)


def compose(f: FracSeries, g: FracSeries) -> FracSeries:
    """Substitute g into f. Requires integer exponents on f, and strictly
    positive integer exponents on g.

    Works on dense lists through n = min(deg, max exp(f) * max exp(g)): the
    powers g^e by `_dense_mul`, and sum_e f_e g^e accumulated in ascending e.
    """
    f._check_ctx(g)
    if f.max_depth() != 0 or any(m < 0 for m in f._terms):
        raise DomainError("compose requires nonnegative integer exponents on the outer series")
    if g.max_depth() != 0 or any(m <= 0 for m in g._terms):
        raise DomainError("inner series must have strictly positive integer exponents")
    deg = min(f.deg_bound, g.deg_bound)
    if deg < 0:
        raise DomainError(f"exponent 0 exceeds degree bound {deg}")
    ctx = f.ctx
    n = int(max(f._terms, default=0)) * int(max(g._terms, default=0))
    if deg != inf:
        n = min(n, floor(deg))
    gd = _dense(g, n)
    gp = [None] * (n + 1)  # g^power
    gp[0] = CycloCoeff.one(ctx)
    acc = [None] * (n + 1)
    power = 0
    for m, c in f.items():
        e = int(m)
        if e > n:  # g^e starts at q^e
            break
        while power < e:
            gp = _dense_mul(gp, gd, n)
            power += 1
        for i, v in enumerate(gp):
            if v is None:
                continue
            w = v * c
            s = acc[i]
            if s is not None:
                w = s + w
            acc[i] = None if w.is_zero() else w
    depth = max(f.depth_bound, g.depth_bound)
    if f._terms:  # the sum then includes a power of g, whose depth bound is >= 0
        depth = max(depth, 0)
    return FracSeries(ctx, _sparse(acc), deg, depth, f.laurent or g.laurent, _trusted=True)


def _dense(f: FracSeries, n: int) -> list:
    """The integer-exponent terms of f through q^n as a list; None marks absent."""
    out = [None] * (n + 1)
    for m, c in f._terms.items():
        if m <= n:
            out[int(m)] = c
    return out


def _sparse(a: list) -> dict[Fraction, CycloCoeff]:
    return {Fraction(i): c for i, c in enumerate(a) if c is not None}


def _dense_mul(a: list, b: list, n: int) -> list:
    """a*b through q^n, in the accumulation order of FracSeries.__mul__:
    a ascending outside, b ascending inside, and a sum that cancels to zero
    is dropped."""
    bl = [(j, c) for j, c in enumerate(b) if c is not None]
    out = [None] * (n + 1)
    for i, c1 in enumerate(a):
        if c1 is None:
            continue
        for j, c2 in bl:
            m = i + j
            if m > n:
                break
            c = c1 * c2
            s = out[m]
            if s is not None:
                c = s + c
            out[m] = None if c.is_zero() else c
    return out


def revert(f: FracSeries) -> FracSeries:
    """Compositional inverse g of f = c1 q + O(q^2) with c1 a unit;
    compose(f, g) = q up to deg_bound.

    Back-substitution on a power table P[j][d] = [q^d] g^j (Brent-Kung,
    J. ACM 1978): at step d, fill P[j][d] = sum_m P[j-1][m] b_(d-m) for
    j = 2..d, then b_d = -(sum_j P[j][d] a_j) / c1. That is O(n^3)
    coefficient products, in the order compose(f, g) would perform them.
    It divides only by the unit c1, so no p-adic digits are spent, as
    Lagrange's 1/d would spend them.
    """
    from .coeff import inv as coeff_inv

    ctx = f.ctx
    if f.max_depth() != 0 or any(m < 0 for m in f._terms):
        raise DomainError("reversion is defined on the integer-exponent subring")
    if not f.coefficient(0).is_zero():
        raise DomainError("reversion requires zero constant term")
    c1 = f.coefficient(1)
    if c1.shift != 0:
        from .errors import NotInvertibleError

        raise NotInvertibleError("reversion requires a unit linear coefficient")
    c1_inv = coeff_inv(c1)  # raises NotInvertibleError for a ramified non-unit
    if f.deg_bound == inf:
        raise DomainError("reversion needs a finite degree bound")
    degree = int(f.deg_bound)
    a = _dense(f, degree)
    b = [None] * (degree + 1)
    b[1] = c1_inv
    P = [None, b] + [[None] * (degree + 1) for _ in range(2, degree + 1)]
    for d in range(2, degree + 1):
        err = None
        for j in range(2, d + 1):
            prev = P[j - 1]
            s = None
            for m1 in range(j - 1, d):
                x = prev[m1]
                y = b[d - m1]
                if x is None or y is None:
                    continue
                c = x * y
                if s is not None:
                    c = s + c
                s = None if c.is_zero() else c
            P[j][d] = s
            if s is None or a[j] is None:
                continue
            w = s * a[j]
            if err is not None:
                w = err + w
            err = None if w.is_zero() else w
        if err is not None:
            bd = -(err * c1_inv)
            if not bd.is_zero():
                b[d] = bd
    return FracSeries(ctx, _sparse(b), f.deg_bound, 0, False, _trusted=True)


# -- families ----------------------------------------------------------------


class FamilySeries:
    """A continuous map (Z/p^m)^x -> series, given on residue representatives.

    Models level-Gamma_1 data as one expansion per unit residue class.
    """

    __slots__ = ("level", "values")

    def __init__(self, level: int, values: dict[int, FracSeries]):
        if level < 0:
            raise ValueError("family level must be >= 0")
        self.level = level
        if not values:
            raise ValueError("family must have at least one member")
        some = next(iter(values.values()))
        pm = some.ctx.p**level
        norm: dict[int, FracSeries] = {}
        for a, f in values.items():
            if f.ctx != some.ctx:
                raise ContextMismatchError("family members share one context")
            if (f.deg_bound, f.depth_bound, f.laurent) != (some.deg_bound, some.depth_bound, some.laurent):
                raise DomainError("family members share bounds")
            key = a % pm
            if level > 0 and gcd(key, some.ctx.p) != 1:
                raise DomainError(f"residue {a} is not a unit mod p^{level}")
            if key in norm:
                raise DomainError(f"duplicate residue class {key}")
            norm[key] = f
        expected = [a for a in range(pm)] if level == 0 else [a for a in range(pm) if gcd(a, some.ctx.p) == 1]
        if sorted(norm) != expected:
            raise DomainError("family must cover every unit residue class")
        self.level = level
        self.values = dict(sorted(norm.items()))

    def members(self) -> list[tuple[int, FracSeries]]:
        return sorted(self.values.items())

    def translate(self, a: int) -> "FamilySeries":
        """Precompose the residue labels with multiplication by the unit a."""
        some = next(iter(self.values.values()))
        pm = some.ctx.p**self.level
        if self.level > 0 and gcd(a, some.ctx.p) != 1:
            raise DomainError("translation requires a unit")
        return FamilySeries(self.level, {(a * b) % pm if self.level else b: f for b, f in self.values.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FamilySeries):
            return NotImplemented
        return self.level == other.level and self.values == other.values
