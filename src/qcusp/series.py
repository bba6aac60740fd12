"""Sparse Laurent series in q with exponents in Z[1/p].

A series is a finite map from exponents (rationals whose denominator is a
p-power) to coefficients, together with three truncation bounds:

* deg_bound: exponents above it are unknown, which is not the same as zero;
* depth_bound: the largest p-power denominator the series may use;
* laurent: whether finitely many negative exponents are permitted.

These model O[[q^(1/p^oo)]][1/p] and its Laurent completion at working
precision. Operation results carry soundly shrunk degree bounds so that a
term the truncation cannot certify is never reported.

One core, `_SparseSeries`, serves two coefficient rings: `FracSeries`
(CycloCoeff) and `tiltperf.CharPSeries` (F_p). It stores the terms as an
ascending dict from integer numerators over p^depth_bound to nonzero
coefficients; binary operations first scale both operands' keys to the
larger depth bound. Fractions appear only at the public edge: constructor
input, `items`, `exponents`, `coefficient`, `min_exponent` and `deg_bound`.
Other modules read the keys through `lowest_terms`, `with_depth_bound` and
`substitute_power`, so only this module computes or scales a stored key.

Over CycloCoeff, products, `compose` and `revert` sum their coefficient
products one at a time, in a fixed order, and drop a partial sum that
collapses to zero; the precision of a result depends on that order
(ROADMAP item 1). At phi = 1 (s = 0, or p = 2 with s = 1) they run the same
sums on plain integers. There a nonzero coefficient p^shift * u is an integer
unit u mod p^prec, known to the absolute precision shift + prec. A product of
two nonzero coefficients is never zero, and its absolute precision is
shift1 + shift2 + min(prec1, prec2). A partial sum is the normal form of the
exact integer sum mod p^A, A the least absolute precision among its terms:
a sum's absolute precision is the lesser of its operands' (a prec never
exceeds k, so the cap at k digits above the lower shift never binds), and A
never rises, so each reduction agrees with the ones before it. So each
output key keeps a running integer R over p^base and the running
minimum A, and the loop's collapse to zero is exactly R = 0 mod p^(A - base),
after which the key restarts at its next product. A term enters as
x = u * p^(shift - base), over one base shift per operand at most every
shift of that operand, so that x1 * x2 is over the sum of the two bases. One
CycloCoeff is built per surviving key, through `coeff._p_content`. The loop
order is kept, so the results equal the coefficient loop's in shift, unit
and prec, the order-dependent ones included. Above phi = 1 the coefficient
loops run: `_SparseSeries._products` forms products and compose's powers
g^e, and `_fold` sums compose's f_e g^e and revert's power table, all keyed
by integer exponent. Over F_p, `_products` runs on raw integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import NamedTuple

from .coeff import CycloCoeff, RingContext, _p_content, inv, val_p
from .errors import ContextMismatchError, DepthError, DomainError, NotInvertibleError


class Exponent(NamedTuple):
    """A fractional exponent num / p^depth. Convenience input form, the same
    as the tuple (num, depth)."""

    num: int
    depth: int = 0


def _exponent_parts(m, p: int) -> tuple[int, int]:
    """(numerator, denominator) of an exponent-like value: Exponent or
    (num, depth), Fraction or int. Not validated, nor in lowest terms."""
    if isinstance(m, tuple):
        num, r = m
        if r < 0:
            raise ValueError("exponent depth must be >= 0")
        return num, p**r
    if not isinstance(m, (int, Fraction)):
        m = Fraction(m)
    return m.numerator, m.denominator


def as_exponent(m, p: int) -> Fraction:
    """Coerce an exponent-like value (Exponent, (num, depth) tuple, Fraction,
    int) to a Fraction with p-power denominator."""
    f = Fraction(*_exponent_parts(m, p))
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


def _top(deg, den: int):
    """The largest key k with k / den <= deg; deg may be deeper than den."""
    return inf if deg == inf else deg.numerator * den // deg.denominator


class _SparseSeries:
    """Terms keyed by integer numerators over p^depth_bound, plus bounds.
    Immutable. Subclasses supply the coefficient ring through `_set_ring`,
    `_ring`, `_zero` and `_normalize`."""

    __slots__ = ("p", "_terms", "deg_bound", "depth_bound", "laurent")

    def __init__(self, ring, terms: dict, deg_bound, depth_bound: int, laurent: bool = False, *, _trusted: bool = False):
        """`ring` is the coefficient ring (a RingContext, or the prime p for
        F_p); `terms` maps exponent-like values to coefficients, and zero
        coefficients are dropped."""
        self.p = p = self._set_ring(ring)
        self.depth_bound = depth_bound
        self.laurent = laurent
        if _trusted:
            # ascending integer keys at this depth bound; deg_bound a Fraction or inf
            self.deg_bound = deg_bound
            self._terms = terms
            return
        self.deg_bound = deg_bound if deg_bound == inf else Fraction(deg_bound)
        if depth_bound < 0:
            raise DepthError(f"depth bound {depth_bound} is negative")
        den = p**depth_bound
        top = _top(self.deg_bound, den)
        normalize = self._normalize
        clean = {}
        for m, c in terms.items():
            c = normalize(c)
            if c is None:
                continue
            num, d = _exponent_parts(m, p)
            k, rem = divmod(num * den, d)
            if rem:
                # exponent_depth raises first for a denominator that is not a p-power
                m = Fraction(num, d)
                raise DepthError(f"exponent {m} has depth {exponent_depth(m, p)} > depth bound {depth_bound}")
            if k > top:
                raise DomainError(f"exponent {Fraction(k, den)} exceeds degree bound {self.deg_bound}")
            if k < 0 and not laurent:
                raise DomainError(f"negative exponent {Fraction(k, den)} in a non-Laurent series")
            if k in clean:
                raise DomainError(f"duplicate exponent {Fraction(k, den)}")
            clean[k] = c
        self._terms = dict(sorted(clean.items()))

    def _new(self, terms: dict, deg_bound, depth_bound: int, laurent: bool):
        """A series over the same ring from integer keys at depth_bound."""
        return type(self)(self._ring(), terms, deg_bound, depth_bound, laurent, _trusted=True)

    def _same_ring(self, other: "_SparseSeries") -> bool:
        a, b = self._ring(), other._ring()
        return a is b or a == b

    def _check(self, other: "_SparseSeries") -> None:
        if not self._same_ring(other):
            raise ContextMismatchError(f"series rings differ: {self._ring()} vs {other._ring()}")

    def _keys_at(self, depth: int) -> dict:
        """The term map with keys over p^depth; terms deeper than depth are dropped."""
        d = depth - self.depth_bound
        if d == 0:
            return self._terms
        if d > 0:
            s = self.p**d
            return {k * s: c for k, c in self._terms.items()}
        s = self.p**-d
        return {k // s: c for k, c in self._terms.items() if k % s == 0}

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Fraction, object]]:
        """Terms in increasing exponent order, the order they are stored in."""
        den = self.p**self.depth_bound
        return [(Fraction(k, den), c) for k, c in self._terms.items()]

    def exponents(self) -> list[Fraction]:
        return [m for m, _ in self.items()]

    def coefficient(self, m):
        """The coefficient at an exponent-like m; zero when there is no term."""
        num, d = _exponent_parts(m, self.p)
        k, rem = divmod(num * self.p**self.depth_bound, d)
        if rem:
            exponent_depth(Fraction(num, d), self.p)  # rejects a denominator that is not a p-power
        return self._zero() if rem else self._terms.get(k, self._zero())

    def is_zero(self) -> bool:
        return not self._terms

    def min_exponent(self) -> Fraction | None:
        return Fraction(next(iter(self._terms)), self.p**self.depth_bound) if self._terms else None

    def max_depth(self) -> int:
        """Largest denominator depth among stored terms; 0 for the zero series."""
        g = gcd(*self._terms)  # 0 for no terms or only q^0, which has depth 0
        r = self.depth_bound
        while r and g % self.p == 0:
            g //= self.p
            r -= 1
        return r

    def __eq__(self, other: object) -> bool:
        """Equality of term maps at a common key scale. The truncation bounds
        are knowledge metadata, not part of the value."""
        if type(other) is not type(self):
            return NotImplemented
        if not self._same_ring(other):
            return False
        depth = max(self.depth_bound, other.depth_bound)
        return self._keys_at(depth) == other._keys_at(depth)

    __hash__ = None

    def __repr__(self) -> str:
        body = " + ".join(f"({c!r})*q^{m}" for m, c in self.items()) or "0"
        return f"{type(self).__name__}({body}; p={self.p}, deg<={self.deg_bound}, depth<={self.depth_bound}, laurent={self.laurent})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        deg = min(self.deg_bound, other.deg_bound)
        depth = max(self.depth_bound, other.depth_bound)
        top = _top(deg, self.p**depth)
        out = {k: c for k, c in self._keys_at(depth).items() if k <= top}
        normalize = self._normalize
        for k, c in other._keys_at(depth).items():
            if k > top:
                break
            if k in out:
                c = normalize(out.pop(k) + c)
            if c is not None:
                out[k] = c
        return self._new(dict(sorted(out.items())), deg, depth, self.laurent or other.laurent)

    def __neg__(self):
        normalize = self._normalize  # the negative of a nonzero coefficient is nonzero
        return self._new({k: normalize(-c) for k, c in self._terms.items()},
                         self.deg_bound, self.depth_bound, self.laurent)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product at the larger depth bound, with a degree bound that
        the unknown tails of both factors respect. `_products` forms the
        terms: for FracSeries at phi = 1 on the integer kernel of the module
        docstring, with one base shift per factor, and otherwise by the
        coefficient loop, whose terms the kernel reproduces exactly."""
        self._check(other)
        deg = _mul_deg_bound(self, other)
        depth = max(self.depth_bound, other.depth_bound)
        terms = self._products(self._keys_at(depth), other._keys_at(depth), _top(deg, self.p**depth))
        return self._new(terms, deg, depth, self.laurent or other.laurent)

    def _products(self, a: dict, b: dict, top) -> dict:
        """The product's key loop: a ascending outside, b ascending inside,
        keys up to top, and a partial sum that is zero is dropped. Over
        CycloCoeff the precision depends on that order (ROADMAP item 1); over
        F_p the sums stay raw integers until `_normalize` reduces each term
        once."""
        b = list(b.items())
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b:
                m = m1 + m2
                if m > top:
                    break
                c = c1 * c2
                s = out.get(m)  # a stored sum is never None
                if s is not None:
                    c = s + c
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        normalize = self._normalize
        return {m: c for m in sorted(out) if (c := normalize(out[m])) is not None}

    def truncate_degree(self, new_deg):
        """Forget all terms above new_deg and lower the degree bound."""
        deg = min(self.deg_bound, new_deg if new_deg == inf else Fraction(new_deg))
        top = _top(deg, self.p**self.depth_bound)
        return self._new({k: c for k, c in self._terms.items() if k <= top},
                         deg, self.depth_bound, self.laurent)

    def with_depth_bound(self, depth: int):
        """The terms of depth <= `depth` under depth bound `depth`; the degree
        bound and the Laurent flag are kept."""
        if depth < 0:
            raise DepthError(f"depth bound {depth} is negative")
        return self._new(self._keys_at(depth), self.deg_bound, depth, self.laurent)


def _mul_deg_bound(f, g):
    """Sound degree bound for f*g: the unknown tail of one factor first meets
    the smallest known exponent of the other at deg + min-exponent."""
    if f.deg_bound == inf and g.deg_bound == inf:
        return inf
    mf = f.deg_bound if f.is_zero() else f.min_exponent()
    mg = g.deg_bound if g.is_zero() else g.min_exponent()
    left = inf if f.deg_bound == inf else f.deg_bound + mg
    right = inf if g.deg_bound == inf else g.deg_bound + mf
    return min(left, right)


# -- the phi = 1 integer kernel (see the module docstring) -------------------------


def _least_shift(terms) -> int:
    return min((c.shift for _, c in terms), default=0)


def _int_terms(terms) -> tuple[int, list]:
    """The least shift `base` of (key, coefficient) pairs (0 for none), and
    their entries (key, x, shift, prec) with x the coefficient over p^base."""
    terms = list(terms)
    base = _least_shift(terms)
    return base, [(m, c.unit[0] * c.ctx.p ** (c.shift - base), c.shift, c.prec) for m, c in terms]


def _int_convolve(a: list, b: list, top, out: dict, base: int, p: int) -> dict:
    """Add the products of the entries of a and b with keys up to top into
    out, in the loop's order: a ascending outside, b ascending inside. out
    maps a key to [R, A, p^(A - base)], R the running sum over p^base and A
    the running least absolute precision; a key is dropped, and restarts at
    its next product, when R = 0 mod p^(A - base)."""
    for m1, x1, s1, q1 in a:
        for m2, x2, s2, q2 in b:
            m = m1 + m2
            if m > top:
                break
            t = s1 + s2 + (q1 if q1 < q2 else q2)
            slot = out.get(m)
            if slot is None:
                out[m] = [x1 * x2, t, p ** (t - base)]  # never zero at phi = 1
                continue
            r = slot[0] + x1 * x2
            if t < slot[1]:
                slot[1] = t
                slot[2] = p ** (t - base)
            if r % slot[2]:
                slot[0] = r
            else:
                del out[m]
    return out


def _int_dot(pairs, base: int, p: int) -> list | None:
    """The slot [R, A, p^(A - base)] of the sum of products x1 * x2 over the
    entry pairs ((x1, shift1, prec1), (x2, shift2, prec2)), in their order
    and with `_int_convolve`'s drops; None when the last partial sum drops."""
    slot = None
    for (x1, s1, q1), (x2, s2, q2) in pairs:
        t = s1 + s2 + (q1 if q1 < q2 else q2)
        if slot is None:
            slot = [x1 * x2, t, p ** (t - base)]
            continue
        r = slot[0] + x1 * x2
        if t < slot[1]:
            slot[1] = t
            slot[2] = p ** (t - base)
        if r % slot[2]:
            slot[0] = r
        else:
            slot = None
    return slot


def _int_entry(ctx: RingContext, slot: list, base: int) -> tuple[int, int, int]:
    """The entry (x, shift, prec) of a slot's normal form, x over p^base."""
    r, a, mod = slot
    x = r % mod
    shift, _, prec = _p_content(ctx, base, (x,), a - base)
    return x, shift, prec


def _int_coeff(ctx: RingContext, slot: list, base: int) -> CycloCoeff:
    r, a, mod = slot
    return CycloCoeff(ctx, *_p_content(ctx, base, (r % mod,), a - base), _normalized=True)


def _int_coeffs(ctx: RingContext, out: dict, base: int, scale: int = 1) -> dict:
    """One CycloCoeff per slot of out, keys ascending and multiplied by scale."""
    return {m * scale: _int_coeff(ctx, out[m], base) for m in sorted(out)}


class FracSeries(_SparseSeries):
    """Finite q-expansion over a CycloCoeff ring with truncation bounds."""

    __slots__ = ("ctx",)

    # own class-dict entries, so that instrumentation can wrap them per class
    __init__ = _SparseSeries.__init__
    __add__ = _SparseSeries.__add__
    __mul__ = _SparseSeries.__mul__
    items = _SparseSeries.items

    def _set_ring(self, ctx: RingContext) -> int:
        self.ctx = ctx
        return ctx.p

    def _ring(self) -> RingContext:
        return self.ctx

    def _zero(self) -> CycloCoeff:
        return CycloCoeff.zero(self.ctx)

    def _normalize(self, c: CycloCoeff) -> CycloCoeff | None:
        if c.ctx is not self.ctx and c.ctx != self.ctx:
            raise ContextMismatchError("coefficient context differs from series context")
        return None if c.is_zero() else c

    def _products(self, a: dict, b: dict, top) -> dict:
        """At phi = 1 the integer kernel, with one base shift per factor;
        above phi = 1 the coefficient loop."""
        if self.ctx.phi != 1:
            return _SparseSeries._products(self, a, b, top)
        ba, ea = _int_terms(a.items())
        bb, eb = _int_terms(b.items())
        return _int_coeffs(self.ctx, _int_convolve(ea, eb, top, {}, ba + bb, self.p), ba + bb)

    def equals_mod(self, other: "FracSeries", digits: int) -> bool:
        """Termwise coefficient equality after re-truncation to `digits`."""
        self._check(other)
        depth = max(self.depth_bound, other.depth_bound)
        a, b = self._keys_at(depth), other._keys_at(depth)
        zero = CycloCoeff.zero(self.ctx)
        return all(a.get(k, zero).equals_mod(b.get(k, zero), digits) for k in a.keys() | b.keys())

    def scale(self, c: CycloCoeff) -> "FracSeries":
        """Multiply every coefficient by c."""
        if c.ctx != self.ctx:
            raise ContextMismatchError("scalar context differs")
        out = {k: w for k, v in self._terms.items() if not (w := v * c).is_zero()}
        return self._new(out, self.deg_bound, self.depth_bound, self.laurent)

    def p_times(self, t: int) -> "FracSeries":
        """Multiply by p^t, exactly, via the coefficient shifts."""
        return self._new({k: c.p_times(t) for k, c in self._terms.items()},
                         self.deg_bound, self.depth_bound, self.laurent)


# -- constructors ------------------------------------------------------------


def _term_dict(pairs, p: int) -> dict[Fraction, object]:
    """(exponent-like, coefficient) pairs as a dict; duplicate exponents are an error."""
    terms: dict[Fraction, object] = {}
    for m, c in pairs:
        key = as_exponent(m, p)
        if key in terms:
            raise DomainError(f"duplicate exponent {key}")
        terms[key] = c
    return terms


def from_terms(ctx: RingContext, pairs, deg_bound, depth_bound: int, laurent: bool = False) -> FracSeries:
    """Build a normalized series from (exponent, coefficient) pairs.

    Exponents may be Exponent, Fraction, int, or (num, depth) tuples.
    Coefficients may be CycloCoeff or int. Duplicate exponents after
    normalization are an error; zero coefficients are dropped.
    """
    terms = _term_dict(pairs, ctx.p)
    for m, c in terms.items():
        if isinstance(c, int):
            terms[m] = CycloCoeff.from_int(ctx, c)
    return FracSeries(ctx, terms, deg_bound, depth_bound, laurent)


def zero_series(ctx: RingContext, deg_bound, depth_bound: int, laurent: bool = False) -> FracSeries:
    return FracSeries(ctx, {}, deg_bound, depth_bound, laurent)


def monomial(ctx: RingContext, m, c=1, *, deg_bound=None, depth_bound=None, laurent=None) -> FracSeries:
    key = as_exponent(m, ctx.p)
    r = exponent_depth(key, ctx.p)
    return from_terms(
        ctx, [(key, c)],
        key if deg_bound is None else deg_bound,
        r if depth_bound is None else depth_bound,
        (key < 0) if laurent is None else laurent,
    )


# -- reading integer keys ------------------------------------------------------


def lowest_terms(f: _SparseSeries):
    """(num, r, c) per term in increasing order, exponent num / p^r in lowest terms."""
    p = f.p
    for k, c in f._terms.items():
        r = f.depth_bound
        while r and k % p == 0:
            k //= p
            r -= 1
        yield k, r, c


# -- substitution, twisting, composition -------------------------------------


def _substitute(f: _SparseSeries, j):
    """q -> q^j under the same depth bound, for j > 0 an integer or a power
    of 1/p; every exponent times j must stay within the depth bound."""
    num, den = j.numerator, j.denominator
    if den != 1:
        for k in f._terms:
            if k % den:
                m = Fraction(k, f.p**f.depth_bound)
                raise DepthError(f"depth overflow: q^{m * j} exceeds depth bound {f.depth_bound}")
    terms = {k * num // den: c for k, c in f._terms.items()}
    deg = inf if f.deg_bound == inf else f.deg_bound * j
    return f._new(terms, deg, f.depth_bound, f.laurent)


def substitute_power(f, j):
    """Substitute q -> q^j for j = p^t, t any integer: exponents and the
    degree bound scale by j under the same depth bound. For t < 0 every
    exponent must have a p^(-t)-th root within the depth bound."""
    p = f.p
    j = Fraction(j)
    n = j.numerator if j.denominator == 1 else j.denominator if j.numerator == 1 else 0
    while n > 1 and n % p == 0:
        n //= p
    if n != 1:
        raise DomainError(f"substitution power {j} is not a power of p={p}")
    return _substitute(f, j)


def scale_exponents(f: FracSeries, e: int) -> FracSeries:
    """Substitute q -> q^e for e >= 1 prime to p; depths are unchanged."""
    if e < 1 or e % f.p == 0:
        raise DomainError(f"exponent scale {e} must be positive and prime to p={f.p}")
    return _substitute(f, e)


def twist(f: FracSeries, h: int, e: int = 1) -> FracSeries:
    """The automorphism q^(1/p^n) -> zeta_{p^n}^(h/e) q^(1/p^n).

    The coefficient at exponent m = j/p^r (lowest terms) is multiplied by
    zeta_{p^r}^((h/e mod p^r) * j), which is zeta_{p^R}^((h/e mod p^R) * k)
    for m = k/p^R and R the largest stored depth. Depth r = 0 terms are
    fixed. Requires cyclotomic depth s >= R and e prime to p.
    """
    ctx = f.ctx
    p = ctx.p
    if e % p == 0 or e < 1:
        raise DomainError(f"twist denominator e={e} must be positive and prime to p={p}")
    need = f.max_depth()
    if need > ctx.s:
        raise DepthError(f"twist needs cyclotomic depth {need}, context has s={ctx.s}")
    pr = p**need
    h_eff = (h * pow(e, -1, pr)) % pr
    s = p ** (f.depth_bound - need)  # divides every key
    out = {}
    for k, c in f._terms.items():
        t = (h_eff * (k // s)) % pr
        out[k] = c.mul_zeta_power(need, t) if t else c
    return f._new(out, f.deg_bound, f.depth_bound, f.laurent)


def compose(f: FracSeries, g: FracSeries) -> FracSeries:
    """Substitute g into f. Requires integer exponents on f, and strictly
    positive integer exponents on g.

    Works through n = min(deg, max exp(f) * max exp(g)): the powers g^e, each
    the product of the last by g in `_products`, and sum_e f_e g^e
    accumulated in ascending e by `_fold`. At phi = 1 both run on the
    integer kernel (`_compose_int`), with the same drops and so the same
    coefficients as the coefficient loops that run above phi = 1.
    """
    f._check(g)
    if f.max_depth() != 0 or any(k < 0 for k in f._terms):
        raise DomainError("compose requires nonnegative integer exponents on the outer series")
    if g.max_depth() != 0 or any(k <= 0 for k in g._terms):
        raise DomainError("inner series must have strictly positive integer exponents")
    deg = min(f.deg_bound, g.deg_bound)
    if deg < 0:
        raise DomainError(f"exponent 0 exceeds degree bound {deg}")
    ctx = f.ctx
    max_f, max_g = (next(reversed(s._terms), 0) // s.p**s.depth_bound for s in (f, g))
    n = max_f * max_g
    if deg != inf:
        n = min(n, _top(deg, 1))  # g^e starts at q^e, so f's terms above n drop
    depth = max(f.depth_bound, g.depth_bound)
    den = ctx.p**depth
    if ctx.phi == 1:
        terms = _compose_int(ctx, _indexed(f, n), _indexed(g, n), n, den)
    else:
        gi = dict(_indexed(g, n))
        gp = {0: CycloCoeff.one(ctx)}  # g^power
        acc: dict = {}
        power = 0
        for e, c in _indexed(f, n):
            while power < e:
                gp = f._products(gp, gi, n)
                power += 1
            for i, v in gp.items():
                w = _fold((v * c,), acc.pop(i, None))
                if w is not None:
                    acc[i] = w
        terms = {i * den: acc[i] for i in sorted(acc)}
    return f._new(terms, deg, depth, f.laurent or g.laurent)


def _compose_int(ctx: RingContext, fi: list, gi: list, n: int, den: int) -> dict:
    """compose's sum at phi = 1, keys over den. g^e is kept over
    p^(e * base_g), base_g the least shift of g; the sum is kept over p^B,
    with B at most every shift(f_e) + e * base_g, and f_e is scaled so that
    f_e g^e lands there."""
    p = ctx.p
    bg, gd = _int_terms(gi)
    B = _least_shift(fi) + min(0, fi[-1][0] * bg if fi else 0)
    gp, base, power = [(0, 1, 0, ctx.k)], 0, 0  # g^0 = 1
    acc: dict = {}
    for e, c in fi:
        while power < e:
            base += bg
            out = _int_convolve(gp, gd, n, {}, base, p)
            gp = [(i, *_int_entry(ctx, out[i], base)) for i in sorted(out)]
            power += 1
        x = c.unit[0] * p ** (c.shift + base - B)
        _int_convolve([(0, x, c.shift, c.prec)], gp, n, acc, B, p)
    return _int_coeffs(ctx, acc, B, den)


def _indexed(f: FracSeries, n: int) -> list:
    """(exponent, coefficient) pairs of an integer-exponent series through q^n."""
    den = f.p**f.depth_bound
    return [(k // den, c) for k, c in f._terms.items() if k <= n * den]


def _fold(products, s=None):
    """s plus the coefficient products, in their order, as the coefficient
    loops sum: a partial sum that is zero is dropped, and the next product
    restarts it. None when the last partial sum drops."""
    for c in products:
        if s is not None:
            c = s + c
        s = None if c.is_zero() else c
    return s


def revert(f: FracSeries) -> FracSeries:
    """Compositional inverse g of f = c1 q + O(q^2) with c1 a unit;
    compose(f, g) = q up to deg_bound.

    Back-substitution on a power table P[j][d] = [q^d] g^j (Brent-Kung,
    J. ACM 1978): at step d, fill P[j][d] = sum_m P[j-1][m] b_(d-m) for
    j = 2..d, then b_d = -(sum_j P[j][d] a_j) / c1. That is O(n^3)
    coefficient products, in the order compose(f, g) would perform them.
    It divides only by the unit c1, so no p-adic digits are spent, as
    Lagrange's 1/d would spend them. Above phi = 1 both sums go through
    `_fold`; at phi = 1 they run on the integer kernel (`_revert_int`), with
    the same drops and so the same coefficients.
    """
    ctx = f.ctx
    if f.max_depth() != 0 or any(k < 0 for k in f._terms):
        raise DomainError("reversion is defined on the integer-exponent subring")
    if not f.coefficient(0).is_zero():
        raise DomainError("reversion requires zero constant term")
    c1 = f.coefficient(1)
    if val_p(c1) != 0:  # zero, a shifted unit or ramified
        raise NotInvertibleError("reversion requires a unit linear coefficient")
    c1_inv = inv(c1)
    if f.deg_bound == inf:
        raise DomainError("reversion needs a finite degree bound")
    degree = int(f.deg_bound)
    if ctx.phi == 1:
        return f._new(_revert_int(ctx, _indexed(f, degree), c1_inv, degree), f.deg_bound, 0, False)
    a = {j: c for j, c in _indexed(f, degree) if j >= 2}
    b = {1: c1_inv}
    P = [None, b] + [{} for _ in range(2, degree + 1)]
    for d in range(2, degree + 1):
        products = []  # P[j][d] a_j, ascending in j
        for j in range(2, d + 1):
            prev = P[j - 1]  # ascending keys j - 1 .. d; key d is this step's own
            s = _fold([x * b[d - m] for m, x in prev.items() if m < d and d - m in b])
            if s is None:
                continue
            P[j][d] = s
            if j in a:
                products.append(s * a[j])
        err = _fold(products)
        if err is not None:
            bd = -(err * c1_inv)
            if not bd.is_zero():
                b[d] = bd
    return f._new(b, f.deg_bound, 0, False)


def _revert_int(ctx: RingContext, fi: list, c1_inv: CycloCoeff, degree: int) -> dict:
    """revert's power table at phi = 1. With lam = max(0, -least shift of f),
    P[j][d] has shift at least -(d - j) lam and is kept over that base, and
    a_j is kept over p^(-(j - 1) lam): then every product of a power-table
    sum, and every P[j][d] a_j, lands on its sum's base."""
    p = ctx.p
    lam = max(0, -_least_shift(fi))
    a = {j: (c.unit[0] * p ** (c.shift + (j - 1) * lam), c.shift, c.prec) for j, c in fi if j >= 2}
    inv_entry = (c1_inv.unit[0], 0, c1_inv.prec)
    b = {1: inv_entry}  # P[1]
    P = [None, b] + [{} for _ in range(2, degree + 1)]
    coeffs = {1: c1_inv}
    for d in range(2, degree + 1):
        products = []  # P[j][d] a_j, ascending in j
        for j in range(2, d + 1):
            prev, base = P[j - 1], -(d - j) * lam
            slot = _int_dot([(prev[m], b[d - m]) for m in range(j - 1, d) if m in prev and d - m in b], base, p)
            if slot is None:
                continue
            e = P[j][d] = _int_entry(ctx, slot, base)
            if j in a:
                products.append((e, a[j]))
        base = -(d - 1) * lam
        err = _int_dot(products, base, p)
        if err is not None:
            x, s, q = _int_entry(ctx, err, base)
            slot = _int_dot([((-x, s, q), inv_entry)], base, p)  # -(err * c1_inv), never zero
            b[d] = _int_entry(ctx, slot, base)
            coeffs[d] = _int_coeff(ctx, slot, base)
    return coeffs


# -- families ----------------------------------------------------------------


class FamilySeries:
    """A continuous map (Z/p^m)^x -> series, given on residue representatives.

    Models level-Gamma_1 data as one expansion per unit residue class.
    """

    __slots__ = ("level", "values")

    def __init__(self, level: int, values: dict[int, FracSeries]):
        if level < 0:
            raise ValueError("family level must be >= 0")
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
        expected = list(range(pm)) if level == 0 else [a for a in range(pm) if gcd(a, some.ctx.p) == 1]
        if sorted(norm) != expected:
            raise DomainError("family must cover every unit residue class")
        self.level = level
        self.values = dict(sorted(norm.items()))

    def members(self) -> list[tuple[int, FracSeries]]:
        return list(self.values.items())

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
