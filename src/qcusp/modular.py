"""The j-invariant q-expansion, its compositional inverse, and conversion
from j-values to Tate parameters.

Series generation runs over arbitrary-precision integers and is reduced
into the coefficient context at the end, so no p-adic truncation can
corrupt high coefficients. The route chosen for j is E4^3 / Delta with

    Delta = q * prod_{n>=1} (1 - q^n)^24,
    E4    = 1 + 240 * sum_{n>=1} sigma_3(n) q^n,

anchored by the classical leading coefficients 1, 744, 196884. The
reversion q(w) of w = 1/j comes from Lagrange inversion,
b_d = (1/d) [q^(d-1)] (q*j)^d, with the powers split into baby and giant
steps (Brent-Kung). Every series product goes through `_int_mul`, which
truncates and pads around coeff's one polynomial product kernel: schoolbook
for short factors, one Kronecker-packed big-int product for longer ones.

b_d grows by about 10.8 bits per term, so `j_inverse_series` runs the same
inversion mod p^(k+G) with G guard digits instead of over Z. It keeps the
residues only when each one pins the p-adic valuation of b_d and k digits
of its unit part, so the series is the same, field for field, as the
reduction of the exact b_d; otherwise it widens G, and past a cap it uses
the exact b_d.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .coeff import CycloCoeff, RingContext, _poly_mul, _split_p, inv, val_p
from .errors import DomainError
from .series import FracSeries, from_terms

# -- exact integer Taylor series helpers (dense lists, index = exponent) ------


def _int_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two integer series through degree n, n + 1 entries long
    (`coeff._poly_mul`)."""
    a, b = a[: n + 1], b[: n + 1]
    out = _poly_mul(a, b, min(n + 1, len(a) + len(b) - 1)) if a and b else []
    return out + [0] * (n + 1 - len(out))


def _int_inverse(a: list[int], n: int) -> list[int]:
    """Inverse of a series with a[0] = +-1, through degree n."""
    if a[0] not in (1, -1):
        raise DomainError("integer series inversion needs a unit constant term")
    a = a[: n + 1] + [0] * (n + 1 - len(a))
    out = [0] * (n + 1)
    out[0] = a[0]
    for d in range(1, n + 1):
        out[d] = -a[0] * sum(map(operator.mul, a[1 : d + 1], out[d - 1 :: -1]))
    return out


def eta_power24(n: int) -> list[int]:
    """prod_{m>=1} (1 - q^m)^24 through degree n, via Euler's pentagonal
    series for prod (1 - q^m) followed by squarings."""
    euler = [0] * (n + 1)
    j = 0
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > n and g2 > n and j > 0:
            break
        sign = -1 if j % 2 else 1
        if g1 <= n:
            euler[g1] += sign
        if j > 0 and g2 <= n:
            euler[g2] += sign
        j += 1
    e2 = _int_mul(euler, euler, n)
    e4 = _int_mul(e2, e2, n)
    e8 = _int_mul(e4, e4, n)
    e16 = _int_mul(e8, e8, n)
    return _int_mul(e16, e8, n)


def delta_coefficients(n: int) -> list[int]:
    """tau(1), ..., tau(n): Delta = sum_{m>=1} tau(m) q^m, returned so that
    index i holds the coefficient of q^(i+1)."""
    body = eta_power24(n - 1)
    return body[:n]


def eisenstein4_coefficients(n: int) -> list[int]:
    """E4 through degree n: 1 + 240 sum sigma_3(m) q^m."""
    out = [0] * (n + 1)
    out[0] = 1
    for e in range(1, n + 1):  # divisor sieve: e**3 reaches every multiple of e
        c = 240 * e**3
        for d in range(e, n + 1, e):
            out[d] += c
    return out


def j_coefficients(n_terms: int) -> list[int]:
    """Laurent coefficients of j from q^(-1) through q^(n_terms): the list
    starts [1, 744, 196884, ...] with index i holding the q^(i-1) coefficient."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    n = n_terms + 1
    e4 = eisenstein4_coefficients(n)
    e4cubed = _int_mul(_int_mul(e4, e4, n), e4, n)
    eta24_inv = _int_inverse(eta_power24(n), n)
    # j = E4^3 / (q * eta24) = q^(-1) * (E4^3 * eta24^(-1))
    return _int_mul(e4cubed, eta24_inv, n)


def _reduce_int_series(ctx: RingContext, coeffs: list[int], first_exponent: int, laurent: bool) -> FracSeries:
    pairs = []
    for i, c in enumerate(coeffs):
        if c:
            pairs.append((first_exponent + i, CycloCoeff.from_int(ctx, c)))
    deg = first_exponent + len(coeffs) - 1
    return from_terms(ctx, pairs, deg, 0, laurent)


def j_series(ctx: RingContext, terms: int) -> FracSeries:
    """The j-expansion q^(-1) + 744 + 196884 q + ... through q^terms,
    computed over Z and reduced into ctx."""
    coeffs = j_coefficients(terms)
    if coeffs[0] != 1 or coeffs[1] != 744:
        raise AssertionError("j-series generation lost its leading terms")
    return _reduce_int_series(ctx, coeffs, -1, laurent=True)


def delta_series(ctx: RingContext, terms: int) -> FracSeries:
    """Delta = q - 24 q^2 + 252 q^3 - ... through q^terms."""
    return _reduce_int_series(ctx, [0] + delta_coefficients(terms), 0, laurent=False)


def eisenstein4_series(ctx: RingContext, terms: int) -> FracSeries:
    """E4 through q^terms."""
    return _reduce_int_series(ctx, eisenstein4_coefficients(terms), 0, laurent=False)


def one_over_j_coefficients(n_terms: int) -> list[int]:
    """1/j = q - 744 q^2 + 356652 q^3 - ... through q^n_terms; index i holds
    the q^(i+1) coefficient."""
    jc = j_coefficients(n_terms)
    return _int_inverse(jc, n_terms - 1)


def j_inverse_coefficients(n_terms: int, p: int | None = None, digits: int = 0) -> list[int]:
    """Coefficients b_1, ..., b_n of the reversion q(w) = w + 744 w^2 + ...
    of 1/j, exact over Z by Lagrange inversion.

    With h = q*j = 1 + 744 q + ..., w = 1/j = q/h(q) gives q = w*h(q), so
    b_d = (1/d) [q^(d-1)] h^d. The powers split as h^d = h^(r*a) * h^c with
    r = ceil(sqrt(n)): r baby steps h^c and about n/r giant steps h^(r*a),
    each one `_int_mul` through degree n-1, leave one length-d dot product
    and one exact division per b_d.

    Given a prime p, the same steps run mod M = p^digits: h and every
    product are reduced mod M. Then c_d = [q^(d-1)] h^d mod M is d*b_d
    mod M. For d = p^v * u with u prime to p, c_d is divided exactly by
    p^v and multiplied by u^(-1) mod p^(digits-v). Entry d-1 is then
    b_d mod p^(digits - v_p(d)), in [0, p^(digits - v_p(d))); digits must
    exceed v_p(d) for every d <= n.
    """
    h = j_coefficients(n_terms)[:n_terms]
    top = n_terms - 1
    modulus = None if p is None else p**digits
    if modulus is not None:
        h = [c % modulus for c in h]

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = _int_mul(a, b, top)
        return out if modulus is None else [c % modulus for c in out]

    r = math.isqrt(n_terms - 1) + 1
    one = [1] + [0] * top
    baby = [one]
    for _ in range(r):
        baby.append(mul(baby[-1], h))
    giant = [one]
    for _ in range(n_terms // r):
        giant.append(mul(giant[-1], baby[r]))
    out = []
    for d in range(1, n_terms + 1):
        a, c = divmod(d, r)
        total = sum(map(operator.mul, giant[a][:d], reversed(baby[c][:d])))
        if modulus is None:
            coeff, rem = divmod(total, d)
        else:
            v, u = _split_p(d, p)
            coeff, rem = divmod(total % modulus, p**v)
            m = p ** (digits - v)
            coeff = coeff * pow(u, -1, m) % m
        if rem:
            raise AssertionError("j reversion lost its exact division")
        out.append(coeff)
    return out


# Largest guard width j_inverse_series tries before it falls back to the
# exact reversion. Doubling from floor(log_p n) + 2 reaches 36 for p = 2 at
# n = 200 and at most 12 for p >= 3 at n <= 200.
_MAX_GUARD = 64


def j_inverse_series(ctx: RingContext, terms: int) -> FracSeries:
    """The reversion q(w) in Z[[w]] with 1/j(q(w)) = w + O(w^(terms+1)),
    reduced into ctx. The variable of the returned series is w = 1/j.

    The reversion runs mod p^(k+G) with G guard digits, starting from
    G = floor(log_p terms) + 2. Residue r_d is b_d mod p^(k+G-v_p(d)). It is
    accepted when r_d != 0 and v_p(r_d) + v_p(d) <= G. Then v_p(r_d) is
    v_p(b_d) and at least k digits of b_d / p^(v_p(b_d)) are known, so
    `CycloCoeff.from_int(ctx, r_d)` equals `from_int(ctx, b_d)` in shift,
    unit and prec, and the output is the same as from the exact b_d. If any
    residue fails, G doubles; beyond `_MAX_GUARD` the exact reversion over Z
    is used.
    """
    p = ctx.p
    guard = 2  # floor(log_p terms) + 2
    while p ** (guard - 1) <= terms:
        guard += 1
    while guard <= _MAX_GUARD:
        coeffs = j_inverse_coefficients(terms, p, ctx.k + guard)
        if all(r and _split_p(r, p)[0] + _split_p(d, p)[0] <= guard for d, r in enumerate(coeffs, 1)):
            break
        guard *= 2
    else:
        coeffs = j_inverse_coefficients(terms)
    return _reduce_int_series(ctx, [0] + coeffs, 0, laurent=False)


def tate_parameter_from_j(jval: CycloCoeff) -> CycloCoeff:
    """The Tate parameter q_E with j(q_E) = jval, for |jval| > 1.

    Evaluates the reversion series at w = 1/jval; the series converges
    because val_p(w) > 0, and summation stops once the tail falls below the
    representable precision. val_p(result) = -val_p(jval).

    The b_d come from the exact reversion: at n_max <= k + 1 terms the
    exact integers are small, and the guard-digit loop of `j_inverse_series`
    does not pay for itself.
    """
    ctx = jval.ctx
    v = val_p(jval)
    if not (isinstance(v, Fraction) and v < 0):
        raise DomainError("Tate parameter needs val_p(j) < 0; this point is not on a parameter disc")
    w = inv(jval)
    vw = -v
    # terms beyond n_max have valuation >= (n_max+1)*vw >= vw + k
    n_max = int(Fraction(ctx.k) / vw) + 1
    coeffs = j_inverse_coefficients(n_max)
    acc = CycloCoeff.zero(ctx)
    wp = CycloCoeff.one(ctx)
    for b in coeffs:
        wp = wp * w
        if b:
            acc = acc + CycloCoeff.from_int(ctx, b) * wp
    if val_p(acc) != vw:
        raise AssertionError("Tate parameter lost its leading valuation")
    return acc
