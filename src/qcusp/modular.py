"""The j-invariant q-expansion, its compositional inverse, and conversion
from j-values to Tate parameters.

Series generation runs over arbitrary-precision integers and is reduced
into the coefficient context at the end, so no p-adic truncation can
corrupt high coefficients. The route chosen for j is E4^3 / Delta with

    Delta = q * prod_{n>=1} (1 - q^n)^24,
    E4    = 1 + 240 * sum_{n>=1} sigma_3(n) q^n,

anchored by the classical leading coefficients 1, 744, 196884. Since
dim M_8 = 1, E4^2 = E8 = 1 + 480 * sum sigma_7(n) q^n comes from the same
divisor sieve as E4, so the numerator E4 * E8 is one product. Delta / q is
(eta^3)^8, with eta^3 = prod (1 - q^n)^3 Jacobi's sparse series
sum (-1)^m (2m+1) q^(m(m+1)/2), and j is eight exact divisions of E4 * E8
by eta^3 (`_int_divide`, which skips the divisor's zeros). No inverse
series is formed, and eta^3 is squared up to eta^24 only for Delta itself.
The reversion q(w) of w = 1/j comes from Lagrange inversion,
b_d = (1/d) [q^(d-1)] (q*j)^d, with the powers split into baby and giant
steps (Brent-Kung). Every series product goes through `_int_mul`, which
truncates and pads around coeff's one polynomial product kernel: schoolbook
for short factors, one Kronecker-packed big-int product for longer ones.

b_d grows by about 10.8 bits per term, so `j_inverse_series` runs the same
inversion mod p^(k+G) with G guard digits instead of over Z, on one exact
q*j reduced mod p^(k+G) in each round. It keeps the residues only when
each one pins the p-adic valuation of b_d and k digits of its unit part,
so the series is the same, field for field, as the reduction of the exact
b_d. Otherwise G jumps to the largest valuation a residue showed it needs,
doubling only when a residue is 0, and past a cap it uses the exact b_d.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .coeff import CycloCoeff, RingContext, _poly_mul, _split_p, inv, val_p
from .errors import DomainError
from .series import FracSeries

# -- exact integer Taylor series helpers (dense lists, index = exponent) ------


def _int_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two integer series through degree n, n + 1 entries long
    (`coeff._poly_mul`)."""
    a, b = a[: n + 1], b[: n + 1]
    out = _poly_mul(a, b, min(n + 1, len(a) + len(b) - 1)) if a and b else []
    return out + [0] * (n + 1 - len(out))


def _int_divide(num: list[int], a: list[int], n: int) -> list[int]:
    """num / a through degree n, n + 1 entries long, for an integer series a
    with a[0] = +-1: out[d] = a[0] * (num[d] - sum_{i=1}^d a[i] out[d-i]),
    summed over the nonzero a[i] only, so a sparse divisor costs its
    nonzero count per term."""
    a0 = a[0]
    if a0 not in (1, -1):
        raise DomainError("integer series division needs a unit constant term")
    terms = [(i, c) for i, c in enumerate(a[1 : n + 1], 1) if c]
    out = num[: n + 1] + [0] * (n + 1 - len(num))
    out[0] *= a0
    for d in range(1, n + 1):
        acc = out[d]
        for i, c in terms:
            if i > d:
                break
            acc -= c * out[d - i]
        out[d] = a0 * acc
    return out


def _eta_cubed(n: int) -> list[int]:
    """prod_{m>=1} (1 - q^m)^3 through degree n by Jacobi's identity: the sum
    of (-1)^m (2m+1) q^(m(m+1)/2), about sqrt(2n) nonzero terms."""
    out = [0] * (n + 1)
    m = 0
    while m * (m + 1) // 2 <= n:
        out[m * (m + 1) // 2] = -(2 * m + 1) if m % 2 else 2 * m + 1
        m += 1
    return out


def _divisor_sum_series(c: int, w: int, n: int) -> list[int]:
    """1 + c * sum_{m>=1} sigma_w(m) q^m through degree n."""
    out = [0] * (n + 1)
    out[0] = 1
    for e in range(1, n + 1):  # divisor sieve: e**w reaches every multiple of e
        t = c * e**w
        for d in range(e, n + 1, e):
            out[d] += t
    return out


def eta_power24(n: int) -> list[int]:
    """prod_{m>=1} (1 - q^m)^24 through degree n: Jacobi's eta^3 squared
    three times."""
    eta3 = _eta_cubed(n)
    eta6 = _int_mul(eta3, eta3, n)
    eta12 = _int_mul(eta6, eta6, n)
    return _int_mul(eta12, eta12, n)


def delta_coefficients(n: int) -> list[int]:
    """tau(1), ..., tau(n): Delta = sum_{m>=1} tau(m) q^m, returned so that
    index i holds the coefficient of q^(i+1)."""
    body = eta_power24(n - 1)
    return body[:n]


def eisenstein4_coefficients(n: int) -> list[int]:
    """E4 through degree n: 1 + 240 sum sigma_3(m) q^m."""
    return _divisor_sum_series(240, 3, n)


def j_coefficients(n_terms: int) -> list[int]:
    """Laurent coefficients of j from q^(-1) through q^(n_terms): the list
    starts [1, 744, 196884, ...] with index i holding the q^(i-1) coefficient.

    j = E4^3 / Delta = q^(-1) * (E4 * E8) / (eta^3)^8, with E8 = E4^2 from
    its own sieve and eta^3 Jacobi's sparse series; eta^24 is not formed."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    n = n_terms + 1
    out = _int_mul(eisenstein4_coefficients(n), _divisor_sum_series(480, 7, n), n)
    eta3 = _eta_cubed(n)
    for _ in range(8):
        out = _int_divide(out, eta3, n)
    return out


def _reduce_int_series(ctx: RingContext, coeffs: list[int], first_exponent: int, laurent: bool) -> FracSeries:
    """The series sum coeffs[i] q^(first_exponent + i) over ctx, through its
    last entry. Its keys are ascending integers at depth bound 0, and a
    nonzero integer has a nonzero image, so it needs no checking."""
    from_int = CycloCoeff.from_int
    terms = {first_exponent + i: from_int(ctx, c) for i, c in enumerate(coeffs) if c}
    deg = Fraction(first_exponent + len(coeffs) - 1)
    return FracSeries(ctx, terms, deg, 0, laurent, _trusted=True)


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
    return _int_divide([1], j_coefficients(n_terms), n_terms - 1)


def j_inverse_coefficients(n_terms: int) -> list[int]:
    """Coefficients b_1, ..., b_n of the reversion q(w) = w + 744 w^2 + ...
    of 1/j, exact over Z by Lagrange inversion.

    With h = q*j = 1 + 744 q + ..., w = 1/j = q/h(q) gives q = w*h(q), so
    b_d = (1/d) [q^(d-1)] h^d. The powers split as h^d = h^(r*a) * h^c with
    r = ceil(sqrt(n)): r baby steps h^c and about n/r giant steps h^(r*a),
    each one `_int_mul` through degree n-1, leave one length-d dot product
    and one exact division per b_d.
    """
    return _revert_qj(j_coefficients(n_terms)[:n_terms])


def _revert_qj(h: list[int], p: int | None = None, digits: int = 0) -> list[int]:
    """b_1, ..., b_n of the reversion of 1/j from h = q*j through q^(n-1),
    n = len(h); see `j_inverse_coefficients`.

    Given a prime p, the same steps run mod M = p^digits: h and every
    product are reduced mod M. Then c_d = [q^(d-1)] h^d mod M is d*b_d
    mod M. For d = p^v * u with u prime to p, c_d is divided exactly by
    p^v and multiplied by u^(-1) mod p^(digits-v). Entry d-1 is then
    b_d mod p^(digits - v_p(d)), in [0, p^(digits - v_p(d))); digits must
    exceed v_p(d) for every d <= n.
    """
    n_terms = len(h)
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
# exact reversion. Over p in {2, 3, 5, 7, 11}, k <= 12 and n <= 200, G
# reaches 36 for p = 2 and at most 12 for p >= 3.
_MAX_GUARD = 64


def j_inverse_series(ctx: RingContext, terms: int) -> FracSeries:
    """The reversion q(w) in Z[[w]] with 1/j(q(w)) = w + O(w^(terms+1)),
    reduced into ctx. The variable of the returned series is w = 1/j.

    h = q*j comes from `j_coefficients` once. The reversion runs on h mod
    p^(k+G) with G guard digits, starting from G = floor(log_p terms) + 2.
    Residue r_d is b_d mod p^(k+G-v_p(d)). It is accepted when r_d != 0 and
    v_p(r_d) + v_p(d) <= G. Then v_p(r_d) is v_p(b_d) and at least k digits
    of b_d / p^(v_p(b_d)) are known, so `CycloCoeff.from_int(ctx, r_d)`
    equals `from_int(ctx, b_d)` in shift, unit and prec, and the output is
    the same as from the exact b_d. A nonzero residue has the exact
    valuation, so if any residue fails, G jumps to the largest
    v_p(r_d) + v_p(d); it doubles as well only when some r_d is 0, whose
    valuation is unknown. Beyond `_MAX_GUARD` the exact reversion over Z is
    used.
    """
    p = ctx.p
    h = j_coefficients(terms)[:terms]
    guard = 2  # floor(log_p terms) + 2
    while p ** (guard - 1) <= terms:
        guard += 1
    while guard <= _MAX_GUARD:
        coeffs = _revert_qj(h, p, ctx.k + guard)
        need = max((_split_p(r, p)[0] + _split_p(d, p)[0] for d, r in enumerate(coeffs, 1) if r), default=0)
        if not all(coeffs):
            guard = max(need, 2 * guard)
        elif need > guard:
            guard = need
        else:
            break
    else:
        coeffs = _revert_qj(h)
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
