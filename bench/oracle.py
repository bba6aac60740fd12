"""Independent exact oracles for checking benchmark job outputs.

Nothing here calls into qcusp arithmetic: the j-invariant is rebuilt from
E4 and E6 (the library goes through the eta product), its reversion comes
from Lagrange inversion (the library back-substitutes), cyclotomic
coefficients are plain integer polynomials reduced by the sparse identity
for Phi_{p^s}, and series files are formatted from the generator's own term
data. A check compares a library value with the exact value only as far as
the library claims to know it, and a timed job's check no further than the
job's working precision p^k; the probe checks claims beyond it.
"""

from __future__ import annotations

from fractions import Fraction

J_LEADING = (1, 744, 196884, 21493760)


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- integer q-series ----------------------------------------------------------


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] += ai * bj
    return out


def _inverse(a: list[int], n: int) -> list[int]:
    """Inverse of an integer series with a[0] = 1 through degree n."""
    out = [1] + [0] * n
    for d in range(1, n + 1):
        out[d] = -sum(a[i] * out[d - i] for i in range(1, min(d, len(a) - 1) + 1))
    return out


def _eisenstein(weight_sigma: int, factor: int, n: int) -> list[int]:
    sigma = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sigma[m] += d**weight_sigma
    return [1] + [factor * sigma[m] for m in range(1, n + 1)]


class IntegerJ:
    """j = E4^3 / Delta with Delta = (E4^3 - E6^2) / 1728, and the
    compositional inverse q(w) of 1/j by Lagrange inversion. Results are
    cached up to the largest size asked for."""

    def __init__(self):
        self._psi: list[int] = []  # q*j(q) = 1 + 744 q + ...
        self._b: list[int] = [0]  # b[n] = coefficient of w^n in q(w)

    def psi(self, n: int) -> list[int]:
        """Coefficients of q*j(q) through q^n."""
        if len(self._psi) <= n:
            m = max(n, 2 * len(self._psi))
            e4 = _eisenstein(3, 240, m + 1)
            e6 = _eisenstein(5, -504, m + 1)
            e4c = _mul(_mul(e4, e4, m + 1), e4, m + 1)
            e6s = _mul(e6, e6, m + 1)
            delta = [(x - y) // 1728 for x, y in zip(e4c, e6s)]
            if delta[0] != 0 or delta[1] != 1:
                raise AssertionError("Delta oracle lost its leading term")
            self._psi = _mul(e4c, _inverse(delta[1:], m), m)
            if tuple(self._psi[: len(J_LEADING)]) != J_LEADING:
                raise AssertionError("j oracle disagrees with 1, 744, 196884, 21493760")
        return self._psi[: n + 1]

    def j(self, terms: int) -> list[int]:
        """Coefficients of j from q^-1 through q^terms."""
        return self.psi(terms + 1)

    def reversion(self, terms: int) -> list[int]:
        """b_1..b_terms with q = sum b_n w^n and w = 1/j(q):
        b_n = (1/n) [q^(n-1)] (q j(q))^n, checked by (1/j)(q(w)) = w."""
        if len(self._b) <= terms:
            psi = self.psi(terms)
            b = [0]
            power = [1] + [0] * terms
            for n in range(1, terms + 1):
                power = _mul(power, psi, terms)
                num = power[n - 1]
                if num % n:
                    raise AssertionError("Lagrange inversion left a fraction")
                b.append(num // n)
            if compose_int([0] + self.one_over_j(terms), b, terms) != [0, 1] + [0] * (terms - 1):
                raise AssertionError("(1/j)(q(w)) is not w")
            self._b = b
        return self._b[1 : terms + 1]

    def one_over_j(self, terms: int) -> list[int]:
        """1/j = q * (1/psi): index i holds the q^(i+1) coefficient."""
        return _inverse(self.psi(terms), terms - 1)


def compose_int(outer: list[int], inner: list[int], n: int) -> list[int]:
    """sum outer[i] * inner^i through degree n; inner[0] must be 0."""
    out = [0] * (n + 1)
    power = [1] + [0] * n
    for i, c in enumerate(outer[: n + 1]):
        if i:
            power = _mul(power, inner, n)
        if c:
            for d, v in enumerate(power):
                out[d] += c * v
    return out


# -- cyclotomic coefficients ---------------------------------------------------


def phi_of(p: int, s: int) -> int:
    return 1 if s == 0 else p ** (s - 1) * (p - 1)


def reduce_cyclo(poly: list[int], p: int, s: int) -> list[int]:
    """Reduce an integer polynomial modulo Phi_{p^s}: fold exponents mod p^s
    (x^(p^s) = 1), then use x^phi = -sum_{i<p-1} x^(i p^(s-1)). For s = 0
    the ring is Z and x = 1."""
    if s == 0:
        return [sum(poly)]
    order = p**s
    step = p ** (s - 1)
    phi = order - step
    folded = [0] * order
    for i, c in enumerate(poly):
        folded[i % order] += c
    out = folded[:phi]
    for j in range(step):
        top = folded[phi + j]
        if top:
            for i in range(p - 1):
                out[i * step + j] -= top
    return out


def mul_cyclo(a: list[int], b: list[int], p: int, s: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return reduce_cyclo(prod, p, s)


def rotate_cyclo(a: list[int], e: int, p: int, s: int) -> list[int]:
    """a * x^e, x a primitive p^s-th root of unity."""
    if s == 0:
        return list(a)
    return reduce_cyclo([0] * (e % p**s) + list(a), p, s)


def claim_error(c, exact: tuple[list[int], int], p: int, upto: int | None = None) -> str | None:
    """Compare a library coefficient (shift, unit, prec) with the exact value
    p^shift0 * poly. The library claims value = p^shift * (unit + O(p^prec));
    the claim must hold modulo p^upto, or in full when upto is None. Returns
    None when it holds, else a description."""
    poly, shift0 = exact
    if c.is_zero():
        if any(poly):
            return f"claims zero, exact value p^{shift0}*{poly[:4]}..."
        return None
    absolute = c.shift + c.prec if upto is None else min(c.shift + c.prec, upto)
    m = min(shift0, c.shift)
    if absolute <= m:
        return None
    mod = p ** (absolute - m)
    fa = p ** (shift0 - m)
    fb = p ** (c.shift - m)
    for x, y in zip(poly, c.unit):
        if (x * fa - y * fb) % mod:
            return f"coefficient p^{c.shift}*{c.unit[:4]}.. (prec {c.prec}) differs from exact p^{shift0}*{poly[:4]}.."
    return None


def pi_order(unit: list[int], p: int, s: int) -> int:
    """Order of vanishing at x = 1 of unit mod p, i.e. its pi-adic valuation
    for pi = zeta - 1 (0 when s = 0)."""
    if s == 0:
        return 0
    # coefficients of unit(1 + y) mod p by the binomial theorem
    n = len(unit)
    for i in range(n):
        c = 0
        binom = 1  # C(j, i) for j = i, i+1, ...
        for j in range(i, n):
            c += unit[j] * binom
            binom = binom * (j + 1) // (j + 1 - i)
        if c % p:
            return i
    raise AssertionError("unit vanishes mod p")


def valuation(shift: int, unit: list[int], p: int, s: int) -> Fraction:
    return shift + Fraction(pi_order(unit, p, s), phi_of(p, s))


# -- series files ----------------------------------------------------------------


def format_deg(deg) -> str:
    if deg == float("inf"):
        return "inf"
    deg = Fraction(deg)
    return str(deg.numerator) if deg.denominator == 1 else f"{deg.numerator}/{deg.denominator}"


def exp_depth(m: Fraction, p: int) -> int:
    """r for m = num / p^r in lowest terms."""
    den, r = m.denominator, 0
    while den > 1:
        den //= p
        r += 1
    return r


def format_exponent(m: Fraction, p: int) -> str:
    r = exp_depth(m, p)
    return str(m.numerator) if r == 0 else f"{m.numerator}/p^{r}"


def format_coeff(shift: int, unit: list[int]) -> str:
    """Canonical coefficient text for a normalized value p^shift * unit."""
    if shift == 0 and not any(unit[1:]):
        return str(unit[0])
    parts = []
    for i, v in enumerate(unit):
        if v:
            parts.append(str(v) if i == 0 else f"{v}*z" if i == 1 else f"{v}*z^{i}")
    return f"p^{shift}*(" + " + ".join(parts) + ")"


def format_int_coeff(c: int, p: int, k: int) -> str | None:
    """Canonical text of the integer c reduced to k digits; None for 0."""
    if c == 0:
        return None
    t = vp_int(c, p)
    return format_coeff(t, [(c // p**t) % p**k])


def series_text(header: dict, lines: list[str]) -> str:
    """A series file: header in the fixed key order, then term lines."""
    keys = ("p", "k", "s", "depth", "deg", "laurent", "cusp_label", "e", "mode")
    return "".join(f"{key}={header[key]}\n" for key in keys) + "".join(line + "\n" for line in lines)


def header(p, k, s, depth, deg, laurent, cusp_label="", e=1, mode="frac") -> dict:
    return {
        "p": p, "k": k, "s": s, "depth": depth, "deg": format_deg(deg),
        "laurent": "true" if laurent else "false", "cusp_label": cusp_label, "e": e, "mode": mode,
    }


def int_series_text(p: int, k: int, s: int, coeffs: list[int], first: int, laurent: bool) -> str:
    """The emitted form of an integer series c_i q^(first + i) reduced into
    (p, k, s), as the jseries and revert-j subcommands print it."""
    lines = []
    for i, c in enumerate(coeffs):
        text = format_int_coeff(c, p, k)
        if text is not None:
            lines.append(f"{first + i} : {text}")
    return series_text(header(p, k, s, 0, first + len(coeffs) - 1, laurent), lines)


def mul_deg(f_exps, df, g_exps, dg):
    """Degree bound of a product: the unknown tail of each factor meets the
    other's lowest known exponent."""
    return min(df + min([*g_exps, dg]), dg + min([*f_exps, df]))


def charp_mul(f: dict, df, g: dict, dg, p: int) -> tuple[dict, object]:
    """Product of residue series given as {exponent: coefficient} with degree bounds."""
    deg = mul_deg(f, df, g, dg)
    out: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            m = a + b
            if m <= deg:
                out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}, deg


def charp_add(f: dict, g: dict, deg, p: int) -> dict:
    out = {m: c for m, c in f.items() if m <= deg}
    for m, c in g.items():
        if m <= deg:
            out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}
