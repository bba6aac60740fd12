"""Normalized Tate traces on q-expansions.

tr_n is the exponent-lattice projection keeping the terms whose exponent
lies in (1/p^n) Z_{>=0}. The Galois-average construction, which averages
the twists q^(1/p^k) -> zeta_{p^k}^d q^(1/p^k) and divides by the group
order, computes the same map and serves as the independent oracle; the
division costs k - n digits of coefficient precision, which the projection
never does, so the projection form is primary.
"""

from __future__ import annotations

from .errors import DepthError, DomainError
from .series import FracSeries, twist, zero_series


def tate_trace(f: FracSeries, n: int) -> FracSeries:
    """Project onto the terms of denominator depth <= n; the result carries
    depth bound n and inherits the other bounds."""
    if n < 0:
        raise ValueError("target level must be >= 0")
    if f.laurent:
        raise DomainError("the normalized trace is defined on non-Laurent expansions only")
    return f.with_depth_bound(n)


def galois_average(f: FracSeries, k: int, n: int, e: int = 1) -> FracSeries:
    """p^-(k-n) * sum of twist(f, d*p^n, e) over d mod p^(k-n).

    Equals tate_trace(f, n) whenever k bounds the depth of f, exactly up to
    the k - n digits the normalization spends. Requires cyclotomic depth
    s >= k.
    """
    if f.laurent:
        raise DomainError("the normalized trace is defined on non-Laurent expansions only")
    if not 0 <= n <= k:
        raise ValueError("need 0 <= n <= k")
    ctx = f.ctx
    if k > ctx.s:
        raise DepthError(f"averaging at source depth {k} needs cyclotomic depth {k}, context has s={ctx.s}")
    if f.max_depth() > k:
        raise DomainError("source depth k must bound the depth of f")
    order = ctx.p ** (k - n)
    acc = zero_series(ctx, f.deg_bound, f.depth_bound, False)
    for d in range(order):
        acc = acc + twist(f, d * ctx.p**n, e)
    return acc.p_times(-(k - n))
