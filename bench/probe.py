"""Domain-edge jobs, run after the timed phase of every run.

They are drawn from the documented domain at the places the library is
known to mishandle: ramified j-values for the Tate parameter (val_p(j) not an
integer), zero tests whose difference sits at the precision horizon, and the
full precision a composition claims after a partial sum cancels. Their
failures are reported as the probe's fail_ratio; the timed workloads stay on
inputs where no operation fails, so their timings compare like with like.
"""

from __future__ import annotations

import random

import oracle as O
import workloads as W
from qcusp import coeff, modular, principles, series


def _tate(p: int, k: int, t: int, poly: list[int]):
    """Tate parameter of j = p^-t * poly at s = 1; checks val_p(q_E) = -val_p(j)."""
    ctx = coeff.new_ring(p, k, 1)
    want = -O.valuation(-t, poly, p, 1)

    def job():
        q = modular.tate_parameter_from_j(coeff.CycloCoeff.from_poly(ctx, poly, -t))
        got = O.valuation(q.shift, list(q.unit), p, 1)
        return None if got == want else f"val_p(q_E) = {got}, expected {want}"

    return job


def _zero_test(p: int, k: int, t: int, c: int, delta: int):
    """zero_test(p^t c q - p^t (c + delta) q) at k, recomputed at a higher k."""

    def verdict(kk):
        ctx = coeff.new_ring(p, kk, 0)
        f = series.from_terms(ctx, [(1, coeff.CycloCoeff.from_int(ctx, c, t))], 1, 0)
        g = series.from_terms(ctx, [(1, coeff.CycloCoeff.from_int(ctx, c + delta, t))], 1, 0)
        return principles.zero_test(f - g).verdict

    def job():
        lo, hi = verdict(k), verdict(k - t + 4)
        if principles.Verdict.UNKNOWN not in (lo, hi) and lo is not hi:
            return f"verdict {lo.value} at k={k} contradicted by {hi.value} at k={k - t + 4}"
        return None

    return job


def _compose_claims(rng: random.Random, p: int, k: int, n: int):
    """compose on integer series; every coefficient must hold at the full
    precision the library claims for it."""
    ctx = coeff.new_ring(p, k, 0)
    fo = W._random_ints(rng, p, k, n + 1)
    gi = [0] + W._random_ints(rng, p, k, n)

    def job():
        f = series.from_terms(ctx, [(i, c) for i, c in enumerate(fo) if c], n, 0)
        g = series.from_terms(ctx, [(i, c) for i, c in enumerate(gi) if c], n, 0)
        exact = W._int_exact(dict(enumerate(O.compose_int(fo, gi, n))), 1)
        return W.check_series(series.compose(f, g), exact, n, p, k)

    return job


def jobs(seed: int, smoke: bool = False) -> list[tuple[str, object]]:
    rng = random.Random(f"probe:{seed}")
    out = [
        ("tate-ramified", _tate(3, 6, 1, [3**6 - 1, 1])),  # j = (zeta_3 - 1)/3
        ("zero_test-horizon", _zero_test(5, 4, -3, 1, 5**4)),  # 5^-3 q - 5^-3 (1 + 5^4) q
    ]
    for _ in range(2 if smoke else 5):
        p = rng.choice((3, 5, 7))
        k = rng.randint(4, 8)
        out.append(("tate-ramified", _tate(p, k, rng.randint(1, 2), W._ramified_poly(rng, p, k, 1))))
        p = rng.choice((2, 3, 5))
        t = rng.randint(-3, 0)
        c = rng.choice([v for v in range(1, 50) if v % p])
        out.append(("zero_test-horizon", _zero_test(p, k, t, c, p ** (k + rng.randint(-1, 1)))))
        out.append(("compose-claims", _compose_claims(rng, rng.choice((2, 3)), rng.randint(3, 5), 8 if smoke else 20)))
    return out


def run(seed: int, smoke: bool = False) -> dict:
    attempted, failures = 0, []
    for kind, job in jobs(seed, smoke):
        attempted += 1
        try:
            err = job()
        except Exception as exc:  # the defect under probe may raise
            err = f"{type(exc).__name__}: {exc}"
        if err:
            failures.append(f"{kind}: {err}")
    return {"attempted": attempted, "failed": len(failures), "fail_ratio": len(failures) / attempted, "failures": failures}
