"""Rank-1 and rank-2 valuations on integer-exponent Laurent expansions,
and the trichotomy classifying the points they define.

The value group is written additively as pairs (v, g) with v the p-adic
component (absolute value p^-v) and g the exponent of an element gamma
infinitesimally below 1. Comparisons are lexicographic on (v, g); a
SMALLER pair means a LARGER absolute value. The valuation of a Laurent
expansion sum a_n q^n is min over terms of (val_p(a_n), n), the additive
form of max |a_n| gamma^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .coeff import val_p
from .errors import DomainError
from .series import FracSeries, lowest_terms


@dataclass(frozen=True, order=True)
class Rank2Value:
    """Additive rank-2 value (v, g), ordered lexicographically. The zero
    element carries (inf, 0), the unique maximum."""

    v: Fraction | float
    g: int

    def __add__(self, other: "Rank2Value") -> "Rank2Value":
        if self.v == inf or other.v == inf:
            return Rank2Value(inf, 0)
        return Rank2Value(self.v + other.v, self.g + other.g)

    def generize(self) -> Fraction | float:
        """Height-1 vertical generization: drop the gamma-component. Composed
        with v1minus this is the Gauss valuation min val_p(a_n)."""
        return self.v


def v1minus(f: FracSeries) -> Rank2Value:
    """The rank-2 valuation of a Laurent expansion at the inner edge of the
    unit circle: min over stored terms of (val_p(a_n), n)."""
    best: Rank2Value | None = None
    for m, r, c in lowest_terms(f):
        if r != 0:
            raise DomainError("the rank-2 valuation is defined on integer-exponent expansions")
        cand = Rank2Value(val_p(c), m)
        if best is None or cand < best:
            best = cand
    return best if best is not None else Rank2Value(inf, 0)


def in_Fplus(f: FracSeries) -> bool:
    """Membership in the valuation subring of v1minus: value >= (0, 0),
    equivalently every negative-exponent coefficient has val_p > 0 and every
    coefficient has val_p >= 0."""
    return v1minus(f) >= Rank2Value(Fraction(0), 0)


def classify_point(jv: Rank2Value) -> str:
    """Trichotomy on the value of j at a point:

    'a' when |j| <= 1 (good reduction side);
    'b' when the p-adic component makes |j| > 1 with cofinal inverse
        (a genuine parameter-disc point);
    'c' when |j| is only infinitesimally above 1, so the rank-1
        generization has |j| = 1.
    """
    if jv.v == inf:
        return "a"
    if jv.v < 0:
        return "b"
    if jv.v == 0 and jv.g < 0:
        return "c"
    return "a"
