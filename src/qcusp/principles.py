"""Decision procedures on q-expansions at truncation precision.

Each decider answers a membership question about the infinite object a
truncated expansion stands for, so the verdicts are three-valued: yes, no,
or unknown-at-precision when the answer hinges on digits beyond the working
precision p^k. A "no" always carries the offending term as a witness.

The vanishing test is the computable face of the statement that a function
is determined by its expansions at one cusp per connected component; the
geometric injectivity itself is not re-proved here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .coeff import CycloCoeff
from .errors import DomainError
from .series import FamilySeries, FracSeries, lowest_terms


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown-at-precision"


@dataclass(frozen=True)
class PrincipleVerdict:
    verdict: Verdict
    witness: tuple[Fraction, CycloCoeff] | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.verdict is Verdict.YES


def _vanishes_at_precision(c: CycloCoeff) -> bool:
    # val_p(c) >= k for a normalized nonzero coefficient means shift >= k
    return c.shift >= c.ctx.k


def extends_to_cusp(f: FracSeries) -> PrincipleVerdict:
    """Does the expansion lie in the pole-free subring, i.e. extend over the
    cusp? Witness: the most negative offending exponent. Pole coefficients
    that vanish mod p^k pass, with a note."""
    offenders = [(Fraction(num, f.p**r), c) for num, r, c in lowest_terms(f) if num < 0]
    hard = [(m, c) for m, c in offenders if not _vanishes_at_precision(c)]
    if hard:
        return PrincipleVerdict(Verdict.NO, witness=hard[0])
    if offenders:
        return PrincipleVerdict(
            Verdict.YES,
            note=f"{len(offenders)} pole coefficient(s) vanish at precision p^{f.ctx.k}",
        )
    return PrincipleVerdict(Verdict.YES)


def detect_level(f: FracSeries) -> int:
    """The minimal n with every stored exponent in (1/p^n) Z, equivalently
    the minimal n with tate_trace(f, n) = f. Exact for the stored truncation."""
    if f.laurent:
        raise DomainError("level detection is defined on non-Laurent expansions only")
    return f.max_depth()


def is_integral(f: FracSeries) -> PrincipleVerdict:
    """Does every coefficient satisfy val_p >= 0? On normal forms this is the
    predicate shift >= 0, so the answer is exact. Witness: the first
    negative-shift coefficient in exponent order."""
    if f.laurent:
        raise DomainError("integrality is defined on non-Laurent expansions only")
    for num, r, c in lowest_terms(f):
        if c.shift < 0:
            return PrincipleVerdict(Verdict.NO, witness=(Fraction(num, f.p**r), c))
    return PrincipleVerdict(Verdict.YES)


def zero_test(f: FracSeries) -> PrincipleVerdict:
    """Is the expansion zero? Terms whose coefficients are nonzero but vanish
    mod p^k make the answer precision-dependent."""
    if f.is_zero():
        return PrincipleVerdict(Verdict.YES)
    for num, r, c in lowest_terms(f):
        if not _vanishes_at_precision(c):
            return PrincipleVerdict(Verdict.NO, witness=(Fraction(num, f.p**r), c))
    return PrincipleVerdict(
        Verdict.UNKNOWN,
        witness=f.items()[0],
        note=f"all coefficients vanish at precision p^{f.ctx.k} but not exactly",
    )


@dataclass(frozen=True)
class FamilyReport:
    which: str
    members: dict
    aggregate: object


def family_decide(family: FamilySeries, which: str) -> FamilyReport:
    """Apply a decider to every member of a residue-indexed family.

    Aggregate: conjunction for extends/integral (worst verdict wins, with the
    offending residue recorded), maximum for level.
    """
    deciders = {"extends": extends_to_cusp, "integral": is_integral}
    if which == "level":
        members = {a: detect_level(g) for a, g in family.members()}
        return FamilyReport(which, members, max(members.values(), default=0))
    if which not in deciders:
        raise ValueError(f"unknown family decision {which!r}")
    decide = deciders[which]
    members = {a: decide(g) for a, g in family.members()}
    worst: tuple[int, PrincipleVerdict] | None = None
    rank = {Verdict.YES: 0, Verdict.UNKNOWN: 1, Verdict.NO: 2}
    for a, v in members.items():
        if worst is None or rank[v.verdict] > rank[worst[1].verdict]:
            worst = (a, v)
    assert worst is not None
    aggregate = worst[1]
    if aggregate.verdict is not Verdict.YES:
        aggregate = PrincipleVerdict(
            aggregate.verdict, witness=aggregate.witness,
            note=(aggregate.note + f" [residue class {worst[0]}]").strip(),
        )
    return FamilyReport(which, members, aggregate)
