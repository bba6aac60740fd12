import random
from fractions import Fraction
from math import inf

import pytest

from qcusp.coeff import CycloCoeff, new_ring, val_p
from qcusp.errors import DomainError
from qcusp.modular import j_series
from qcusp.series import from_terms, scale_exponents
from qcusp.valuation import Rank2Value, classify_point, in_Fplus, v1minus

CTX = new_ring(7, 6, 0)


def random_laurent(rng: random.Random, ctx, n_terms: int = 4):
    # wide degree bound so products keep every term that matters below
    terms = {}
    for _ in range(n_terms):
        m = rng.randrange(-4, 8)
        c = CycloCoeff.from_int(ctx, rng.randrange(1, ctx.pk), rng.randrange(-2, 3))
        terms[Fraction(m)] = c
    return from_terms(ctx, terms.items(), 30, 0, laurent=True)


def test_v1minus_examples():
    assert v1minus(from_terms(CTX, [(1, 1)], 2, 0)) == Rank2Value(Fraction(0), 1)
    mixed = from_terms(CTX, [(-1, 7), (0, 1)], 2, 0, laurent=True)
    assert v1minus(mixed) == Rank2Value(Fraction(0), 0)
    assert v1minus(from_terms(CTX, [], 2, 0, laurent=True)) == Rank2Value(inf, 0)


def test_v1minus_rejects_fractional():
    ctx = new_ring(2, 4, 1)
    f = from_terms(ctx, [(Fraction(1, 2), 1)], 1, 1)
    with pytest.raises(DomainError):
        v1minus(f)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_j_series_at_pole_index(e):
    js = scale_exponents(j_series(CTX, 6), e)
    val = v1minus(js)
    assert val == Rank2Value(Fraction(0), -e)
    assert val.generize() == 0
    assert classify_point(val) == "c"
    assert not in_Fplus(js)


def test_generise_examples():
    assert Rank2Value(Fraction(0), -3).generize() == 0
    assert Rank2Value(inf, 0).generize() == inf
    assert Rank2Value(Fraction(3), -7).generize() == 3


def test_in_Fplus_examples():
    assert in_Fplus(from_terms(CTX, [(-1, 7)], 2, 0, laurent=True))
    assert not in_Fplus(from_terms(CTX, [(-1, 1)], 2, 0, laurent=True))
    assert in_Fplus(from_terms(CTX, [(0, 744), (1, 1)], 2, 0))


def test_in_Fplus_against_explicit_description(rng):
    # membership means: val > 0 on negative exponents, val >= 0 everywhere
    for _ in range(100):
        f = random_laurent(rng, CTX)
        explicit = all(
            (val_p(c) > 0 if m < 0 else val_p(c) >= 0) for m, c in f.items()
        )
        assert in_Fplus(f) == explicit


def test_classify_examples():
    assert classify_point(Rank2Value(Fraction(1), 0)) == "a"
    assert classify_point(Rank2Value(Fraction(-2), 5)) == "b"
    assert classify_point(Rank2Value(Fraction(0), -2)) == "c"
    assert classify_point(Rank2Value(inf, 0)) == "a"


def test_classify_partitions(rng):
    for _ in range(200):
        v = Rank2Value(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)), rng.randrange(-5, 6))
        assert classify_point(v) in ("a", "b", "c")
        kind = classify_point(v)
        # the three descriptions are mutually exclusive
        is_b = v.v < 0
        is_c = v.v == 0 and v.g < 0
        is_a = not is_b and not is_c
        assert [is_a, is_b, is_c].count(True) == 1
        assert {"a": is_a, "b": is_b, "c": is_c}[kind]


def test_multiplicativity_when_leading_term_unique(rng):
    checked = 0
    while checked < 60:
        f = random_laurent(rng, CTX, 3)
        g = random_laurent(rng, CTX, 3)
        if f.is_zero() or g.is_zero():
            continue
        pairs = [
            (val_p(cf) + val_p(cg), int(mf + mg))
            for mf, cf in f.items()
            for mg, cg in g.items()
        ]
        best = min(pairs)
        if pairs.count(best) != 1:
            continue  # a tie could cancel; the claim needs a unique leading pair
        assert v1minus(f * g) == v1minus(f) + v1minus(g)
        checked += 1


def test_ultrametric(rng):
    for _ in range(60):
        f = random_laurent(rng, CTX, 3)
        g = random_laurent(rng, CTX, 3)
        assert v1minus(f + g) >= min(v1minus(f), v1minus(g))


def test_generise_is_gauss_valuation(rng):
    for _ in range(60):
        f = random_laurent(rng, CTX, 4)
        gauss = min((val_p(c) for _, c in f.items()), default=inf)
        assert v1minus(f).generize() == gauss
