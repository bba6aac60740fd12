import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from qcusp.coeff import CycloCoeff, new_ring
from qcusp.errors import ContextMismatchError, DepthError, DomainError
from qcusp.series import Exponent, _mul_deg_bound, from_terms
from qcusp.tiltperf import (
    CharPSeries,
    TiltTower,
    charp_from_terms,
    frobenius,
    frobenius_inv,
    reduce_mod_p,
    sharp,
    tower_add,
    tower_from_charp,
    tower_mul,
)


def random_charp(rng: random.Random, p: int, n_terms: int = 3, headroom: int = 6) -> CharPSeries:
    terms = {}
    for _ in range(n_terms):
        m = Fraction(rng.randrange(1, 30), p ** rng.randrange(2))
        terms[m] = rng.randrange(1, p)
    return CharPSeries(p, terms, 64, headroom)


def q_tower(p: int, depth: int):
    return tower_from_charp(charp_from_terms(p, [(1, 1)], 8, depth), depth)


def test_frobenius_examples():
    f = charp_from_terms(2, [(Fraction(1, 2), 1)], 1, 1)
    assert frobenius(f) == charp_from_terms(2, [(1, 1)], 2, 1)
    # every exponent-like form: (num, depth) tuples and Exponent
    g = charp_from_terms(3, [((1, 1), 2)], 2, 1)
    assert g == charp_from_terms(3, [(Exponent(1, 1), 2)], 2, 1) == charp_from_terms(3, [(Fraction(1, 3), 2)], 2, 1)
    assert frobenius(g).coefficient((1, 0)) == 2 and frobenius(g).coefficient(Exponent(3, 1)) == 2
    assert CharPSeries(3, {(2, 0): 1}, 2, 1).coefficient((2, 0)) == 1
    z = charp_from_terms(2, [], 2, 2)
    assert frobenius(z).is_zero() and frobenius_inv(z).is_zero()


def test_frobenius_roundtrip(rng):
    for p in (2, 3):
        for _ in range(20):
            f = random_charp(rng, p)
            assert frobenius_inv(frobenius(f)) == f
            assert frobenius(frobenius_inv(f)) == f


def test_frobenius_is_ring_map(rng):
    for _ in range(10):
        f = random_charp(rng, 3)
        g = random_charp(rng, 3)
        assert frobenius(f * g) == frobenius(f) * frobenius(g)
        assert frobenius(f + g) == frobenius(f) + frobenius(g)


def test_frobenius_inv_depth_overflow():
    f = charp_from_terms(3, [(Fraction(1, 3), 1)], 1, 1)
    with pytest.raises(DepthError):
        frobenius_inv(f)


def test_equality_ignores_bounds():
    a = charp_from_terms(3, [(1, 2), (Fraction(1, 3), 1)], 3, 1)
    b = charp_from_terms(3, [(1, 2), (Fraction(1, 3), 1)], 7, 3)
    assert a == b and b == a
    assert a != charp_from_terms(3, [(1, 2)], 7, 3)


def test_tower_validation():
    assert q_tower(2, 6).depth == 6
    one = charp_from_terms(2, [(0, 1)], 8, 6)
    TiltTower([one] * 4)
    q = charp_from_terms(2, [(1, 1)], 8, 6)
    with pytest.raises(DomainError) as err:
        TiltTower([q, q])
    assert "index 0" in str(err.value)


def test_q_tower_components():
    t = q_tower(2, 6)
    for i, comp in enumerate(t.components):
        assert comp.items() == [(Fraction(1, 2**i), 1)]


def test_sharp():
    t = q_tower(3, 4)
    assert sharp(t) == charp_from_terms(3, [(1, 1)], 8, 4)
    one_tower = TiltTower([charp_from_terms(5, [(0, 1)], 4, 3)] * 3)
    assert sharp(one_tower) == charp_from_terms(5, [(0, 1)], 4, 3)


def test_sharp_multiplicative(rng):
    for _ in range(20):
        x = tower_from_charp(random_charp(rng, 3, headroom=8), 4)
        y = tower_from_charp(random_charp(rng, 3, headroom=8), 4)
        assert sharp(tower_mul(x, y)) == sharp(x) * sharp(y)


def test_tower_mul_example():
    t = q_tower(2, 4)
    sq = tower_mul(t, t)
    assert sharp(sq) == charp_from_terms(2, [(2, 1)], 16, 4)
    for i, comp in enumerate(sq.components):
        assert comp.items() == [(Fraction(2, 2**i), 1)]


def test_tower_add_neutral(rng):
    zero = tower_from_charp(charp_from_terms(3, [], 64, 8), 4)
    for _ in range(10):
        x = tower_from_charp(random_charp(rng, 3, headroom=8), 4)
        assert tower_add(x, zero) == x
        assert tower_add(x, zero).effective_depth == 4


def test_tower_add_char_two_doubling():
    # q' + q' has components lim (2 q^(1/2^j))^(2^j) = 0 mod 2
    t = q_tower(2, 6)
    z = tower_add(t, t)
    assert all(c.is_zero() for c in z.components)
    assert z.effective_depth == 6


def test_tower_add_preserves_compatibility(rng):
    for _ in range(10):
        x = tower_from_charp(random_charp(rng, 3, headroom=8), 4)
        y = tower_from_charp(random_charp(rng, 3, headroom=8), 4)
        total = tower_add(x, y)
        TiltTower(total.components)  # revalidate
        prod = tower_mul(x, y)
        TiltTower(prod.components)


def test_tower_depth_mismatch():
    with pytest.raises(DomainError):
        tower_add(q_tower(2, 3), q_tower(2, 4))
    with pytest.raises(ContextMismatchError):
        tower_mul(q_tower(2, 3), q_tower(3, 3))


def test_charp_tower_roundtrip(rng):
    for p in (2, 3, 5):
        for _ in range(10):
            g = random_charp(rng, p, headroom=8)
            t = tower_from_charp(g, 4)
            assert sharp(t) == g
            assert tower_from_charp(sharp(t), 4) == t


def test_tower_from_charp_intertwines_shift(rng):
    for _ in range(10):
        g = random_charp(rng, 3, headroom=8)
        lifted = tower_from_charp(frobenius(g), 5)
        assert lifted.components[1:] == tower_from_charp(g, 4).components


def test_example_square_tower():
    g = charp_from_terms(2, [(1, 1), (2, 1)], 8, 4)
    t = tower_from_charp(g, 4)
    for i, comp in enumerate(t.components):
        assert comp.items() == [(Fraction(1, 2**i), 1), (Fraction(2, 2**i), 1)]


def test_reduce_mod_p():
    ctx = new_ring(2, 6, 2)
    f = from_terms(ctx, [(1, 3), (2, CycloCoeff.from_int(ctx, 4)), (3, 2)], 4, 0)
    r = reduce_mod_p(f)
    assert r.items() == [(Fraction(1), 1)]
    bad = from_terms(ctx, [(1, CycloCoeff.one(ctx).p_times(-1))], 2, 0)
    with pytest.raises(DomainError):
        reduce_mod_p(bad)


def test_reduce_mod_p_is_ring_map(rng):
    from conftest import random_series

    ctx = new_ring(3, 5, 1)
    for _ in range(10):
        f = random_series(rng, ctx, 3, 1)
        g = random_series(rng, ctx, 3, 1)
        assert reduce_mod_p(f * g) == reduce_mod_p(f) * reduce_mod_p(g)
        assert reduce_mod_p(f + g) == reduce_mod_p(f) + reduce_mod_p(g)


def reference_charp_add(f, g):
    """f+g by the Fraction-keyed loop, reducing mod p after every sum."""
    deg = min(f.deg_bound, g.deg_bound)
    out = {m: c for m, c in f.items() if m <= deg}
    for m, c in g.items():
        if m > deg:
            continue
        v = (out.get(m, 0) + c) % f.p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return CharPSeries(f.p, out, deg, max(f.depth_bound, g.depth_bound), f.laurent or g.laurent)


def reference_charp_mul(f, g):
    """f*g by the Fraction-keyed loop, reducing mod p after every product."""
    deg = _mul_deg_bound(f, g)
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            if m > deg:
                continue
            v = (out.get(m, 0) + c1 * c2) % f.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return CharPSeries(f.p, out, deg, max(f.depth_bound, g.depth_bound), f.laurent or g.laurent)


def fields(f):
    terms = [(m, type(m), c) for m, c in f.items()]
    return terms, f.deg_bound, f.depth_bound, f.laurent


@st.composite
def charp_series(draw, p):
    """Mixed depths, Laurent poles, and degree bounds that are inf or
    deeper than every term (denominators up to p^4)."""
    depth = draw(st.integers(0, 3))
    laurent = draw(st.booleans())
    low = -4 if laurent else 0
    if draw(st.integers(0, 4)) == 0:
        deg = inf
    else:
        deg = Fraction(draw(st.integers(low, 40)), p ** draw(st.sampled_from([0, 0, 1, 2, 4])))
    terms = {}
    for _ in range(draw(st.integers(0, 14))):
        m = Fraction(draw(st.integers(low, 30)), p ** draw(st.integers(0, depth)))
        if m <= deg:
            terms[m] = draw(st.integers(-p, 3 * p))  # multiples of p are dropped
    return CharPSeries(p, terms, deg, depth, laurent)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_charp_mul_matches_fraction_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    f = data.draw(charp_series(p))
    g = data.draw(charp_series(p))
    assert fields(f * g) == fields(reference_charp_mul(f, g))
    assert fields(g * f) == fields(reference_charp_mul(g, f))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_charp_add_matches_fraction_reference(data):
    # depth bounds are drawn independently, so keys are rescaled to the larger
    p = data.draw(st.sampled_from([2, 3, 5]))
    f = data.draw(charp_series(p))
    g = data.draw(charp_series(p))
    assert fields(f + g) == fields(reference_charp_add(f, g))
    assert fields(g + f) == fields(reference_charp_add(g, f))
    # == compares at a common key scale
    deeper = f.with_depth_bound(f.depth_bound + data.draw(st.integers(1, 2)))
    assert deeper == f and f == deeper
    assert (f == g) == (dict(f.items()) == dict(g.items()))


def test_charp_mul_partial_sum_collapses_mid_accumulation():
    # at q^1 the products arrive as 1, 2, 1 mod 3: the first two cancel and
    # are dropped before the third lands
    f = charp_from_terms(3, [(0, 1), (Fraction(1, 3), 1), (1, 1)], 2, 1)
    g = charp_from_terms(3, [(0, 1), (Fraction(2, 3), 2), (1, 1)], 2, 1)
    assert fields(f * g) == fields(reference_charp_mul(f, g))
    assert (f * g).coefficient(1) == 1


@st.composite
def tower_base(draw, p, depth):
    """A series whose terms have depth <= 2 under a depth bound with room for
    `depth` - 1 p-th roots."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        terms[Fraction(draw(st.integers(0, 20)), p ** draw(st.integers(0, 2)))] = draw(st.integers(1, p - 1))
    deg = draw(st.sampled_from([inf, 20, 40]))
    return CharPSeries(p, terms, deg, 2 + depth)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tower_operations_build_compatible_towers(data):
    # the tower operations skip revalidation; their results must pass it
    p = data.draw(st.sampled_from([2, 3, 5]))
    depth = data.draw(st.integers(1, 4))
    x = tower_from_charp(data.draw(tower_base(p, depth)), depth)
    y = tower_from_charp(data.draw(tower_base(p, depth)), depth)
    for r in (x, y, tower_mul(x, y), tower_add(x, y)):
        TiltTower(list(r.components))
    # a unit c q^0 added to one component breaks compatibility just below it
    if depth > 1:
        i = data.draw(st.integers(0, depth - 2))
        c = data.draw(st.integers(1, p - 1))
        comps = list(x.components)
        comps[i + 1] = comps[i + 1] + charp_from_terms(p, [(0, c)], inf, comps[i + 1].depth_bound)
        with pytest.raises(DomainError, match=f"index {i}:"):
            TiltTower(comps)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_results_store_terms_in_ascending_order(data):
    # items() returns the stored order without sorting
    p = data.draw(st.sampled_from([2, 3, 5]))
    f = data.draw(charp_series(p))
    g = data.draw(charp_series(p))
    results = [f, g, f + g, g + f, f * g, g * f, frobenius(f), frobenius_inv(frobenius(f))]
    if all(m.denominator * p <= p**f.depth_bound for m in f.exponents()):
        results.append(frobenius_inv(f))
    for r in results:
        keys = r.exponents()
        assert all(type(m) is Fraction for m in keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert [m for m, _ in r.items()] == keys
