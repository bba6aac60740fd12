from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from qcusp.coeff import CycloCoeff, inv, new_ring, zeta
from qcusp.errors import DepthError, DomainError, NotInvertibleError
from qcusp.series import (
    Exponent,
    FamilySeries,
    FracSeries,
    _mul_deg_bound,
    compose,
    from_terms,
    monomial,
    revert,
    scale_exponents,
    substitute_power,
    twist,
    zero_series,
)
from qcusp.tiltperf import charp_from_terms
from qcusp.trace import tate_trace

from conftest import random_series

CTX = new_ring(2, 6, 3)


def test_from_terms_normalization():
    f = from_terms(CTX, [(Fraction(2, 4), 5)], 1, 2)
    assert f.exponents() == [Fraction(1, 2)]
    g = from_terms(CTX, [(Exponent(2, 2), 5)], 1, 2)
    assert g == f
    assert from_terms(CTX, [], 3, 1).is_zero()
    m = from_terms(CTX, [((1, 1), 1)], 1, 1)
    assert m.exponents() == [Fraction(1, 2)]


def test_from_terms_rejections():
    with pytest.raises(DomainError):
        from_terms(CTX, [(Fraction(1, 2), 1), (Fraction(2, 4), 3)], 1, 1)
    with pytest.raises(DepthError):
        from_terms(CTX, [(Fraction(1, 4), 1)], 1, 1)
    with pytest.raises(DomainError):
        from_terms(CTX, [(-1, 1)], 1, 0, laurent=False)
    with pytest.raises(DomainError):
        from_terms(CTX, [(5, 1)], 4, 0)
    ctx3 = new_ring(3, 4, 1)
    with pytest.raises(Exception):
        from_terms(CTX, [(1, CycloCoeff.one(ctx3))], 2, 0)


def test_zero_coefficients_dropped():
    f = from_terms(CTX, [(1, 0), (2, 5)], 3, 0)
    assert f.exponents() == [Fraction(2)]


def build_at_p2(builder: str, pairs):
    """A series at p = 2, degree bound 2, depth bound 1, not Laurent, built
    from integer-coefficient pairs by one of the three public entry points."""
    if builder == "from_terms":
        return from_terms(CTX, pairs, 2, 1)
    if builder == "charp_from_terms":
        return charp_from_terms(2, pairs, 2, 1)
    return FracSeries(CTX, {m: CycloCoeff.from_int(CTX, c) for m, c in pairs}, 2, 1)


@pytest.mark.parametrize("builder", ["from_terms", "charp_from_terms", "FracSeries"])
@pytest.mark.parametrize(
    "pairs,error",
    [
        ([((1, 2), 0)], DepthError),
        ([(3, 0)], DomainError),
        ([(-1, 0)], DomainError),
        ([(Fraction(1, 2), 1), ((2, 2), 0)], DomainError),
        ([(Fraction(1, 2), 0), ((2, 2), 1)], DomainError),
    ],
    ids=["too-deep", "above-deg", "negative", "duplicate-zero-second", "duplicate-zero-first"],
)
def test_zero_coefficient_terms_are_checked(builder, pairs, error):
    # the constructor checks every term before it drops the zero ones
    with pytest.raises(error):
        build_at_p2(builder, pairs)
    assert build_at_p2(builder, [(Fraction(1, 2), 0), (2, 0)]).is_zero()


def test_monomial_multiplication():
    h = monomial(CTX, Fraction(1, 2), deg_bound=2, depth_bound=1)
    assert (h * h).exponents() == [Fraction(1)]
    assert (h * h).coefficient(1) == CycloCoeff.one(CTX)


def test_laurent_add():
    a = from_terms(CTX, [(-1, 1), (0, 744)], 3, 0, laurent=True)
    b = from_terms(CTX, [(0, -744)], 3, 0)
    assert (a + b).items() == [(Fraction(-1), CycloCoeff.one(CTX))]


def test_truncated_geometric_product():
    # (1 - q)(1 + q + ... + q^D) = 1 - q^(D+1), and the bound hides the tail
    D = 6
    lhs = from_terms(CTX, [(0, 1), (1, -1)], D, 0)
    rhs = from_terms(CTX, [(i, 1) for i in range(D + 1)], D, 0)
    prod = lhs * rhs
    assert prod.items() == [(Fraction(0), CycloCoeff.one(CTX))]
    assert prod.deg_bound == Fraction(D)


def test_mul_degree_bound_shrinks_soundly():
    f = from_terms(CTX, [(2, 1)], 10, 0)
    g = from_terms(CTX, [(3, 1)], 4, 0)
    assert (f * g).deg_bound == Fraction(4 + 2)
    lau = from_terms(CTX, [(-1, 1)], 5, 0, laurent=True)
    assert (f * lau).deg_bound == Fraction(5 + 2)


def test_ring_axioms_random(rng):
    for _ in range(25):
        a = random_series(rng, CTX, 3, 3)
        b = random_series(rng, CTX, 3, 3)
        c = random_series(rng, CTX, 2, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert ((a * b) * c) == (a * (b * c))
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.equals_mod(rhs, CTX.k)


def test_substitute_power():
    assert substitute_power(monomial(CTX, Fraction(1, 2), deg_bound=1, depth_bound=1), 2) == monomial(CTX, 1, deg_bound=2, depth_bound=1)
    z = zero_series(CTX, 3, 2)
    assert substitute_power(z, 4).is_zero()
    with pytest.raises(DomainError):
        substitute_power(z, 3)
    with pytest.raises(DomainError):
        substitute_power(z, 0)


def test_substitute_power_tower(rng):
    for _ in range(10):
        f = random_series(rng, CTX, 3, 3)
        assert substitute_power(substitute_power(f, 2), 2) == substitute_power(f, 4)


def test_substitute_power_is_ring_hom(rng):
    for _ in range(10):
        f = random_series(rng, CTX, 2, 2)
        g = random_series(rng, CTX, 2, 2)
        assert substitute_power(f * g, 2).equals_mod(substitute_power(f, 2) * substitute_power(g, 2), CTX.k)
        assert substitute_power(f + g, 2) == substitute_power(f, 2) + substitute_power(g, 2)


def test_twist_fixed_on_integer_exponents():
    q = monomial(CTX, 1, deg_bound=2, depth_bound=0)
    for h in (0, 1, 5, -3):
        assert twist(q, h, 1) == q


def test_twist_basic_value():
    # q^(1/p) picks up the primitive p-th unit root
    f = monomial(CTX, Fraction(1, 2), deg_bound=1, depth_bound=3)
    assert twist(f, 1, 1).coefficient(Fraction(1, 2)) == zeta(CTX, 1)
    assert twist(f, 0, 1) == f


def test_twist_uses_e_inverse():
    ctx = new_ring(3, 5, 2)
    f = monomial(ctx, Fraction(1, 9), deg_bound=1, depth_bound=2)
    # h/e = 1/2 = 5 mod 9
    expected = f.scale(zeta(ctx, 2) ** 5)
    assert twist(f, 1, 2) == expected


def test_twist_is_ring_automorphism(rng):
    for _ in range(15):
        f = random_series(rng, CTX, 3, 3)
        g = random_series(rng, CTX, 3, 3)
        h = rng.randrange(-8, 9)
        assert twist(f * g, h, 1) == twist(f, h, 1) * twist(g, h, 1)
        assert twist(f + g, h, 1) == twist(f, h, 1) + twist(g, h, 1)
        assert twist(twist(f, h, 1), -h, 1) == f


def test_twist_character_additive():
    # chi_h(m1 + m2) = chi_h(m1) chi_h(m2) on monomials
    for m1, m2 in ((Fraction(1, 4), Fraction(3, 8)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 8))):
        a = monomial(CTX, m1, deg_bound=2, depth_bound=3)
        b = monomial(CTX, m2, deg_bound=2, depth_bound=3)
        assert twist(a * b, 3, 1) == twist(a, 3, 1) * twist(b, 3, 1)


def test_twist_depth_guard():
    ctx = new_ring(2, 6, 1)
    f = monomial(ctx, Fraction(1, 4), deg_bound=1, depth_bound=2)
    with pytest.raises(DepthError):
        twist(f, 1, 1)
    with pytest.raises(DomainError):
        twist(monomial(ctx, Fraction(1, 2), deg_bound=1, depth_bound=1), 1, 2)


def test_revert_identity_and_catalan():
    ctx = new_ring(7, 8, 0)
    assert revert(monomial(ctx, 1, deg_bound=5, depth_bound=0)) == monomial(ctx, 1, deg_bound=5, depth_bound=0)
    f = from_terms(ctx, [(1, 1), (2, 1)], 6, 0)
    g = revert(f)
    expected = [1, -1, 2, -5, 14, -42]  # signed Catalan numbers
    for i, c in enumerate(expected, start=1):
        assert g.coefficient(i) == CycloCoeff.from_int(ctx, c)
    q = monomial(ctx, 1, deg_bound=6, depth_bound=0)
    assert compose(f, g) == q
    assert compose(g, f) == q


def test_revert_rejections():
    ctx = new_ring(7, 8, 0)
    with pytest.raises(NotInvertibleError):
        revert(from_terms(ctx, [(1, 7), (2, 1)], 4, 0))
    r3 = new_ring(3, 4, 1)
    with pytest.raises(NotInvertibleError):  # c1 = zeta_3 - 1 is ramified, though inv takes it
        revert(from_terms(r3, [(1, zeta(r3, 1) - CycloCoeff.one(r3)), (2, 1)], 4, 0))
    with pytest.raises(DomainError):
        revert(from_terms(ctx, [(Fraction(1, 7), 1)], 4, 1))
    with pytest.raises(DomainError):
        revert(from_terms(ctx, [(0, 1), (1, 1)], 4, 0))


def test_compose_rejects_bad_inner():
    ctx = new_ring(7, 8, 0)
    f = monomial(ctx, 2, deg_bound=4, depth_bound=0)
    with pytest.raises(DomainError):
        compose(f, from_terms(ctx, [(0, 1), (1, 1)], 4, 0))


def test_revert_random_roundtrip(rng):
    ctx = new_ring(5, 6, 0)
    for _ in range(10):
        terms = [(1, 1 + 5 * rng.randrange(5))]
        for d in range(2, 6):
            terms.append((d, rng.randrange(25)))
        f = from_terms(ctx, terms, 5, 0)
        g = revert(f)
        assert compose(f, g) == monomial(ctx, 1, deg_bound=5, depth_bound=0)
        assert compose(g, f) == monomial(ctx, 1, deg_bound=5, depth_bound=0)


def test_scale_exponents():
    a = from_terms(CTX, [(-1, 1), (0, 744)], 3, 0, laurent=True)
    assert scale_exponents(a, 3).exponents() == [Fraction(-3), Fraction(0)]
    assert scale_exponents(monomial(CTX, Fraction(1, 2), deg_bound=1, depth_bound=1), 3).exponents() == [Fraction(3, 2)]
    with pytest.raises(DomainError):
        scale_exponents(a, 2)


def test_truncate_degree_forgets():
    f = from_terms(CTX, [(1, 1), (3, 1)], 5, 0)
    t = f.truncate_degree(2)
    assert t.exponents() == [Fraction(1)]
    assert t.deg_bound == Fraction(2)


def test_family_validation():
    f = monomial(CTX, 1, deg_bound=3, depth_bound=2)
    g = monomial(CTX, Fraction(1, 2), deg_bound=3, depth_bound=2)
    fam = FamilySeries(2, {1: f, 3: g})
    assert fam.members()[0][0] == 1
    with pytest.raises(DomainError):
        FamilySeries(2, {1: f})
    with pytest.raises(DomainError):
        FamilySeries(1, {0: f})
    assert fam.translate(3).values[3] == f


def test_equality_ignores_bounds():
    a = from_terms(CTX, [(1, 5)], 3, 0)
    b = from_terms(CTX, [(1, 5)], 7, 2)
    assert a == b


# -- the Fraction-keyed kernels, kept as references for the integer ones -----


def reference_add(f, g):
    """f+g by the Fraction-keyed loop: f's terms, then g's added in
    ascending order, and a sum that collapses to zero is dropped."""
    deg = min(f.deg_bound, g.deg_bound)
    out = {m: c for m, c in f.items() if m <= deg}
    for m, c in g.items():
        if m > deg:
            continue
        s = out[m] + c if m in out else c
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return FracSeries(f.ctx, out, deg, max(f.depth_bound, g.depth_bound), f.laurent or g.laurent)


def reference_mul(f, g):
    """f*g by the Fraction-keyed loop: f ascending outside, g ascending
    inside, and a partial sum that collapses to zero is dropped."""
    deg = _mul_deg_bound(f, g)
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            if m > deg:
                continue
            c = c1 * c2
            if m in out:
                c = out[m] + c
            if c.is_zero():
                out.pop(m, None)
            else:
                out[m] = c
    return FracSeries(f.ctx, out, deg, max(f.depth_bound, g.depth_bound), f.laurent or g.laurent)


def reference_compose(f, g):
    """sum_e f_e g^e with sparse powers, each truncated to the degree bound."""
    deg = min(f.deg_bound, g.deg_bound)
    acc = zero_series(f.ctx, deg, max(f.depth_bound, g.depth_bound), f.laurent or g.laurent)
    gp = from_terms(f.ctx, [(0, 1)], deg, 0)
    power = 0
    for m, c in f.items():
        while power < int(m):
            gp = reference_mul(gp, g).truncate_degree(deg)
            power += 1
        acc = acc + gp.scale(c)
    return acc


def reference_revert(f):
    """Back-substitution with one full compose per coefficient: b_d is
    -(q^d coefficient of f(b_1 q + ... + b_(d-1) q^(d-1))) / c1."""
    c1_inv = inv(f.coefficient(1))
    g_terms = {Fraction(1): c1_inv}
    for d in range(2, int(f.deg_bound) + 1):
        g = FracSeries(f.ctx, g_terms, Fraction(d), 0, False)
        err = reference_compose(f.truncate_degree(d), g).coefficient(d)
        b = -(err * c1_inv)
        if not b.is_zero():
            g_terms[Fraction(d)] = b
    return FracSeries(f.ctx, g_terms, f.deg_bound, 0, False)


def fields(f):
    """Everything a series carries; FracSeries.__eq__ ignores the bounds and
    compares coefficients only at their shared precision."""
    terms = [(m, type(m), c.shift, c.unit, c.prec) for m, c in f.items()]
    return terms, f.deg_bound, f.depth_bound, f.laurent


@st.composite
def rings(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return new_ring(p, draw(st.integers(1, 6)), draw(st.integers(0, 2 if p < 5 else 1)))


@st.composite
def coeff_pools(draw, ctx):
    """A few base coefficients; terms reuse them with signs and p-shifts so
    that partial sums cancel, also in the precision-limited digits."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        poly = draw(st.lists(st.integers(-ctx.pk, ctx.pk), min_size=ctx.phi, max_size=ctx.phi).filter(any))
        c = CycloCoeff.from_poly(ctx, poly, draw(st.integers(-2, 2)))
        pool.append(c.reduce_precision(draw(st.integers(1, ctx.k))))
    return pool


@st.composite
def pool_coeffs(draw, ctx, pool):
    c = draw(st.sampled_from(pool))
    c = c.p_times(draw(st.sampled_from([0, 0, 1, -1, ctx.k])))
    return -c if draw(st.booleans()) else c


@st.composite
def degree_bounds(draw, p, low):
    """inf, or num / p^r with r up to 4, deeper than any term's depth."""
    if draw(st.integers(0, 4)) == 0:
        return inf
    return Fraction(draw(st.integers(low, 40)), p ** draw(st.sampled_from([0, 0, 1, 2, 4])))


@st.composite
def frac_series(draw, ctx, pool, integer=False, positive=False, top=24):
    p = ctx.p
    depth = 0 if integer else draw(st.integers(0, 3))
    laurent = not integer and draw(st.booleans())
    deg = draw(degree_bounds(p, -4 if laurent else 0))
    low = 1 if positive else -4 if laurent else 0
    terms = {}
    for _ in range(draw(st.integers(0, 10))):
        m = Fraction(draw(st.integers(low, top)), p ** draw(st.integers(0, depth)))
        if m <= deg and m >= low:
            terms[m] = draw(pool_coeffs(ctx, pool))
    return FracSeries(ctx, terms, deg, depth, laurent)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mul_matches_fraction_reference(data):
    ctx = data.draw(rings())
    pool = data.draw(coeff_pools(ctx))
    f = data.draw(frac_series(ctx, pool))
    g = data.draw(frac_series(ctx, pool))
    assert fields(f * g) == fields(reference_mul(f, g))
    assert fields(g * f) == fields(reference_mul(g, f))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_add_matches_fraction_reference(data):
    # the operands' depth bounds are drawn independently, so the integer keys
    # of one operand are rescaled to the other's
    ctx = data.draw(rings())
    pool = data.draw(coeff_pools(ctx))
    f = data.draw(frac_series(ctx, pool))
    g = data.draw(frac_series(ctx, pool))
    assert fields(f + g) == fields(reference_add(f, g))
    assert fields(g + f) == fields(reference_add(g, f))
    # == compares at a common key scale
    deeper = f.with_depth_bound(f.depth_bound + data.draw(st.integers(1, 2)))
    assert deeper == f and f == deeper
    assert (f == g) == (dict(f.items()) == dict(g.items()))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_matches_fraction_reference(data):
    ctx = data.draw(rings())
    pool = data.draw(coeff_pools(ctx))
    f = data.draw(frac_series(ctx, pool, integer=True, top=8))
    g = data.draw(frac_series(ctx, pool, integer=True, positive=True, top=6))
    assert fields(compose(f, g)) == fields(reference_compose(f, g))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_revert_matches_fraction_reference(data):
    ctx = data.draw(rings())
    pool = data.draw(coeff_pools(ctx))
    n = data.draw(st.integers(1, 8))
    poly = data.draw(st.lists(st.integers(0, ctx.pk - 1), min_size=ctx.phi, max_size=ctx.phi)
                     .filter(lambda u: sum(u) % ctx.p))
    c1 = CycloCoeff(ctx, 0, tuple(poly), data.draw(st.integers(1, ctx.k)))
    terms = {Fraction(1): c1}
    for d in range(2, n + 1):
        if data.draw(st.booleans()):
            terms[Fraction(d)] = data.draw(pool_coeffs(ctx, pool))
    deg = n + Fraction(data.draw(st.integers(0, ctx.p - 1)), ctx.p)  # fractional bounds floor to n
    f = FracSeries(ctx, terms, deg, 0, False)
    assert fields(revert(f)) == fields(reference_revert(f))


def test_revert_keeps_the_compose_order():
    # a_2 known to one digit makes the power-table sums depend on their order
    # (summing P[j-1][m] b_(d-m) in descending m loses the q^6 term), on the
    # integer kernel at phi = 1 and on the coefficient loop at phi = 2
    for s in (0, 2):
        ctx = new_ring(2, 4, s)
        a2 = CycloCoeff.from_int(ctx, -1).reduce_precision(1)
        f = from_terms(ctx, [(1, 1), (2, a2), (3, 10), (4, -3)], 6, 0)
        g = revert(f)
        assert fields(g) == fields(reference_revert(f))
        assert g.coefficient(6).prec == 1


def test_mul_partial_sum_collapses_mid_accumulation():
    # at q^(2/5) the products arrive as a, -a, 7 when f is the outer factor:
    # a + (-a) collapses to zero and is dropped, so 7 keeps its 4 digits,
    # while the order 7, -a, a keeps only 1 (ROADMAP item 3); the kernel must
    # reproduce each order exactly
    ctx = new_ring(5, 4, 0)
    a = CycloCoeff.from_int(ctx, 1, shift=-3)
    f = from_terms(ctx, [(0, 1), ((1, 1), 1), ((2, 1), 1)], 1, 1)
    g = from_terms(ctx, [(0, 7), ((1, 1), -a), ((2, 1), a)], 1, 1)
    fg, gf = f * g, g * f
    assert fields(fg) == fields(reference_mul(f, g))
    assert fields(gf) == fields(reference_mul(g, f))
    m = Fraction(2, 5)
    assert (fg.coefficient(m).unit, fg.coefficient(m).prec) == ((7,), 4)
    assert (gf.coefficient(m).unit, gf.coefficient(m).prec) == ((2,), 1)


def test_compose_partial_sum_collapses_mid_accumulation():
    # phi = 2: g = q + q^2 + q^3, so [q^3] g^e = 1, 2, 1 for e = 1..3, and
    # f = a q + a q^2 + c q^3 with a = 1 + z known to one digit and
    # c = 3 (2 + z). At q^3 the sum over e takes a, 2a, c: a + 2a = 3a
    # collapses at one digit and is dropped, so c keeps its 4 digits, while
    # c + a would be known to one digit only
    ctx = new_ring(3, 4, 1)
    a = CycloCoeff.from_poly(ctx, [1, 1]).reduce_precision(1)
    f = from_terms(ctx, [(1, a), (2, a), (3, CycloCoeff.from_poly(ctx, [6, 3]))], 3, 0)
    g = from_terms(ctx, [(1, 1), (2, 1), (3, 1)], 3, 0)
    fg = compose(f, g)
    assert fields(fg) == fields(reference_compose(f, g))
    got = {int(m): (c.shift, c.unit, c.prec) for m, c in fg.items()}
    assert got == {1: (0, (1, 1), 1), 2: (0, (2, 2), 1), 3: (1, (2, 1), 4)}


def test_revert_partial_sum_collapses_mid_accumulation():
    # phi = 2: f = q + a q^2 with a = z known to one digit gives b_1 = 1,
    # b_2 = -a and b_3 = 2a^2. P[2][4] = b_1 b_3 + b_2 b_2 + b_3 b_1 takes
    # 2a^2, a^2, 2a^2: the first two collapse to 3a^2 = 0 at one digit, and
    # the third restarts the sum, so b_4 = -P[2][4] a = -2a^3 = -2
    ctx = new_ring(3, 4, 1)
    a = CycloCoeff.from_poly(ctx, [0, 1]).reduce_precision(1)
    f = from_terms(ctx, [(1, 1), (2, a)], 4, 0)
    g = revert(f)
    assert fields(g) == fields(reference_revert(f))
    got = {int(m): (c.shift, c.unit, c.prec) for m, c in g.items()}
    assert got == {1: (0, (1, 0), 4), 2: (0, (0, 2), 1), 3: (0, (1, 1), 1), 4: (0, (1, 0), 1)}



def assert_stored_in_order(f):
    # items() and exponents() return the terms in ascending exponent order
    keys = f.exponents()
    assert all(type(m) is Fraction for m in keys)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [m for m, _ in f.items()] == keys


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_results_store_terms_in_ascending_order(data):
    ctx = data.draw(rings())
    p = ctx.p
    pool = data.draw(coeff_pools(ctx))
    f = data.draw(frac_series(ctx, pool))
    g = data.draw(frac_series(ctx, pool))
    results = [f + g, g + f, f - g, f * g, g * f, -f, f.scale(data.draw(pool_coeffs(ctx, pool))),
               f.p_times(data.draw(st.integers(-3, 3))), f.truncate_degree(Fraction(data.draw(st.integers(-4, 30)), p)),
               substitute_power(f, p), scale_exponents(f, p + 1)]
    if f.max_depth() <= ctx.s:
        results.append(twist(f, data.draw(st.integers(0, 30)), data.draw(st.sampled_from([1, p + 1]))))
    if not f.laurent:
        results.append(tate_trace(f, data.draw(st.integers(0, 3))))
    fi = data.draw(frac_series(ctx, pool, integer=True, top=8))
    gi = data.draw(frac_series(ctx, pool, integer=True, positive=True, top=6))
    results.append(compose(fi, gi))
    n = data.draw(st.integers(1, 8))
    terms = {Fraction(d): data.draw(pool_coeffs(ctx, pool)) for d in range(2, n + 1) if data.draw(st.booleans())}
    results.append(revert(FracSeries(ctx, {Fraction(1): CycloCoeff.one(ctx), **terms}, n, 0, False)))
    for r in [f, g, *results]:
        assert_stored_in_order(r)


# -- the phi = 1 integer kernel against the coefficient loops ----------------


@st.composite
def phi1_rings(draw):
    """s = 0 for p in {2, 3, 5, 7}, and p = 2 with s = 1, where zeta = -1."""
    p, s = draw(st.sampled_from([(2, 0), (3, 0), (5, 0), (7, 0), (2, 1)]))
    return new_ring(p, draw(st.integers(1, 8)), s)


@st.composite
def phi1_coeffs(draw, ctx, pool):
    """A pool coefficient, sometimes known to fewer digits or moved to a
    more negative shift, so that precisions and shifts differ across terms."""
    c = draw(pool_coeffs(ctx, pool))
    if draw(st.booleans()):
        c = c.reduce_precision(draw(st.integers(1, ctx.k)))
    return c.p_times(draw(st.sampled_from([0, 0, -1, -3])))


@st.composite
def phi1_series(draw, ctx, pool, integer=False, positive=False, top=24):
    f = draw(frac_series(ctx, pool, integer, positive, top))
    terms = {m: draw(phi1_coeffs(ctx, [c])) for m, c in f.items()}
    return FracSeries(ctx, terms, f.deg_bound, f.depth_bound, f.laurent)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_phi1_mul_matches_the_loop(data):
    ctx = data.draw(phi1_rings())
    pool = data.draw(coeff_pools(ctx))
    f = data.draw(phi1_series(ctx, pool))
    g = data.draw(phi1_series(ctx, pool))
    assert fields(f * g) == fields(reference_mul(f, g))
    assert fields(g * f) == fields(reference_mul(g, f))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_phi1_compose_matches_the_loop(data):
    ctx = data.draw(phi1_rings())
    pool = data.draw(coeff_pools(ctx))
    f = data.draw(phi1_series(ctx, pool, integer=True, top=8))
    g = data.draw(phi1_series(ctx, pool, integer=True, positive=True, top=6))
    assert fields(compose(f, g)) == fields(reference_compose(f, g))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_phi1_revert_matches_the_loop(data):
    ctx = data.draw(phi1_rings())
    pool = data.draw(coeff_pools(ctx))
    n = data.draw(st.integers(1, 8))
    u = data.draw(st.integers(1, ctx.pk - 1).filter(lambda v: v % ctx.p))
    terms = {Fraction(1): CycloCoeff.from_int(ctx, u).reduce_precision(data.draw(st.integers(1, ctx.k)))}
    for d in range(2, n + 1):
        if data.draw(st.booleans()):
            terms[Fraction(d)] = data.draw(phi1_coeffs(ctx, pool))
    f = FracSeries(ctx, terms, n, 0, False)
    assert fields(revert(f)) == fields(reference_revert(f))


def test_phi1_mul_drops_after_a_low_precision_product():
    # f = 1 + q^(1/5) + q^(2/5) + 3 q^(3/5), g = 7 + q^(1/5) + 3 q^(2/5) + q^(3/5)
    # with g's 3 known to one digit. At q^(3/5) the products arrive as
    # 1, 3 (A drops to 1), 1: 1 + 3 + 1 = 5 collapses, and 3 * 7 = 21
    # restarts at 4 digits. At q^1 they arrive as 1, 9: the one-digit
    # product itself cancels, and the key drops.
    ctx = new_ring(5, 4, 0)
    low3 = CycloCoeff.from_int(ctx, 3).reduce_precision(1)
    f = from_terms(ctx, [(0, 1), ((1, 1), 1), ((2, 1), 1), ((3, 1), 3)], 1, 1)
    g = from_terms(ctx, [(0, 7), ((1, 1), 1), ((2, 1), low3), ((3, 1), 1)], 1, 1)
    fg = f * g
    assert fields(fg) == fields(reference_mul(f, g))
    assert fields(g * f) == fields(reference_mul(g, f))
    got = {m: (c.shift, c.unit, c.prec) for m, c in fg.items()}
    assert got == {0: (0, (7,), 4), Fraction(1, 5): (0, (8,), 4), Fraction(2, 5): (0, (1,), 1),
                   Fraction(3, 5): (0, (21,), 4), Fraction(4, 5): (0, (2,), 1)}


def test_phi1_compose_drops_after_a_low_precision_product():
    # g = q + q^2 + q^3 + q^4, so [q^4] g^e = 1, 3, 3, 1 for e = 1..4, and
    # f = q + 2 q^2 + q^3 + 7 q^4 with f's 2 known to one digit. At q^4 the
    # sum over e takes 1, 6 (A drops to 1), 3: 1 + 6 + 3 = 10 collapses, and
    # 7 restarts at 4 digits. At q^3 it takes 1, 4: the one-digit product
    # itself cancels, and 1 restarts at 4 digits.
    ctx = new_ring(5, 4, 0)
    low2 = CycloCoeff.from_int(ctx, 2).reduce_precision(1)
    f = from_terms(ctx, [(1, 1), (2, low2), (3, 1), (4, 7)], 4, 0)
    g = from_terms(ctx, [(1, 1), (2, 1), (3, 1), (4, 1)], 4, 0)
    fg = compose(f, g)
    assert fields(fg) == fields(reference_compose(f, g))
    got = {int(m): (c.shift, c.unit, c.prec) for m, c in fg.items()}
    assert got == {1: (0, (1,), 4), 2: (0, (3,), 1), 3: (0, (1,), 4), 4: (0, (7,), 4)}
