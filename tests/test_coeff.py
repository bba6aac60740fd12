from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from qcusp.coeff import _KRONECKER_MIN_PHI, CycloCoeff, _reduce, _unit_mul, inv, is_prime, new_ring, val_p, zeta
from qcusp.errors import ContextMismatchError, DepthError, NotInvertibleError

from conftest import random_coeff


def test_new_ring_shapes():
    assert new_ring(2, 8, 0).pk == 256
    assert new_ring(3, 5, 1).modulus == (1, 1, 1)  # x^2 + x + 1
    assert new_ring(2, 6, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert new_ring(5, 4, 2).phi == 20


def test_new_ring_rejects_bad_input():
    with pytest.raises(ValueError):
        new_ring(4, 3, 0)
    with pytest.raises(ValueError):
        new_ring(9, 3, 1)
    with pytest.raises(ValueError):
        new_ring(2, 0, 0)
    assert not is_prime(1)


def test_zeta_defining_relations():
    r22 = new_ring(2, 6, 2)
    assert zeta(r22, 1) == CycloCoeff.from_int(r22, -1)
    z4 = zeta(r22, 2)
    assert z4 * z4 == CycloCoeff.from_int(r22, -1)
    assert z4**4 == CycloCoeff.one(r22)
    r3 = new_ring(3, 5, 1)
    z3 = zeta(r3, 1)
    assert z3**3 == CycloCoeff.one(r3)
    assert z3 != CycloCoeff.one(r3)
    assert zeta(r3, 0) == CycloCoeff.one(r3)


def test_zeta_depth_error():
    r3 = new_ring(3, 5, 1)
    with pytest.raises(DepthError):
        zeta(r3, 2)


def test_zeta_tower_compatibility():
    ctx = new_ring(2, 4, 3)
    for n in range(4):
        for j in range(n + 1):
            assert zeta(ctx, n) ** (2**j) == zeta(ctx, n - j)
    ctx = new_ring(3, 3, 2)
    for n in range(3):
        for j in range(n + 1):
            assert zeta(ctx, n) ** (3**j) == zeta(ctx, n - j)


def test_primitivity():
    ctx = new_ring(3, 4, 2)
    for n in (1, 2):
        z = zeta(ctx, n)
        assert z ** (3**n) == CycloCoeff.one(ctx)
        assert z ** (3 ** (n - 1)) != CycloCoeff.one(ctx)


@pytest.mark.parametrize("p,s", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_geometric_sum_identity(p, s):
    # sum_{d < p^n} zeta_{p^n}^{d*i} is 0 unless p^n | i, in which case p^n
    ctx = new_ring(p, 5, s)
    for n in range(s + 1):
        for i in range(2 * p**n + 1):
            total = CycloCoeff.zero(ctx)
            z = zeta(ctx, n)
            for d in range(p**n):
                total = total + z ** (d * i)
            if i % p**n == 0:
                assert total == CycloCoeff.from_int(ctx, p**n), (n, i)
            else:
                assert total.is_zero(), (n, i)


def test_cyclotomic_cancellation_example():
    # 1 + zeta_3 + zeta_3^2 = 0, reduced by the modulus
    ctx = new_ring(3, 5, 1)
    z = zeta(ctx, 1)
    assert (CycloCoeff.one(ctx) + z + z * z).is_zero()


def test_arith_shift_handling():
    ctx = new_ring(2, 6, 0)
    pu = CycloCoeff.from_int(ctx, 2 * 3)
    pv = CycloCoeff.from_int(ctx, 2 * 5)
    total = pu + pv  # 2*(3+5) = 16: carries push the shift up
    assert total == CycloCoeff.from_int(ctx, 16)
    assert total.shift == 4
    a = CycloCoeff.from_int(ctx, 3).p_times(-1)
    b = CycloCoeff.from_int(ctx, 5).p_times(1)
    prod = a * b
    assert prod.shift == 0 and prod == CycloCoeff.from_int(ctx, 15)
    assert pu - pv == CycloCoeff.from_int(ctx, -4)


def test_ring_axioms_random(rng):
    for ctx in (new_ring(2, 5, 2), new_ring(3, 4, 1), new_ring(5, 3, 1)):
        xs = [random_coeff(rng, ctx, entries=3, shift_range=(-2, 2)) for _ in range(6)]
        for a, b, c in zip(xs, xs[1:], xs[2:]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a + CycloCoeff.zero(ctx) == a
            assert a * CycloCoeff.one(ctx) == a


def test_inv_examples():
    ctx = new_ring(2, 6, 0)
    assert inv(CycloCoeff.from_int(ctx, 3)) == CycloCoeff.from_int(ctx, 43)
    assert inv(CycloCoeff.one(ctx)) == CycloCoeff.one(ctx)
    r24 = new_ring(2, 4, 3)
    assert inv(zeta(r24, 3)) == zeta(r24, 3) ** (2**3 - 1)
    r3 = new_ring(3, 5, 2)
    assert inv(zeta(r3, 2)) == zeta(r3, 2) ** (3**2 - 1)


def test_inv_random_roundtrip(rng):
    # a unit's inverse keeps its digits and negates its shift; a ramified
    # element's inverse has one more factor p in the denominator and one digit less
    ctx = new_ring(3, 5, 2)
    kinds = set()
    for _ in range(20):
        a = random_coeff(rng, ctx, entries=3, shift_range=(-1, 1))
        b = inv(a)
        ramified = sum(a.unit) % 3 == 0
        kinds.add(ramified)
        assert a * b == CycloCoeff.one(ctx)
        assert val_p(b) == -val_p(a)
        assert (b.shift, b.prec) == (-a.shift - ramified, a.prec - ramified)
    assert kinds == {False, True}


def test_inv_rejections():
    ctx = new_ring(3, 5, 1)
    with pytest.raises(NotInvertibleError):
        inv(CycloCoeff.zero(ctx))
    pi = zeta(ctx, 1) - CycloCoeff.one(ctx)  # val 1/2, not a shifted unit
    with pytest.raises(NotInvertibleError):
        inv(pi.reduce_precision(1))  # its inverse would keep no digit
    # pi^2 = -3 zeta, so pi^-1 = -(2 + zeta)/3, one digit short of pi
    b = inv(pi)
    assert (b.shift, b.prec) == (-1, 4) and b == CycloCoeff.from_poly(ctx, [-2, -1], -1)


def test_val_p_examples():
    ctx = new_ring(3, 5, 1)
    assert val_p(CycloCoeff.from_int(ctx, 3)) == 1
    assert val_p(CycloCoeff.zero(ctx)) == inf
    assert val_p(zeta(ctx, 1) - CycloCoeff.one(ctx)) == Fraction(1, 2)


@pytest.mark.parametrize("p,s", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_val_of_zeta_minus_one(p, s):
    # oracle: (zeta_p - 1)^(p-1) / p must be a unit
    ctx = new_ring(p, 5, s)
    pi = zeta(ctx, 1) - CycloCoeff.one(ctx)
    assert val_p(pi) == Fraction(1, p - 1)
    power = pi ** (p - 1)
    assert power.shift == 1
    assert val_p(power.p_times(-1)) == 0
    inv(power.p_times(-1))  # unit, so this must not raise


def test_val_p_is_a_valuation(rng):
    ctx = new_ring(3, 6, 2)
    for _ in range(40):
        a = random_coeff(rng, ctx, entries=3, shift_range=(-1, 2))
        b = random_coeff(rng, ctx, entries=3, shift_range=(-1, 2))
        va, vb = val_p(a), val_p(b)
        assert val_p(a * b) == va + vb
        s = a + b
        if not s.is_zero():
            assert val_p(s) >= min(va, vb)
        if va != vb and not s.is_zero():
            assert val_p(s) == min(va, vb)


def test_precision_tracking_on_alignment():
    ctx = new_ring(2, 6, 0)
    # 1 + (2^5 - 1) = 2^5: five digits spent pulling out the shift
    s = CycloCoeff.from_int(ctx, 1) + CycloCoeff.from_int(ctx, 31)
    assert s.shift == 5 and s.prec == 1
    assert s == CycloCoeff.from_int(ctx, 32)
    # shifts t1 < t2 align at precision k + t1
    a = CycloCoeff.from_int(ctx, 3).p_times(-2)
    b = CycloCoeff.from_int(ctx, 1)
    assert (a + b).shift == -2 and (a + b).prec == 6
    # full cancellation at precision collapses to zero
    assert (CycloCoeff.from_int(ctx, 1) + CycloCoeff.from_int(ctx, 63)).is_zero()


def test_equals_mod():
    ctx = new_ring(5, 6, 0)
    a = CycloCoeff.from_int(ctx, 2)
    b = CycloCoeff.from_int(ctx, 2 + 5**3)
    assert a != b
    assert a.equals_mod(b, 3)
    assert not a.equals_mod(b, 4)


def test_mul_zeta_power_rejects_negative_level():
    ctx = new_ring(3, 4, 2)
    with pytest.raises(ValueError):
        zeta(ctx, 1).mul_zeta_power(-1, 1)
    with pytest.raises(ValueError):
        CycloCoeff.zero(ctx).mul_zeta_power(-2, 0)


# -- property tests against an independent reference ------------------------

# every (p, s) with p in {2, 3, 5, 7} and phi(p^s) <= 100
RINGS = [(p, s) for p in (2, 3, 5, 7) for s in range(5) if new_ring(p, 1, s).phi <= 100]
PHIS = [new_ring(p, 1, s).phi for p, s in RINGS]
assert min(PHIS) < _KRONECKER_MIN_PHI <= max(PHIS)  # the grid straddles the product crossover


def reference_reduce(ctx, poly, modulus):
    """Long division of the integer polynomial poly by the monic Phi_{p^s}; the remainder mod modulus."""
    rem = list(poly)
    d = len(ctx.modulus) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for i, m in enumerate(ctx.modulus):
                rem[top - d + i] -= c * m
    rem += [0] * (d - len(rem))
    return tuple(v % modulus for v in rem[:d])


def reference_mul(ctx, a, b, modulus):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return reference_reduce(ctx, prod, modulus)


@st.composite
def ring_and_precision(draw, p, s, min_k=1):
    """A context at depth s with 1 <= prec <= k, so modulus = p^prec may be below p^k.
    k up to 40 makes Kronecker slots wider than 8 bytes, the path that skips `array`."""
    ctx = new_ring(p, draw(st.integers(min_k, 6) | st.integers(min_k, 40)), s)
    return ctx, draw(st.integers(1, ctx.k))


def unit_tuples(ctx):
    """Unit tuples with entries in [0, p^k - 1]."""
    return st.lists(st.integers(0, ctx.pk - 1), min_size=ctx.phi, max_size=ctx.phi).map(tuple)


def units(ctx, prec):
    """Elements p^shift * u with u(1) != 0 mod p, i.e. shifted units."""
    return st.tuples(st.integers(-2, 2), unit_tuples(ctx)).filter(
        lambda t: sum(t[1]) % ctx.p).map(lambda t: CycloCoeff(ctx, t[0], t[1], prec))


@pytest.mark.parametrize("p,s", RINGS)
def test_kernel_widest_slots(p, s):
    # all entries p^k - 1 fill every product slot to its widest; zeros between them leave gaps
    for k in (6, 40):  # slots of at most 8 bytes, and wider
        ctx = new_ring(p, k, s)
        top = (ctx.pk - 1,) * ctx.phi
        gappy = tuple(ctx.pk - 1 if i % 2 else 0 for i in range(ctx.phi))
        for prec in (ctx.k, 2):
            modulus = ctx.p**prec
            for a, b in ((top, top), (top, gappy), (gappy, gappy)):
                assert _unit_mul(ctx, a, b, modulus) == reference_mul(ctx, a, b, modulus)


@pytest.mark.parametrize("p,s", RINGS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference(p, s, data):
    ctx, prec = data.draw(ring_and_precision(p, s))
    modulus = ctx.p**prec
    a = data.draw(unit_tuples(ctx))
    b = data.draw(unit_tuples(ctx))
    assert _unit_mul(ctx, a, b, modulus) == reference_mul(ctx, a, b, modulus)
    # reduction of arbitrary length and sign, as from_poly and mul_zeta_power use it
    poly = data.draw(st.lists(st.integers(-ctx.pk, ctx.pk), max_size=3 * ctx.order + 2))
    assert _reduce(ctx, poly, modulus) == reference_reduce(ctx, poly, modulus)


@pytest.mark.parametrize("p,s", RINGS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mul_zeta_power_matches_multiplication(p, s, data):
    ctx, prec = data.draw(ring_and_precision(p, s))
    a = CycloCoeff(ctx, data.draw(st.integers(-2, 2)), data.draw(unit_tuples(ctx)), prec)
    n = data.draw(st.integers(0, s))
    e = data.draw(st.integers(-3 * ctx.order, 3 * ctx.order))
    got = a.mul_zeta_power(n, e)
    want = a * zeta(ctx, n) ** (e % p**n)
    assert (got.shift, got.unit, got.prec) == (want.shift, want.unit, want.prec)


@pytest.mark.parametrize("p,s", RINGS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inv_is_inverse_at_precision(p, s, data):
    ctx, prec = data.draw(ring_and_precision(p, s))
    a = data.draw(units(ctx, prec))
    b = inv(a)
    assert b.shift == -a.shift and b.prec == a.prec
    prod = a * b
    assert (prod.shift, prod.unit, prod.prec) == (0, (1,) + (0,) * (ctx.phi - 1), a.prec)


@pytest.mark.parametrize("p,s", [(p, s) for p, s in RINGS if s > 0])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inv_rejects_exactly_the_ramified(p, s, data):
    # a = pi^i * w with pi = zeta_{p^s} - 1 and w a unit has val_p = shift + i/phi;
    # it is a shifted unit iff phi | i, iff its normalized u(1) != 0 mod p.
    # Every nonzero a inverts, a ramified one with one digit less; at one
    # digit that leaves none, and only then does a nonzero a raise
    ctx, prec = data.draw(ring_and_precision(p, s, min_k=3))
    w = data.draw(units(ctx, prec))
    i = data.draw(st.integers(0, 2 * ctx.phi - 1))
    a = (zeta(ctx, s) - CycloCoeff.one(ctx)) ** i * w
    ramified = i % ctx.phi != 0
    assert ramified == (sum(a.unit) % p == 0) == (val_p(a) != a.shift)
    if ramified and a.prec == 1:
        with pytest.raises(NotInvertibleError):
            inv(a)
        return
    b = inv(a)
    assert val_p(b) == -val_p(a) and b.prec == a.prec - ramified
    # every claimed digit agrees with the inverse of the same representative at k + 6
    hi = new_ring(p, ctx.k + 6, s)
    a_hi = CycloCoeff(hi, a.shift, a.unit)
    want = inv(a_hi)
    assert a_hi * want == CycloCoeff.one(hi)
    assert want.shift == b.shift and all((x - y) % p**b.prec == 0 for x, y in zip(want.unit, b.unit))


# -- the normal form against the digit-at-a-time references -------------------


def fields(c):
    return c.shift, c.unit, c.prec


def test_from_poly_normal_form():
    # one gcd takes the integer p-content (27 in 54 + 27 z); the constructor
    # takes what the reduction mod Phi_3 = 1 + x + x^2 creates: 1 + x + x^2
    # reduces to 0 and 4 + x + x^2 to 3, which spends a digit
    ctx = new_ring(3, 4, 1)
    assert fields(CycloCoeff.from_poly(ctx, [1, 1, 1])) == (0, (0, 0), 4)
    assert fields(CycloCoeff.from_poly(ctx, [4, 1, 1])) == (1, (1, 0), 3)
    assert fields(CycloCoeff.from_poly(ctx, [54, 27])) == (3, (2, 1), 4)


def reference_normalize(ctx, shift, unit, prec=None):
    """(shift, unit, prec) of the truncating constructor, pulling out p-content
    one digit at a time."""
    zero = (0, (0,) * ctx.phi, ctx.k)
    prec = ctx.k if prec is None else min(prec, ctx.k)
    if prec <= 0:
        return zero
    p = ctx.p
    m = p**prec
    unit = tuple(v % m for v in unit)
    if all(v == 0 for v in unit):
        return zero
    while all(v % p == 0 for v in unit):
        unit = tuple(v // p for v in unit)
        shift += 1
        prec -= 1
    return shift, unit, prec


def reference_add(a, b):
    """The sum aligned at the smaller shift by scaling both operands."""
    if all(v == 0 for v in a.unit):
        return fields(b)
    if all(v == 0 for v in b.unit):
        return fields(a)
    ctx = a.ctx
    t = min(a.shift, b.shift)
    fa = ctx.p ** (a.shift - t)
    fb = ctx.p ** (b.shift - t)
    unit = tuple(x * fa + y * fb for x, y in zip(a.unit, b.unit))
    prec = min(a.shift + a.prec, b.shift + b.prec) - t
    return reference_normalize(ctx, t, unit, prec)


def reference_coeff_mul(a, b):
    """The product renormalized by the truncating constructor at every phi."""
    ctx = a.ctx
    if all(v == 0 for v in a.unit) or all(v == 0 for v in b.unit):
        return 0, (0,) * ctx.phi, ctx.k
    prec = min(a.prec, b.prec)
    unit = reference_mul(ctx, a.unit, b.unit, ctx.p**prec)
    return reference_normalize(ctx, a.shift + b.shift, unit, prec)


@st.composite
def raw_coeff_args(draw, ctx):
    """(shift, unit, prec) constructor arguments: units with p-content up to
    p^(k+1) or all zero, entries of either sign beyond p^k, prec from -1 to
    k + 2 or absent, shifts from -3 to 3."""
    if draw(st.integers(0, 5)) == 0:
        unit = (0,) * ctx.phi
    else:
        content = ctx.p ** draw(st.integers(0, ctx.k + 1))
        entries = st.integers(-ctx.pk * ctx.p, ctx.pk * ctx.p)
        unit = tuple(content * v for v in draw(st.lists(entries, min_size=ctx.phi, max_size=ctx.phi)))
    prec = draw(st.none() | st.integers(-1, ctx.k + 2))
    return draw(st.integers(-3, 3)), unit, prec


@pytest.mark.parametrize("p,s", RINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_matches_reference(p, s, data):
    ctx = new_ring(p, data.draw(st.integers(1, 8)), s)
    args = [data.draw(raw_coeff_args(ctx)) for _ in range(2)]
    for shift, unit, prec in args:
        assert fields(CycloCoeff(ctx, shift, unit, prec)) == reference_normalize(ctx, shift, unit, prec)
    a, b = (CycloCoeff(ctx, *arg) for arg in args)
    assert fields(a + b) == reference_add(a, b)
    assert fields(b + a) == reference_add(b, a)
    assert fields(a - b) == reference_add(a, -b)
    assert fields(a * b) == reference_coeff_mul(a, b)
    # a pair that cancels to zero, and a sum that cancels back to b
    assert fields(a + (-a)) == (0, (0,) * ctx.phi, ctx.k)
    total = a + b
    assert fields(total + (-a)) == reference_add(total, -a)


@pytest.mark.parametrize("p,s", [(p, s) for p, s in RINGS if new_ring(p, 1, s).phi > 1])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mul_extracts_p_from_pi_multiples(p, s, data):
    # pi = zeta_{p^s} - 1 has valuation 1/phi, so pi^i w * pi^j w' with
    # i, j < phi <= i + j is a multiple of p that the product must normalize
    ctx, prec = data.draw(ring_and_precision(p, s, min_k=3))
    pi = zeta(ctx, s) - CycloCoeff.one(ctx)
    i = data.draw(st.integers(1, ctx.phi - 1))
    j = data.draw(st.integers(ctx.phi - i, ctx.phi - 1))
    a = pi**i * data.draw(units(ctx, prec))
    b = pi**j * data.draw(units(ctx, prec))
    got = a * b
    assert fields(got) == reference_coeff_mul(a, b)
    assert got.is_zero() or got.shift > a.shift + b.shift


def test_context_check_is_by_value():
    a = CycloCoeff.from_int(new_ring(3, 4, 1), 2)
    b = CycloCoeff.from_int(new_ring(3, 4, 1), 5, shift=1)  # a distinct, equal context
    assert a.ctx is not b.ctx
    assert fields(a + b) == reference_add(a, b)
    assert fields(a * b) == reference_coeff_mul(a, b)
    c = CycloCoeff.from_int(new_ring(3, 5, 1), 2)
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(ContextMismatchError):
            op(a, c)
