"""The j-expansion and its reversion, checked against an independent
naive-convolution oracle and the classical coefficient values."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from qcusp.coeff import CycloCoeff, inv, new_ring, val_p
from qcusp import modular
from qcusp.errors import DomainError
from qcusp.modular import (
    _int_mul,
    _reduce_int_series,
    delta_series,
    eisenstein4_coefficients,
    eisenstein4_series,
    j_coefficients,
    j_inverse_coefficients,
    j_inverse_series,
    j_series,
    one_over_j_coefficients,
    tate_parameter_from_j,
)


def naive_eta24(n: int) -> list[int]:
    """prod (1 - q^m)^24 by multiplying the 24 binomial factors one at a time."""
    out = [0] * (n + 1)
    out[0] = 1
    for m in range(1, n + 1):
        for _ in range(24):
            nxt = list(out)
            for i in range(n + 1 - m):
                nxt[i + m] -= out[i]
            out = nxt
    return out


def naive_sigma3_e4(n: int) -> list[int]:
    out = [1] + [0] * n
    for d in range(1, n + 1):
        for e in range(1, n // d + 1):
            out[d * e] += 240 * d**3
    return out


def oracle_j_coefficients(n_terms: int) -> list[int]:
    """Solve j * Delta = E4^3 term by term, with Delta and E4 from the naive
    convolutions; independent of the production route."""
    n = n_terms + 1
    e4 = naive_sigma3_e4(n)
    e4c = [0] * (n + 1)
    for i in range(n + 1):
        for jdx in range(n + 1 - i):
            for kdx in range(n + 1 - i - jdx):
                e4c[i + jdx + kdx] += e4[i] * e4[jdx] * e4[kdx]
    delta = [0] + naive_eta24(n)  # coefficient of q^i for i = 0 .. n+1
    # j = sum c_i q^(i-1); (sum c_i q^(i-1)) * (sum delta_j q^j) = E4^3
    c = [0] * (n + 1)
    for d in range(n + 1):
        acc = sum(c[i] * delta[d - i + 1] for i in range(d))
        c[d] = e4c[d] - acc  # delta_1 = 1 multiplies c[d]
    return c


def test_oracle_agrees_with_production():
    assert oracle_j_coefficients(8) == j_coefficients(8)


def test_j_golden_values():
    jc = j_coefficients(12)
    assert jc[0] == 1
    assert jc[1] == 744
    assert jc[2] == 196884
    assert jc[3] == 21493760
    assert jc[4] == 864299970


def test_e4_route_consistency():
    assert eisenstein4_coefficients(4) == [1, 240, 2160, 6720, 17520]
    assert naive_sigma3_e4(4) == [1, 240, 2160, 6720, 17520]


def test_j_series_in_context():
    ctx = new_ring(5, 6, 1)
    js = j_series(ctx, 12)
    assert js.coefficient(-1) == CycloCoeff.one(ctx)
    assert js.coefficient(0) == CycloCoeff.from_int(ctx, 744)
    assert js.coefficient(1) == CycloCoeff.from_int(ctx, 196884)
    assert js.laurent and js.deg_bound == Fraction(12)


def test_j_times_delta_is_e4_cubed():
    ctx = new_ring(3, 6, 0)
    js = j_series(ctx, 10)
    d = delta_series(ctx, 12)
    e4 = eisenstein4_series(ctx, 12)
    lhs = js * d
    rhs = (e4 * e4 * e4).truncate_degree(lhs.deg_bound)
    assert lhs == rhs


def test_one_over_j():
    u = one_over_j_coefficients(4)
    assert u[0] == 1 and u[1] == -744 and u[2] == 356652


def test_reversion_golden_values():
    b = j_inverse_coefficients(10)
    assert b[0] == 1
    assert b[1] == 744
    assert b[2] == 750420
    assert b[3] == 872769632


def test_reversion_composition_exact():
    # substituting q(w) into 1/j returns w exactly through w^50
    n = 50
    u = one_over_j_coefficients(n)
    b = [0] + j_inverse_coefficients(n)
    comp = [0] * (n + 1)
    gpow = [0] * (n + 1)
    gpow[0] = 1
    for i in range(1, n + 1):
        nxt = [0] * (n + 1)
        for a, ga in enumerate(gpow):
            if ga:
                for bidx in range(1, n + 1 - a):
                    nxt[a + bidx] += ga * b[bidx]
        gpow = nxt
        for d in range(n + 1):
            comp[d] += u[i - 1] * gpow[d]
    assert comp == [0, 1] + [0] * (n - 1)


def test_j_inverse_series_in_context():
    ctx = new_ring(2, 8, 0)
    s = j_inverse_series(ctx, 6)
    assert s.coefficient(1) == CycloCoeff.one(ctx)
    assert s.coefficient(2) == CycloCoeff.from_int(ctx, 744)
    assert s.coefficient(3) == CycloCoeff.from_int(ctx, 750420)


def test_tate_parameter_first_order():
    ctx = new_ring(5, 6, 1)
    q_e = tate_parameter_from_j(CycloCoeff.one(ctx).p_times(-1))
    assert val_p(q_e) == 1
    # q_E = p + 744 p^2 + O(p^3)
    assert q_e.equals_mod(CycloCoeff.from_int(ctx, 5 + 744 * 25), 2)


def test_tate_parameter_fixed_point_oracle():
    # solve 1/q + 744 + 196884 q = 1/p by iteration and compare mod p^3
    ctx = new_ring(5, 6, 1)
    q_e = tate_parameter_from_j(CycloCoeff.one(ctx).p_times(-1))
    q = CycloCoeff.from_int(ctx, 5)
    for _ in range(6):
        denom = (
            CycloCoeff.one(ctx)
            + CycloCoeff.from_int(ctx, -744 * 5)
            + CycloCoeff.from_int(ctx, -196884 * 5) * q
        )
        q = inv(denom).p_times(1)
    assert q.equals_mod(q_e, 3)


def test_tate_parameter_valuation_relation():
    ctx = new_ring(3, 6, 0)
    for v in (1, 2):
        jval = CycloCoeff.from_int(ctx, 2).p_times(-v)
        assert val_p(tate_parameter_from_j(jval)) == v


def test_tate_parameter_of_a_ramified_j():
    # j = (zeta_3 - 1)/3 has val_p(j) = -1/2 and a unit part that is not a unit;
    # every digit claimed at k = 6 agrees with the same j at k + 6
    def q_e(k):
        return tate_parameter_from_j(CycloCoeff.from_poly(new_ring(3, k, 1), [-1, 1], -1))

    lo, hi = q_e(6), q_e(12)
    assert val_p(lo) == Fraction(1, 2) and (lo.shift, lo.prec) == (hi.shift, 5)
    assert lo.unit == tuple(v % 3**5 for v in hi.unit)


def test_tate_parameter_rejects_integral_j():
    ctx = new_ring(3, 6, 0)
    with pytest.raises(DomainError):
        tate_parameter_from_j(CycloCoeff.one(ctx))
    with pytest.raises(DomainError):
        tate_parameter_from_j(CycloCoeff.from_int(ctx, 3))


def schoolbook_mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= n:
                out[i + j] += ai * bj
    return out


@st.composite
def int_series(draw):
    """Signed entries up to thousands of bits; +-(2^bits - 1) fills the
    widest slot and the sign offset."""
    top = (1 << draw(st.integers(0, 3000))) - 1
    entry = st.sampled_from([0, top, -top, 1, -1]) | st.integers(-top, top)
    return draw(st.lists(entry, max_size=12))


@settings(max_examples=200, deadline=None)
@given(a=int_series(), b=int_series(), extra=st.integers(-24, 4))
@example(a=[], b=[1, 2], extra=2)
@example(a=[0, 0, 0], b=[5, -7], extra=-1)
@example(a=[0], b=[0], extra=3)
def test_int_mul_matches_schoolbook(a, b, extra):
    # n runs from below to above len(a) + len(b) - 2, the top product degree
    n = max(0, len(a) + len(b) - 2 + extra)
    assert _int_mul(a, b, n) == schoolbook_mul(a, b, n)


@pytest.mark.parametrize("bits", [1, 2, 3, 6, 7, 11, 28, 31, 64, 1001, 3000])
def test_int_mul_widest_slots(bits):
    # all entries +-(2^bits - 1): every middle coefficient reaches
    # min(len) * max|a| * max|b|, the bound the slot width is sized for;
    # bits 28 and 31 give the packed factors slots of 8 and 9 bytes
    top = (1 << bits) - 1
    for la, lb in ((1, 1), (2, 3), (3, 5), (8, 8), (9, 40), (40, 9)):
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a, b = [sa * top] * la, [sb * top] * lb
            for n in (la + lb - 2, la + lb + 3, (la + lb) // 2):
                assert _int_mul(a, b, n) == schoolbook_mul(a, b, n)


def back_substitution_reversion(n_terms: int) -> list[int]:
    """The reversion of 1/j solved term by term over Z: b_d is minus the
    w^d coefficient of sum_i u_i g^i with g = sum_{e<d} b_e w^e."""
    u = one_over_j_coefficients(n_terms)  # u[i] = coeff of q^(i+1) in 1/j
    b = [0] * (n_terms + 1)  # b[d] = coeff of w^d in q(w)
    b[1] = u[0]
    for d in range(2, n_terms + 1):
        gpow = [1]
        acc = 0
        for i in range(1, d + 1):
            gpow = schoolbook_mul(gpow, b[: d + 1], d)
            acc += u[i - 1] * gpow[d]
        b[d] = -acc
    return b[1:]


def test_reversion_matches_back_substitution():
    for n in range(1, 41):
        assert j_inverse_coefficients(n) == back_substitution_reversion(n)


@cache
def exact_reversion() -> tuple[int, ...]:
    """b_1, ..., b_200 over Z; b_d does not depend on the number of terms."""
    return tuple(j_inverse_coefficients(200))


def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def fields(f):
    terms = [(m, c.shift, c.unit, c.prec) for m, c in f.items()]
    return terms, f.deg_bound, f.depth_bound, f.laurent


def exact_series(ctx, n: int):
    return _reduce_int_series(ctx, [0, *exact_reversion()[:n]], 0, laurent=False)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), s=st.integers(0, 2), k=st.integers(1, 12), n=st.integers(1, 200))
@example(p=2, s=0, k=1, n=200)
@example(p=3, s=2, k=12, n=200)
@example(p=7, s=2, k=1, n=1)
def test_j_inverse_series_matches_exact_reversion(p, s, k, n):
    ctx = new_ring(p, k, s)
    assert fields(j_inverse_series(ctx, n)) == fields(exact_series(ctx, n))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11]), data=st.data())
def test_modular_reversion_is_exact_mod_p_power(p, data):
    # entry d-1 is b_d mod p^(digits - v_p(d)), reduced into [0, that modulus)
    n = data.draw(st.integers(1, 120))
    top = 0
    while p ** (top + 1) <= n:
        top += 1
    digits = data.draw(st.integers(top + 1, 40))
    got = j_inverse_coefficients(n, p, digits)
    assert got == [b % p ** (digits - vp(d, p)) for d, b in enumerate(exact_reversion()[:n], 1)]


def spy_reversion(monkeypatch) -> list[tuple]:
    calls = []
    real = modular.j_inverse_coefficients

    def spy(n_terms, p=None, digits=0):
        calls.append((n_terms, p, digits))
        return real(n_terms, p, digits)

    monkeypatch.setattr(modular, "j_inverse_coefficients", spy)
    return calls


@pytest.mark.parametrize("p,n,guard", [(7, 1, 2), (7, 6, 2), (7, 7, 3), (5, 100, 4), (2, 40, 7)])
def test_j_inverse_series_first_guard(monkeypatch, p, n, guard):
    # G starts at floor(log_p n) + 2
    calls = spy_reversion(monkeypatch)
    j_inverse_series(new_ring(p, 3, 0), n)
    assert calls[0] == (n, p, 3 + guard)


def test_j_inverse_series_doubles_the_guard(monkeypatch):
    # G starts at floor(log_2 40) + 2 = 7; b_32 = 2^8 * odd and v_2(32) = 5
    # need G >= 13, so one doubling to 14 pins every shift
    calls = spy_reversion(monkeypatch)
    ctx = new_ring(2, 12, 1)
    got = j_inverse_series(ctx, 40)
    assert calls == [(40, 2, 19), (40, 2, 26)]
    assert fields(got) == fields(exact_series(ctx, 40))


def test_j_inverse_series_falls_back_to_exact(monkeypatch):
    calls = spy_reversion(monkeypatch)
    monkeypatch.setattr(modular, "_MAX_GUARD", 7)
    ctx = new_ring(2, 12, 1)
    got = j_inverse_series(ctx, 40)
    assert calls == [(40, 2, 19), (40, None, 0)]
    assert fields(got) == fields(exact_series(ctx, 40))
