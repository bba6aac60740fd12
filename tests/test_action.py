import random
from fractions import Fraction

import pytest

from qcusp.action import (
    CuspPoint,
    Mat2,
    ProjPoint,
    TateSymbol,
    act_cusp,
    canonical_line,
    decompose_gamma,
    ht,
    proj_action,
    splitting_section,
    subgroup_test,
    tate_basis,
)
from qcusp.coeff import new_ring, zeta
from qcusp.errors import DomainError
from qcusp.series import from_terms, monomial, twist

from conftest import random_series


def random_gamma0p(rng: random.Random, p: int, m: int) -> Mat2:
    """A random element of the c = 0 mod p chart of GL_2(Z/p^m)."""
    pm = p**m
    while True:
        a = rng.randrange(pm)
        b = rng.randrange(pm)
        c = p * rng.randrange(pm // p)
        d = rng.randrange(pm)
        if (a * d - b * c) % p != 0:
            return Mat2(p, m, a, b, c, d)


def random_upper(rng: random.Random, p: int, m: int) -> Mat2:
    pm = p**m
    while True:
        a = rng.randrange(pm)
        d = rng.randrange(pm)
        if a % p and d % p:
            return Mat2(p, m, a, rng.randrange(pm), 0, d)


def random_cusp_point(rng: random.Random, ctx, m: int, e: int = 1) -> CuspPoint:
    series = random_series(rng, ctx, 2, min(ctx.s, m))
    return CuspPoint(random_upper(rng, ctx.p, m), series, e)


def test_mat_mul_example():
    g = Mat2(5, 2, 1, 0, 5, 1)
    assert (g * g).entries() == (1, 0, 10, 1)


def test_mat_rejects_singular():
    with pytest.raises(DomainError):
        Mat2(5, 2, 5, 0, 0, 5)


@pytest.mark.parametrize("p,m", [(4, 4), (1, 2), (9, 1), (5, 0), (2, -1)])
def test_mat_rejects_bad_modulus(p, m):
    # Z/p^m with p composite or m < 1 is not the group the action is defined on
    with pytest.raises(DomainError):
        Mat2(p, m, 3, 5, 0, 7)


def test_subgroup_tests():
    p, m = 5, 2
    assert subgroup_test(Mat2(p, m, 1, 1, 0, 1), "gamma0_inf")
    assert subgroup_test(Mat2(p, m, 1, 1, 5, 1), "gamma0", n=1)
    assert not subgroup_test(Mat2(p, m, 1, 1, 5, 1), "gamma0", n=2)
    swap = Mat2(p, m, 0, 1, 1, 0)
    assert not subgroup_test(swap, "anticanonical")
    assert subgroup_test(swap, "canonical")
    assert subgroup_test(Mat2(p, m, 1, 1, 0, 1), "anticanonical")
    with pytest.raises(ValueError):
        subgroup_test(swap, "gamma0")
    with pytest.raises(ValueError):
        subgroup_test(swap, "borel")


def test_decompose_examples():
    p, m = 5, 2
    upper = Mat2(p, m, 3, 2, 0, 7)
    u, h = decompose_gamma(upper)
    assert u == upper and h == 0
    g = Mat2(p, m, 1, 0, 5, 1)
    u, h = decompose_gamma(g)
    assert u.entries() == (1, 0, 0, 1) and h == 5
    g = Mat2(p, m, 2, 1, 5, 1)
    u, h = decompose_gamma(g)
    assert u.entries() == ((2 - 5) % 25, 1, 0, 1) and h == 5
    assert u * Mat2(p, m, 1, 0, h, 1) == g


def test_decompose_needs_unit_d():
    with pytest.raises(DomainError):
        decompose_gamma(Mat2(5, 2, 0, 1, 1, 5))


def test_decompose_random_recompose(rng):
    for p in (2, 3, 5):
        for _ in range(50):
            g = random_gamma0p(rng, p, 3)
            u, h = decompose_gamma(g)
            assert u.is_upper()
            assert u * Mat2(p, 3, 1, 0, h, 1) == g


def test_act_identity_fixes():
    ctx = new_ring(5, 6, 2)
    x = CuspPoint(Mat2.identity(5, 2), monomial(ctx, Fraction(1, 25), deg_bound=1, depth_bound=2), 1)
    assert act_cusp(Mat2.identity(5, 2), x) == x


def test_act_unipotent_twists_series():
    ctx = new_ring(5, 6, 2)
    x = CuspPoint(Mat2.identity(5, 2), monomial(ctx, Fraction(1, 25), deg_bound=1, depth_bound=2), 1)
    y = act_cusp(Mat2(5, 2, 1, 0, 5, 1), x)
    assert y.gamma == Mat2.identity(5, 2)
    assert y.series.coefficient(Fraction(1, 25)) == zeta(ctx, 2) ** ((-5) % 25)


def test_act_upper_no_twist():
    ctx = new_ring(5, 6, 2)
    f = from_terms(ctx, [(Fraction(1, 5), 2), (1, 1)], 2, 2)
    x = CuspPoint(Mat2.identity(5, 2), f, 1)
    g = Mat2(5, 2, 3, 2, 0, 7)
    y = act_cusp(g, x)
    assert y.gamma == g and y.series == f


def test_act_rejects_wrong_chart():
    ctx = new_ring(5, 6, 2)
    x = CuspPoint(Mat2.identity(5, 2), monomial(ctx, Fraction(1, 5), deg_bound=1, depth_bound=2), 1)
    with pytest.raises(DomainError):
        act_cusp(Mat2(5, 2, 0, 1, 1, 0), x)


@pytest.mark.parametrize("p", [2, 3])
def test_left_action_axiom(p, rng):
    ctx = new_ring(p, 6, 3)
    m = 4
    for _ in range(60):
        g1 = random_gamma0p(rng, p, m)
        g2 = random_gamma0p(rng, p, m)
        x = random_cusp_point(rng, ctx, m)
        assert act_cusp(g1, act_cusp(g2, x)) == act_cusp(g1 * g2, x)


@pytest.mark.parametrize("p", [2, 3])
def test_quotient_well_defined(p, rng):
    ctx = new_ring(p, 6, 3)
    m = 4
    for _ in range(40):
        x = random_cusp_point(rng, ctx, m)
        h = p * rng.randrange(p ** (m - 1))
        perturbed_gamma = x.gamma * Mat2(p, m, 1, 0, h, 1)
        perturbed = CuspPoint.from_representative(perturbed_gamma, twist(x.series, h, x.e), x.e)
        assert perturbed == x
        g1 = random_gamma0p(rng, p, m)
        assert act_cusp(g1, perturbed) == act_cusp(g1, x)


def test_ht_examples():
    ctx = new_ring(5, 6, 2)
    q = monomial(ctx, Fraction(1, 25), deg_bound=1, depth_bound=2)
    assert ht(CuspPoint(Mat2.identity(5, 2), q, 1)) == ProjPoint.make(5, 2, 0, 1)
    x = CuspPoint(Mat2(5, 2, 3, 4, 0, 7), q, 1)
    assert ht(x) == ProjPoint.make(5, 2, 4, 7)


def test_ht_ignores_series():
    ctx = new_ring(5, 6, 2)
    q = monomial(ctx, Fraction(1, 25), deg_bound=1, depth_bound=2)
    x = CuspPoint(Mat2(5, 2, 3, 4, 0, 7), q, 1)
    y = CuspPoint(Mat2(5, 2, 3, 4, 0, 7), twist(q, 3, 1), 1)
    assert ht(x) == ht(y)


def test_proj_action_examples():
    p, m = 5, 2
    pt = ProjPoint.make(p, m, 3, 7)
    assert proj_action(Mat2.identity(p, m), pt) == pt
    assert proj_action(Mat2(p, m, 0, 1, 1, 0), pt) == ProjPoint.make(p, m, 7, 3)
    assert proj_action(Mat2(p, m, 1, 0, 5, 1), pt) == ProjPoint.make(p, m, 3, 5 * 3 + 7)


def test_proj_point_normal_form():
    # (10 : 5) has both entries divisible by 5: not projective over Z/25
    with pytest.raises(DomainError):
        ProjPoint.make(5, 2, 10, 5)
    canonical = ProjPoint.make(5, 2, 5, 1)
    assert (canonical.x, canonical.y) == (5, 1)
    flipped = ProjPoint.make(5, 2, 1, 5)
    assert (flipped.x, flipped.y) == (1, 5)


def test_tate_symbol_pairing():
    g = Mat2(5, 2, 3, 4, 0, 7)
    e1, e2 = tate_basis(g)
    assert e1 == TateSymbol(5, 2, 7, 0)
    assert e2 == TateSymbol(5, 2, -4, 3)
    combo = e1.scaled(g.b) + e2.scaled(g.d)
    assert combo == TateSymbol(5, 2, 0, g.a * g.d)
    assert combo.is_canonical()


def test_canonical_line_matches_ht(rng):
    ctx = new_ring(3, 6, 2)
    for _ in range(100):
        g = random_upper(rng, 3, 4)
        x = CuspPoint(g, monomial(ctx, Fraction(1, 9), deg_bound=1, depth_bound=2), 1)
        assert canonical_line(g) == ht(x)


@pytest.mark.parametrize("p", [2, 3])
def test_ht_equivariance(p, rng):
    ctx = new_ring(p, 6, 3)
    for _ in range(60):
        g = random_gamma0p(rng, p, 4)
        x = random_cusp_point(rng, ctx, 4)
        assert ht(act_cusp(g, x)) == proj_action(g, ht(x))


def test_splitting_section():
    p, m = 5, 2
    sec = splitting_section(3, p, m)
    assert sec.entries() == (3, 0, 0, pow(3, -1, 25))
    assert splitting_section(1, p, m) == Mat2.identity(p, m)
    with pytest.raises(DomainError):
        splitting_section(5, p, m)
    # projection to the lower-right entry inverts a
    for a in (2, 3, 7, 11):
        assert splitting_section(a, p, m).d == pow(a, -1, 25)
    # period map sends the section to the origin of the chart
    ctx = new_ring(5, 6, 2)
    q = monomial(ctx, Fraction(1, 5), deg_bound=1, depth_bound=2)
    assert ht(CuspPoint(sec, q, 1)) == ProjPoint.make(5, 2, 0, 1)


def test_splitting_section_stays_in_diagonal_coset(rng):
    # acting by an upper-triangular matrix keeps the image inside the
    # upper-triangular chart with the same period image behaviour
    p, m = 3, 3
    ctx = new_ring(3, 6, 2)
    q = monomial(ctx, Fraction(1, 3), deg_bound=1, depth_bound=2)
    for a in (1, 2, 4, 5, 7, 8):
        x = CuspPoint(splitting_section(a, p, m), q, 1)
        g = random_upper(rng, p, m)
        y = act_cusp(g, x)
        assert y.gamma.is_upper()
        assert ht(y) == proj_action(g, ProjPoint.make(p, m, 0, 1))
