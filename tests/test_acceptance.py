"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact equality at the stated precision; randomized checks use
fixed seeds. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from qcusp.action import (
    CuspPoint,
    Mat2,
    ProjPoint,
    TateSymbol,
    act_cusp,
    canonical_line,
    ht,
    proj_action,
    tate_basis,
)
from qcusp.coeff import CycloCoeff, new_ring
from qcusp.modular import delta_series, j_coefficients, j_inverse_coefficients, j_series, one_over_j_coefficients
from qcusp.principles import Verdict, detect_level, extends_to_cusp, is_integral
from qcusp.series import from_terms, monomial, twist
from qcusp.tiltperf import (
    TiltTower,
    charp_from_terms,
    frobenius,
    frobenius_inv,
    sharp,
    tower_from_charp,
    tower_mul,
)
from qcusp.trace import galois_average, tate_trace
from qcusp.valuation import Rank2Value, classify_point, in_Fplus, v1minus

from conftest import random_series
from test_action import random_cusp_point, random_gamma0p, random_upper
from test_cli import CASES, run_text
from test_modular import oracle_j_coefficients
from test_tiltperf import random_charp
from test_valuation import random_laurent


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def test_criterion_1_j_series_golden():
    with criterion(1, "j-series golden coefficients"):
        jc = j_coefficients(12)
        assert jc[0] == 1
        assert jc[1] == 744
        assert jc[2] == 196884
        assert jc[3] == oracle_j_coefficients(12)[3]
        ctx = new_ring(2, 6, 0)
        js = j_series(ctx, 12)
        assert js.coefficient(-1) == CycloCoeff.one(ctx)
        assert js.coefficient(0) == CycloCoeff.from_int(ctx, 744)
        assert js.coefficient(1) == CycloCoeff.from_int(ctx, 196884)


def test_criterion_2_reversion_golden():
    with criterion(2, "reversion golden coefficients and composition"):
        b = j_inverse_coefficients(10)
        assert b[0] == 1 and b[1] == 744 and b[2] == 750420
        # 1/j(q(w)) = w exactly through w^10, over the integers
        n = 10
        u = one_over_j_coefficients(n)
        bb = [0] + b
        comp = [0] * (n + 1)
        gpow = [0] * (n + 1)
        gpow[0] = 1
        for i in range(1, n + 1):
            nxt = [0] * (n + 1)
            for a, ga in enumerate(gpow):
                if ga:
                    for d in range(1, n + 1 - a):
                        nxt[a + d] += ga * bb[d]
            gpow = nxt
            for d in range(n + 1):
                comp[d] += u[i - 1] * gpow[d]
        assert comp == [0, 1] + [0] * (n - 1)


def _trace_sample():
    """The shared 200-series sample per prime used by criteria 3 and 4."""
    rng = random.Random(301)
    for p in (2, 3, 5):
        ctx = new_ring(p, 6, 3)
        for _ in range(200):
            yield ctx, random_series(rng, ctx, 3, 3, coeff_entries=2)


def test_criterion_3_trace_oracle_equivalence():
    with criterion(3, "Galois average equals the lattice projection"):
        for ctx, f in _trace_sample():
            for n in (0, 1, 2):
                tr = tate_trace(f, n)
                for e in (1, 5):
                    if e % ctx.p == 0:
                        continue  # e must stay prime to p
                    av = galois_average(f, 3, n, e)
                    assert av.equals_mod(tr, ctx.k - (3 - n))


def test_criterion_4_trace_algebra():
    with criterion(4, "trace idempotence, composition and fixed points"):
        for _, f in _trace_sample():
            for m in range(4):
                for n in range(4):
                    assert tate_trace(tate_trace(f, m), n) == tate_trace(f, min(m, n))
            level = detect_level(f)
            for n in range(4):
                assert (tate_trace(f, n) == f) == (level <= n)


def test_criterion_5_action_axioms():
    with criterion(5, "group action axioms and quotient invariance"):
        rng = random.Random(501)
        for p in (2, 3):
            ctx = new_ring(p, 6, 3)
            m = 4
            for _ in range(300):
                g1 = random_gamma0p(rng, p, m)
                g2 = random_gamma0p(rng, p, m)
                x = random_cusp_point(rng, ctx, m)
                assert act_cusp(g1, act_cusp(g2, x)) == act_cusp(g1 * g2, x)
            for _ in range(100):
                x = random_cusp_point(rng, ctx, m)
                h = p * rng.randrange(p ** (m - 1))
                rep = x.gamma * Mat2(p, m, 1, 0, h, 1)
                perturbed = CuspPoint.from_representative(rep, twist(x.series, h, x.e), x.e)
                assert perturbed == x
                g1 = random_gamma0p(rng, p, m)
                assert act_cusp(g1, perturbed) == act_cusp(g1, x)


def test_criterion_6_hodge_tate_consistency():
    with criterion(6, "period map, canonical-line oracle and equivariance"):
        rng = random.Random(601)
        p, m = 3, 4
        ctx = new_ring(p, 6, 3)
        for _ in range(200):
            g = random_upper(rng, p, m)
            x = CuspPoint(g, monomial(ctx, Fraction(1, p**3), deg_bound=1, depth_bound=3), 1)
            assert ht(x) == ProjPoint.make(p, m, g.b, g.d)
            assert canonical_line(g) == ht(x)
            e1, e2 = tate_basis(g)
            assert e1.scaled(g.b) + e2.scaled(g.d) == TateSymbol(p, m, 0, g.a * g.d)
            # the period image does not see the expansion component
            twisted = CuspPoint(g, twist(x.series, rng.randrange(81), 1), 1)
            assert ht(twisted) == ht(x)
        for _ in range(200):
            g = random_gamma0p(rng, p, m)
            x = random_cusp_point(rng, ctx, m)
            assert ht(act_cusp(g, x)) == proj_action(g, ht(x))


def test_criterion_7_principle_deciders():
    with criterion(7, "principle deciders round-trip"):
        ctx = new_ring(2, 6, 3)
        for n in range(4):
            f = from_terms(
                ctx,
                [(Fraction(3, 2**r), 1) for r in range(n + 1)],
                4, 3,
            )
            assert detect_level(f) == n
            if n < 3:
                deeper = f + monomial(ctx, Fraction(1, 2 ** (n + 1)), deg_bound=4, depth_bound=3)
                assert detect_level(deeper) == n + 1
        j = j_series(ctx, 8)
        assert extends_to_cusp(j).verdict is Verdict.NO
        assert extends_to_cusp(delta_series(ctx, 8)).verdict is Verdict.YES
        bad = from_terms(ctx, [(1, CycloCoeff.one(ctx).p_times(-1))], 2, 0)
        assert is_integral(bad).verdict is Verdict.NO
        rng = random.Random(701)
        for _ in range(50):
            f = random_series(rng, ctx, 4, 3)  # integer (in fact unit) coefficients
            assert is_integral(f).verdict is Verdict.YES


def test_criterion_8_tilting_perfection():
    with criterion(8, "tilting tower, sharp and Frobenius round-trips"):
        rng = random.Random(801)
        q = charp_from_terms(2, [(1, 1)], 8, 6)
        tower = tower_from_charp(q, 6)
        TiltTower(tower.components)  # revalidates the compatibility
        assert sharp(tower) == q
        for i, comp in enumerate(tower.components):
            assert comp.items() == [(Fraction(1, 2**i), 1)]
        for p in (2, 3):
            for _ in range(50):
                g = random_charp(rng, p, headroom=8)
                t = tower_from_charp(g, 5)
                assert sharp(t) == g
                assert tower_from_charp(sharp(t), 5) == t
                assert frobenius_inv(frobenius(g)) == g
                assert frobenius(frobenius_inv(g)) == g
        for _ in range(100):
            x = tower_from_charp(random_charp(rng, 2, headroom=8), 4)
            y = tower_from_charp(random_charp(rng, 2, headroom=8), 4)
            assert sharp(tower_mul(x, y)) == sharp(x) * sharp(y)


def test_criterion_9_rank2_valuation_example():
    with criterion(9, "rank-2 valuation of the j-expansion"):
        from qcusp.series import scale_exponents

        ctx = new_ring(7, 6, 0)
        for e in (1, 2, 3):
            js = scale_exponents(j_series(ctx, 6), e)
            val = v1minus(js)
            assert val == Rank2Value(Fraction(0), -e)
            assert val.generize() == 0
            assert classify_point(val) == "c"
        rng = random.Random(901)
        from qcusp.coeff import val_p

        for _ in range(100):
            f = random_laurent(rng, ctx)
            explicit = all(
                (val_p(c) > 0 if mm < 0 else val_p(c) >= 0) for mm, c in f.items()
            )
            assert in_Fplus(f) == explicit


def test_criterion_10_two_completions_witness():
    with criterion(10, "unbounded depth growth of the witness element"):
        ctx = new_ring(2, 4, 0)
        levels = []
        for n_max in range(2, 7):
            witness = from_terms(
                ctx,
                [(Fraction(n * 2**n + 1, 2**n), 1) for n in range(1, n_max + 1)],
                n_max + 1,
                n_max,
            )
            levels.append(detect_level(witness))
        assert levels == sorted(levels)
        assert all(b > a for a, b in zip(levels, levels[1:]))
        assert levels == [2, 3, 4, 5, 6]


def test_criterion_11_cli_determinism():
    with criterion(11, "CLI golden files, byte-determinism"):
        import random as _random

        for argv, golden, expected_code in CASES:
            from test_cli import GOLDEN

            code, text = run_text(argv)
            assert code == expected_code
            assert text == (GOLDEN / golden).read_text()
            code2, text2 = run_text(argv)
            assert (code, text) == (code2, text2)
        # term-insertion order must not leak into the bytes
        from qcusp.fileformat import emit_series

        ctx = new_ring(2, 6, 3)
        pairs = [(Fraction(3), 5), (Fraction(1, 2), 3), (Fraction(1), 7), (Fraction(1, 8), 1)]
        rng = _random.Random(1101)
        reference = emit_series(from_terms(ctx, pairs, 4, 3))
        for _ in range(5):
            rng.shuffle(pairs)
            assert emit_series(from_terms(ctx, pairs, 4, 3)) == reference
