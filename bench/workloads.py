"""Seeded inputs, jobs and output checks for the three benchmark workloads.

A workload is a fixed schedule of slots; a slot is one job kind at one size
with a small pool of seeded inputs. Round r runs every slot once, on input
r mod POOL, so the mix of kinds and sizes in a run does not depend on the
seed or on how many rounds fit; the seed only draws the values.

Building a workload generates the inputs only. Expected outputs come from
the oracles on first check, outside set-up and outside the timed jobs.

Jobs reach the library through module attributes (``series.revert``, not a
name imported here) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable

import oracle as O
from qcusp import action, cli, coeff, fileformat, modular, principles, series, tiltperf, trace

POOL = 3  # seeded inputs per slot; one traced replay covers each once
PRIMES = (2, 3, 5, 7)

# layers whose summed self time the traced run should find above every other layer
PREDICTED_LAYER = {
    "modular-int": ("modular",),
    "series-sparse": ("series", "tiltperf"),
    "cyclo-dense": ("coeff",),
}


@dataclass
class Job:
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


@dataclass
class Slot:
    kind: str
    size: str
    jobs: list[Job] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    slots: list[Slot]

    def round(self, r: int) -> list[Job]:
        return [slot.jobs[r % len(slot.jobs)] for slot in self.slots]

    def warmups(self) -> list[Job]:
        """The first input of the first slot of each kind."""
        seen: dict[str, Job] = {}
        for slot in self.slots:
            seen.setdefault(slot.kind, slot.jobs[0])
        return list(seen.values())

    def sizes(self) -> list[str]:
        return [f"{slot.kind}:{slot.size}" for slot in self.slots]


def _cli(argv: list[str], stdin_text: str | None = None):
    """Run one subcommand in-process; an input file travels as stdin text so
    no file is touched."""
    out = io.StringIO()
    if stdin_text is None:
        return cli.run(argv, out=out), out.getvalue()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        return cli.run(argv + ["-"], out=out), out.getvalue()
    finally:
        sys.stdin = saved


def _expect_cli(code: int, expect: Callable[[], str]):
    """Check the exit code and the output bytes against oracle text."""
    expect = cache(expect)

    def check(result):
        got_code, got = result
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if got != expect():
            return f"output differs from the oracle bytes ({len(got)} bytes, expected {len(expect())})"
        return None

    return check


def _check_with(make_exact: Callable[[], object], compare: Callable[[object, object], str | None]):
    exact = cache(make_exact)
    return lambda got: compare(got, exact())


# -- exact data ------------------------------------------------------------------------


def _unit_poly(rng: random.Random, p: int, k: int, phi: int, dense: bool = True) -> list[int]:
    """A canonical unit part: entries in [0, p^k), value at x = 1 prime to p
    (a unit of Z_p[zeta]); a sparse one has only its constant entry."""
    pk = p**k
    poly = [rng.randrange(pk) for _ in range(phi)] if dense else [0] * phi
    poly[0] = rng.randrange(1, pk)
    while sum(poly) % p == 0:
        poly[0] = (poly[0] + 1) % pk
    return poly


def _ramified_poly(rng: random.Random, p: int, k: int, s: int) -> list[int]:
    """pi^i * unit for pi = zeta - 1 and 0 <= i < phi, canonical mod p^k."""
    phi = O.phi_of(p, s)
    poly = _unit_poly(rng, p, k, phi)
    for _ in range(rng.randrange(phi)):
        poly = O.mul_cyclo(poly, [-1, 1], p, s)
    return [v % p**k for v in poly]


def _lattice(rng: random.Random, p: int, n: int, depth: int, lo: int) -> tuple[list[Fraction], int]:
    """n distinct exponents j/p^depth (in lowest terms) from [lo, deg], with
    deg the returned integer degree bound."""
    den = p**depth
    deg = lo + int(1.5 * n / den) + 2
    nums = rng.sample(range(lo * den, deg * den + 1), n)
    return sorted(Fraction(j, den) for j in nums), deg


def _int_exact(pairs: dict, phi: int) -> dict:
    """{m: integer} as exact {m: (poly, shift)} values."""
    return {Fraction(m): ([c] + [0] * (phi - 1), 0) for m, c in pairs.items() if c}


def _exact_add(x, y, p: int):
    (pa, ta), (pb, tb) = x, y
    t = min(ta, tb)
    return [a * p ** (ta - t) + b * p ** (tb - t) for a, b in zip(pa, pb)], t


def _product_exact(fx: dict, gx: dict, deg, p: int, s: int) -> dict:
    out: dict = {}
    for m1, (pa, ta) in fx.items():
        for m2, (pb, tb) in gx.items():
            m = m1 + m2
            if m <= deg:
                xy = O.mul_cyclo(pa, pb, p, s), ta + tb
                out[m] = _exact_add(out[m], xy, p) if m in out else xy
    return out


def _vanishes(x, p: int, k: int) -> bool:
    """Exact value divisible by p^k, the absolute precision of integral inputs."""
    poly, t = x
    need = k - t
    return need <= 0 or all(v % p**need == 0 for v in poly)


def check_series(got, exact: dict, deg, p: int, k: int, upto: int | None = None) -> str | None:
    """Every reported term must match the exact value at the precision the
    library claims for it, up to p^upto when given; a term the library
    dropped must vanish mod p^k."""
    if got.deg_bound != deg:
        return f"degree bound {got.deg_bound}, expected {deg}"
    zero = ([0] * got.ctx.phi, 0)
    reported = dict(got.items())
    for m, c in reported.items():
        err = O.claim_error(c, exact.get(m, zero), p, upto)
        if err:
            return f"q^{m}: {err}"
    for m, x in exact.items():
        if m not in reported and m <= deg and not _vanishes(x, p, k):
            return f"q^{m}: term missing, exact value has valuation below {k}"
    return None


def _file(p, k, s, depth, deg, laurent, terms: dict, label="", e=1) -> str:
    lines = [f"{O.format_exponent(m, p)} : {O.format_coeff(t, poly)}" for m, (poly, t) in sorted(terms.items())]
    return O.series_text(O.header(p, k, s, depth, deg, laurent, label, e), lines)


# -- modular-int ---------------------------------------------------------------------


def _tate_check(t: int, p: int, s: int):
    def check(q):
        if q.is_zero():
            return "Tate parameter is zero"
        v = O.valuation(q.shift, list(q.unit), p, s)
        return None if v == t else f"val_p(q_E) = {v}, expected -val_p(j) = {t}"

    return check


def modular_int(rng: random.Random, smoke: bool, J: O.IntegerJ) -> list[Slot]:
    slots = []
    for n in (12, 20) if smoke else (30, 50, 70, 100):
        for kind in ("jseries", "revert-j"):
            p, s = PRIMES[len(slots) % 4], len(slots) % 3
            slot = Slot(kind, f"p={p},s={s},terms={n}")
            for _ in range(POOL):
                k = rng.randint(4, 10)
                argv = [kind, "--p", str(p), "--k", str(k), "--s", str(s), "--terms", str(n)]
                if kind == "jseries":
                    expect = lambda p=p, k=k, s=s, n=n: O.int_series_text(p, k, s, J.j(n), -1, True)
                else:
                    expect = lambda p=p, k=k, s=s, n=n: O.int_series_text(p, k, s, [0] + J.reversion(n), 0, False)
                slot.jobs.append(Job(lambda argv=argv: _cli(argv), _expect_cli(0, expect)))
            slots.append(slot)
    for n in (40,) if smoke else (200, 300, 400):
        slot = Slot("j_coefficients", f"terms={n}")
        for _ in range(POOL):
            check = lambda got, n=n: None if got == J.j(n) else "differs from the E4^3/Delta oracle"
            slot.jobs.append(Job(lambda n=n: modular.j_coefficients(n), check))
        slots.append(slot)
    for i in range(2 if smoke else 8):
        p, s = PRIMES[i % 4], i % 2
        slot = Slot("tate", f"p={p},s={s}")
        for _ in range(POOL):
            k, t = rng.randint(4, 10), rng.randint(1, 3)
            ctx = coeff.new_ring(p, k, s)
            jval = coeff.CycloCoeff.from_poly(ctx, _unit_poly(rng, p, k, ctx.phi), -t)
            slot.jobs.append(Job(lambda jval=jval: modular.tate_parameter_from_j(jval), _tate_check(t, p, s)))
        slots.append(slot)
    return slots


# -- series-sparse -------------------------------------------------------------------


# phi = 1 (s = 0, or p = 2 with s = 1) or a small phi = p - 1
SPARSE_RINGS = ((2, 0), (3, 1), (5, 0), (7, 0), (2, 1), (3, 0), (5, 1))


def _sparse_terms(rng, p, k, phi, exps, shifts=(0, 0, 0, 1, 2)) -> dict:
    return {m: (_unit_poly(rng, p, k, phi, dense=False), rng.choice(shifts)) for m in exps}


def _verdict(verdict: str, witness=None, note: str = "", p: int = 2) -> tuple[int, Callable[[], str]]:
    def text():
        out = f"verdict {verdict}\n"
        if witness is not None:
            m, (poly, t) = witness
            out += f"witness {O.format_exponent(m, p)} : {O.format_coeff(t, poly)}\n"
        return out + (f"note {note}\n" if note else "")

    return {"yes": 0, "no": 1}[verdict], text


def _file_job(rng, kind: str, n: int, i: int) -> Job:
    p, s = SPARSE_RINGS[i % len(SPARSE_RINGS)]
    k = rng.randint(4, 8)
    phi = O.phi_of(p, s)
    label = rng.choice(("", "inf", "c0"))
    e = rng.choice([v for v in (1, 2, 3, 5, 7) if v % p])
    if kind == "classify-point":
        exps, deg = _lattice(rng, p, n, 0, -rng.randint(1, 5))
        shifts = rng.choice(((-1, 0, 1), (0, 1, 2), (0, 0, 1)))
        terms = {m: (_ramified_poly(rng, p, k, s), rng.choice(shifts)) for m in exps}
        text = _file(p, k, s, 0, deg, True, terms, label, e)

        def expect():
            v, g = min((O.valuation(t, poly, p, s), int(m)) for m, (poly, t) in terms.items())
            typ = "b" if v < 0 else "c" if v == 0 and g < 0 else "a"
            return f"type {typ}\nv1minus {v} {g}\ngenerise {v}\n"

        return Job(lambda: _cli([kind], text), _expect_cli(0, expect))
    depth = 1 + i % 3
    if kind == "check-extends":
        exps, deg = _lattice(rng, p, n, depth, -rng.randint(1, 3))
        terms = _sparse_terms(rng, p, k, phi, exps)
        poles = [m for m in exps if m < 0]
        for m in poles:  # poles that vanish at precision p^k
            terms[m] = (terms[m][0], k + rng.randint(0, 2))
        if poles and rng.random() < 0.4:
            m = rng.choice(poles)
            terms[m] = (terms[m][0], rng.randint(-1, k - 1))
            expect = _verdict("no", (m, terms[m]), p=p)
        else:
            expect = _verdict("yes", note=f"{len(poles)} pole coefficient(s) vanish at precision p^{k}" if poles else "")
        text = _file(p, k, s, depth, deg, True, terms, label, e)
        return Job(lambda: _cli([kind], text), _expect_cli(*expect))
    exps, deg = _lattice(rng, p, n, depth, 0)
    terms = _sparse_terms(rng, p, k, phi, exps)
    if kind == "integral":
        bad = sorted(rng.sample(exps, rng.choice((0, 1, 3))))
        for m in bad:
            terms[m] = (terms[m][0], -rng.randint(1, 3))
        expect = _verdict("no", (bad[0], terms[bad[0]]), p=p) if bad else _verdict("yes")
        text = _file(p, k, s, depth, deg, False, terms, label, e)
        return Job(lambda: _cli([kind], text), _expect_cli(*expect))
    text = _file(p, k, s, depth, deg, False, terms, label, e)
    if kind == "level":
        return Job(lambda: _cli([kind], text), _expect_cli(0, lambda: f"{max(O.exp_depth(m, p) for m in terms)}\n"))
    if kind == "trace":
        n_to = rng.randint(0, depth - 1)
        kept = lambda: {m: v for m, v in terms.items() if O.exp_depth(m, p) <= n_to}
        argv = ["trace", "--n", str(n_to)]
        return Job(lambda: _cli(argv, text), _expect_cli(0, lambda: _file(p, k, s, n_to, deg, False, kept(), label, e)))
    if kind == "roundtrip":
        run = lambda: fileformat.emit_series(fileformat.parse_series(text), label, e)
        return Job(run, lambda got: None if got == text else "parse then emit does not reproduce the file")
    raise ValueError(kind)


def _zero_test_job(rng, n: int, i: int) -> Job:
    """zero_test(f - g) for g equal to f, g visibly different from f, or f
    with an extra term that is nonzero but vanishes mod p^k."""
    p, k = PRIMES[i % 4], rng.randint(4, 8)
    exps, deg = _lattice(rng, p, n, i % 3, 0)
    a = {m: (rng.randrange(1, p**k) * rng.choice((1, 1, p)), rng.randint(-2, 2)) for m in exps}
    b = dict(a)
    case = rng.choice(("equal", "visible", "beyond"))
    if case == "visible":
        m = rng.choice(exps)
        c, t = b[m]
        b[m] = (c + rng.randrange(1, p) * p ** rng.randint(0, k - 3), t)
    elif case == "beyond":
        deg += 1
        a[Fraction(deg)] = (rng.randrange(1, p) * p ** (k + 1), 0)

    def build(kk):
        ctx = coeff.new_ring(p, kk, 0)
        make = lambda d: series.FracSeries(
            ctx, {m: coeff.CycloCoeff.from_int(ctx, c, t) for m, (c, t) in d.items()}, deg, 2, False)
        return make(a), make(b)

    f, g = build(k)

    def check(verdict):
        hi_f, hi_g = build(k + 6)
        hi = principles.zero_test(hi_f - hi_g).verdict
        lo = verdict.verdict
        unknown = principles.Verdict.UNKNOWN
        if unknown not in (lo, hi) and lo is not hi:
            return f"verdict {lo.value} at k={k} contradicted by {hi.value} at k={k + 6}"
        return None

    return Job(lambda: principles.zero_test(f - g), check)


def _jmul_job(rng, n: int, other: str, J: O.IntegerJ, i: int) -> Job:
    p, k = PRIMES[i % 4], rng.randint(4, 8)
    ctx = coeff.new_ring(p, k, 0)
    f = modular.j_series(ctx, n)
    if other == "j":
        g, gi = f, None
    else:
        exps, dg = _lattice(rng, p, n, 1 + i % 2, 0)
        gi = {m: rng.randrange(-p**k, p**k) * p ** rng.choice((0, 0, 1)) for m in exps}
        g = series.from_terms(ctx, gi.items(), dg, 2)
    deg = O.mul_deg(f.exponents(), f.deg_bound, g.exponents(), g.deg_bound)

    def exact():
        fx = _int_exact({j - 1: c for j, c in enumerate(J.j(n))}, 1)
        return _product_exact(fx, fx if gi is None else _int_exact(gi, 1), deg, p, 0)

    return Job(lambda: f * g, _check_with(exact, lambda got, x: check_series(got, x, deg, p, k, k)))


def _random_ints(rng, p: int, k: int, n: int) -> list[int]:
    return [rng.randrange(-p**k, p**k) * p ** rng.choice((0, 0, 1, 2)) for _ in range(n)]


def _revert_job(rng, n: int, i: int) -> Job:
    p, k = PRIMES[i % 4], rng.randint(4, 8)
    ctx = coeff.new_ring(p, k, 0)
    c1 = rng.choice([v for v in range(1, 4 * p) if v % p])
    f = series.from_terms(ctx, [(1, c1)] + list(enumerate(_random_ints(rng, p, k, n - 1), start=2)), n, 0)

    def check(g):
        """compose(f, revert(f)) = q at precision p^k."""
        if g.deg_bound != n:
            return f"degree bound {g.deg_bound}, expected {n}"
        for m, c in series.compose(f, g).items():
            if m == 1 and c == coeff.CycloCoeff.one(ctx):
                continue
            if c.shift < k:
                return f"compose(f, revert(f)) has the term {c!r} q^{m}"
        return None

    return Job(lambda: series.revert(f), check)


def _compose_job(rng, n: int, i: int) -> Job:
    p, k = PRIMES[i % 4], rng.randint(4, 8)
    ctx = coeff.new_ring(p, k, 0)
    fo = _random_ints(rng, p, k, n + 1)
    gi = [0] + _random_ints(rng, p, k, n)
    f = series.from_terms(ctx, [(j, c) for j, c in enumerate(fo) if c], n, 0)
    g = series.from_terms(ctx, [(j, c) for j, c in enumerate(gi) if c], n, 0)
    exact = lambda: _int_exact(dict(enumerate(O.compose_int(fo, gi, n))), 1)
    return Job(lambda: series.compose(f, g), _check_with(exact, lambda got, x: check_series(got, x, n, p, k, k)))


def _charp(rng, p: int, n: int) -> tuple[dict, int]:
    exps, deg = _lattice(rng, p, n, 1, 0)
    return {m: rng.randrange(1, p) for m in exps}, deg


def _charp_file(p, depth, deg, terms: dict, label="") -> str:
    lines = [f"{O.format_exponent(m, p)} : {c}" for m, c in sorted(terms.items())]
    return O.series_text(O.header(p, 1, 0, depth, deg, False, label, 1, mode="charp"), lines)


def _roots(terms: dict, deg, depth: int, p: int) -> list[tuple[dict, object]]:
    """Components i = 0..depth-1 of the tower of p^i-th roots."""
    return [({m / p**i: c for m, c in terms.items()}, Fraction(deg) / p**i) for i in range(depth)]


def _check_tower(tower, comps: list[tuple[dict, object]], p: int) -> str | None:
    if len(tower.components) != len(comps):
        return "tower depth changed"
    for i, (c, (terms, deg)) in enumerate(zip(tower.components, comps)):
        if dict(c.items()) != terms or c.deg_bound != deg:
            return f"component {i} differs from the oracle"
    for i in range(len(comps) - 1):
        if {m * p: c for m, c in tower.components[i + 1].items()} != dict(tower.components[i].items()):
            return f"component {i + 1} to the p-th power is not component {i}"
    return None


def _charp_job(rng, kind: str, n: int, depth: int, i: int) -> Job:
    p = PRIMES[i % 3]
    terms, deg = _charp(rng, p, n)
    room = 1 + depth  # depth bound with room for depth - 1 p-th roots
    label = rng.choice(("", "tilted"))
    text = _charp_file(p, room, deg, terms, label)
    if kind == "tilt":
        expect = lambda: f"tower {depth}\n" + "".join(
            f"component {j}\n" + _charp_file(p, room, d, t, label) for j, (t, d) in enumerate(_roots(terms, deg, depth, p)))
        return Job(lambda: _cli(["tilt", "--depth", str(depth)], text), _expect_cli(0, expect))
    if kind == "perfection":
        expect = lambda: _charp_file(p, room + depth, Fraction(deg) / p**depth, {m / p**depth: c for m, c in terms.items()}, label)
        return Job(lambda: _cli(["perfection", "--iterations", str(depth)], text), _expect_cli(0, expect))
    other, dego = _charp(rng, p, n)
    x = tiltperf.tower_from_charp(tiltperf.CharPSeries(p, terms, deg, room), depth)
    y = tiltperf.tower_from_charp(tiltperf.CharPSeries(p, other, dego, room), depth)
    pairs = lambda: zip(_roots(terms, deg, depth, p), _roots(other, dego, depth, p))
    if kind == "tower_mul":
        comps = lambda: [O.charp_mul(a, da, b, db, p) for (a, da), (b, db) in pairs()]
        return Job(lambda: tiltperf.tower_mul(x, y), _check_with(comps, lambda got, c: _check_tower(got, c, p)))
    comps = lambda: [(O.charp_add(a, b, min(da, db), p), min(da, db)) for (a, da), (b, db) in pairs()]
    return Job(lambda: tiltperf.tower_add(x, y), _check_with(comps, lambda got, c: _check_tower(got, c, p)))


def series_sparse(rng: random.Random, smoke: bool, J: O.IntegerJ) -> list[Slot]:
    """The prime, ring and exponent depth of a slot follow from its position
    in the schedule, so the seed changes values but not the cost structure."""
    specs: list[tuple[str, str, Callable[[int], Job]]] = []
    add = lambda kind, size, make: specs.append((kind, size, make))
    files = ("check-extends", "integral", "level", "trace", "classify-point", "roundtrip")
    if smoke:
        add("j_series*", "j20*j20", lambda i: _jmul_job(rng, 20, "j", J, i))
        add("revert", "terms=6", lambda i: _revert_job(rng, 6, i))
        add("compose", "terms=6", lambda i: _compose_job(rng, 6, i))
        for kind in files:
            add(kind, "terms=20", lambda i, kind=kind: _file_job(rng, kind, 20, i))
        add("zero_test", "terms=20", lambda i: _zero_test_job(rng, 20, i))
        for kind in ("tilt", "perfection", "tower_mul", "tower_add"):
            add(kind, "terms=10,depth=3", lambda i, kind=kind: _charp_job(rng, kind, 10, 3, i))
    else:
        add("j_series*", "j100*j100", lambda i: _jmul_job(rng, 100, "j", J, i))
        add("j_series*", "j150*frac150", lambda i: _jmul_job(rng, 150, "frac", J, i))
        for n in (15, 20):
            add("revert", f"terms={n}", lambda i, n=n: _revert_job(rng, n, i))
        for n in (15, 20, 30):
            add("compose", f"terms={n}", lambda i, n=n: _compose_job(rng, n, i))
        sizes = {"check-extends": (120, 250), "integral": (120, 250), "level": (150, 300),
                 "trace": (150, 300), "classify-point": (100, 200), "roundtrip": (200, 300)}
        for kind in files:
            for n in sizes[kind]:
                add(kind, f"terms={n}", lambda i, kind=kind, n=n: _file_job(rng, kind, n, i))
        for n in (100, 200, 300):
            add("zero_test", f"terms={n}", lambda i, n=n: _zero_test_job(rng, n, i))
        add("tilt", "terms=150,depth=8", lambda i: _charp_job(rng, "tilt", 150, 8, i))
        add("perfection", "terms=300,depth=3", lambda i: _charp_job(rng, "perfection", 300, 3, i))
        add("tower_mul", "terms=60,depth=8", lambda i: _charp_job(rng, "tower_mul", 60, 8, i))
        add("tower_mul", "terms=120,depth=4", lambda i: _charp_job(rng, "tower_mul", 120, 4, i))
        add("tower_add", "terms=200,depth=8", lambda i: _charp_job(rng, "tower_add", 200, 8, i))
    return [Slot(kind, size, [make(i) for _ in range(POOL)]) for i, (kind, size, make) in enumerate(specs)]


# -- cyclo-dense ---------------------------------------------------------------------

CYCLO_RINGS = ((2, 4), (3, 4), (5, 3), (7, 2))  # phi = 8, 54, 100, 42
GALOIS_LEVELS = {2: (4, 1), 3: (4, 2), 5: (3, 1), 7: (2, 0)}  # (source depth, target level)
MUL_TERMS = {2: 8, 3: 4, 5: 3, 7: 5}  # terms per factor of a product, fewer where phi is large


def _dense_series(rng, ctx, n: int, depth: int):
    """A series with n dense integral terms at exponents in [0, 1) and degree
    bound 2, so that a product keeps every pair; and its exact terms."""
    p = ctx.p
    exps = sorted(Fraction(j, p**depth) for j in rng.sample(range(p**depth), n))
    terms = {m: (_unit_poly(rng, p, ctx.k, ctx.phi), rng.choice((0, 0, 1))) for m in exps}
    pairs = {m: coeff.CycloCoeff.from_poly(ctx, poly, t) for m, (poly, t) in terms.items()}
    return series.FracSeries(ctx, pairs, 2, depth, False), terms, 2


def _twist_exact(terms: dict, h: int, e: int, p: int, s: int, k: int) -> dict:
    """q^(1/p^r) -> zeta_{p^r}^(h/e) q^(1/p^r) on exact terms, reduced mod p^k."""
    out = {}
    for m, (poly, t) in terms.items():
        r = O.exp_depth(m, p)
        if r:
            pr = p**r
            expo = (h * pow(e, -1, pr) * m.numerator % pr) * p ** (s - r)
            poly = [v % p**k for v in O.rotate_cyclo(poly, expo, p, s)]
        out[m] = (poly, t)
    return out


def _gamma0(rng, p: int, m: int) -> tuple[int, int, int, int]:
    """Entries of a matrix in Gamma_0(p) mod p^m."""
    pm = p**m
    unit = lambda: rng.choice([v for v in range(1, min(pm, 60)) if v % p])
    return unit(), rng.randrange(pm), p * rng.randrange(pm // p), unit()


def _proj(p: int, m: int, b: int, d: int) -> tuple[int, int]:
    pm = p**m
    if d % p:
        return (b * pow(d, -1, pm)) % pm, 1
    return 1, (d * pow(b, -1, pm)) % pm


def _cyclo_job(rng, ctx, kind: str, n: int) -> Job:
    p, s, k = ctx.p, ctx.s, ctx.k
    if kind == "mul":
        f, fx, _ = _dense_series(rng, ctx, n, s)
        g, gx, _ = _dense_series(rng, ctx, n, s)
        deg = O.mul_deg(f.exponents(), f.deg_bound, g.exponents(), g.deg_bound)
        exact = lambda: _product_exact(fx, gx, deg, p, s)
        return Job(lambda: f * g, _check_with(exact, lambda got, x: check_series(got, x, deg, p, k, k)))
    if kind == "inv":
        poly, t = _unit_poly(rng, p, k, ctx.phi), rng.randint(-2, 2)
        a = coeff.CycloCoeff.from_poly(ctx, poly, t)

        def check(v):
            if v.shift != -t:
                return f"inverse has shift {v.shift}, expected {-t}"
            prod = O.mul_cyclo(poly, list(v.unit), p, s)
            if any((x - (i == 0)) % p**v.prec for i, x in enumerate(prod)):
                return "a * inv(a) is not 1 at the claimed precision"
            return None

        return Job(lambda: coeff.inv(a), check)
    if kind == "twist":
        f, fx, deg = _dense_series(rng, ctx, n, s)
        h, e = rng.randrange(p**s), rng.choice([v for v in range(1, 3 * p) if v % p])
        exact = lambda: _twist_exact(fx, h, e, p, s, k)
        return Job(lambda: series.twist(f, h, e), _check_with(exact, lambda got, x: check_series(got, x, deg, p, k, k)))
    if kind == "galois":
        src, lvl = GALOIS_LEVELS[p]
        f, _, _ = _dense_series(rng, ctx, n, src)
        e = rng.choice([v for v in (1, 2, 3, 5) if v % p])

        def check(av):
            """Equal to the lattice projection at the k - (src - lvl) digits the average keeps."""
            if av.equals_mod(trace.tate_trace(f, lvl), k - (src - lvl)):
                return None
            return "Galois average differs from tate_trace"

        return Job(lambda: trace.galois_average(f, src, lvl, e), check)
    m = s  # matrix precision p^s bounds every exponent depth
    f, fx, deg = _dense_series(rng, ctx, n, s)
    e = rng.choice([v for v in (1, 2, 3, 5, 7) if v % p])
    label = rng.choice(("", "ramified0", "inf"))
    g1 = _gamma0(rng, p, m)
    a0, b0, _, d0 = _gamma0(rng, p, m)
    if kind == "act-cli":
        text = _file(p, k, s, s, deg, False, fx, label, e)

        def expect():
            pm = p**m
            a, b, c, d = g1
            b3, c3, d3 = (a * b0 + b * d0) % pm, (c * a0) % pm, (c * b0 + d * d0) % pm
            d_inv = pow(d3, -1, pm)
            upper = ((a * a0 * d3 - b3 * c3) * d_inv % pm, b3, 0, d3)
            twisted = _twist_exact(fx, -c3 * d_inv, e, p, s, k)
            return "gamma " + ",".join(map(str, upper)) + "\n" + _file(p, k, s, s, deg, False, twisted, label, e)

        argv = ["act", "--gamma", ",".join(map(str, g1)), "--x-gamma", f"{a0},{b0},0,{d0}", "--m", str(m)]
        return Job(lambda: _cli(argv, text), _expect_cli(0, expect))
    # act-api: the action followed by the period map
    x = action.CuspPoint(action.Mat2(p, m, a0, b0, 0, d0), f, e, label)
    G1 = action.Mat2(p, m, *g1)
    G2 = action.Mat2(p, m, *_gamma0(rng, p, m))

    def run():
        y = action.act_cusp(G1, x)
        return y, action.ht(y)

    def check(result):
        """ht is equivariant, and the action composes."""
        _, pt = result
        bx, dx = _proj(p, m, b0, d0)
        want = _proj(p, m, g1[0] * bx + g1[1] * dx, g1[2] * bx + g1[3] * dx)
        if (pt.x, pt.y) != want:
            return f"period {(pt.x, pt.y)} is not the image {want} of the point's period"
        if action.act_cusp(G1, action.act_cusp(G2, x)) != action.act_cusp(G1 * G2, x):
            return "the action does not compose"
        return None

    return Job(run, check)


def cyclo_dense(rng: random.Random, smoke: bool, J: O.IntegerJ) -> list[Slot]:
    slots = []
    for p, s in CYCLO_RINGS[:2] if smoke else CYCLO_RINGS:
        kinds = (("mul", MUL_TERMS[p]), ("inv", 1), ("twist", 8), ("galois", 4), ("act-cli", 6), ("act-api", 6))
        for i, (kind, n) in enumerate(kinds):
            n = min(n, 3) if smoke else n
            ctx = coeff.new_ring(p, 4 + i % 3, s)  # k varies by slot, not by seed: inv's Hensel steps depend on it
            slots.append(Slot(kind, f"phi={ctx.phi},k={ctx.k},terms={n}", [_cyclo_job(rng, ctx, kind, n) for _ in range(POOL)]))
    return slots


SCHEDULES = {"modular-int": modular_int, "series-sparse": series_sparse, "cyclo-dense": cyclo_dense}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate the inputs of a workload from its seed."""
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, SCHEDULES[name](rng, smoke, O.IntegerJ()))
