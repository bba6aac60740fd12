"""Command line surface.

Exit codes: 0 for yes/success, 1 for no, 2 for unknown-at-precision, 64 for
usage or input errors. Output is byte-deterministic for fixed inputs and
flags: terms are emitted in exponent order and nothing time- or
environment-dependent is printed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .action import CuspPoint, Mat2, ProjPoint, act_cusp, check_index
from .coeff import RingContext, new_ring
from .errors import QcuspError, SeriesFileError
from .fileformat import (
    emit_series,
    emit_tower,
    format_coefficient,
    format_exponent,
    header_metadata,
    parse_series,
)
from .modular import j_inverse_series, j_series
from .principles import PrincipleVerdict, Verdict, detect_level, extends_to_cusp, is_integral
from .series import FracSeries
from .tiltperf import CharPSeries, frobenius_inv, tower_from_charp
from .trace import tate_trace
from .valuation import classify_point, v1minus

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64

_VERDICT_EXIT = {Verdict.YES: EXIT_YES, Verdict.NO: EXIT_NO, Verdict.UNKNOWN: EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2, which we reserve
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-"; an input that cannot
    be read or is not UTF-8 is an input error."""
    try:
        if path != "-":
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        raw = getattr(sys.stdin, "buffer", None)  # absent on a text stream put in place of stdin
        return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
    except OSError as exc:
        raise QcuspError(str(exc))
    except UnicodeDecodeError as exc:
        raise QcuspError(f"{'stdin' if path == '-' else repr(path)} is not UTF-8: {exc}")


def _overrides(args) -> dict:
    return {
        "p": args.p, "k": args.k, "s": args.s,
        "depth": args.depth, "deg": args.deg,
    }


_NEEDS_FRAC = "this subcommand needs a coefficient-ring (mode=frac) series"
_NEEDS_CHARP = "this subcommand needs a mode=charp series"


def _load(args, kind: type, message: str) -> tuple:
    """The input series, its cusp label and its renormalization index e;
    the series must be a `kind`, else QcuspError(message), and e positive
    and prime to p, else DomainError."""
    text = _read_input(args.file)
    meta = header_metadata(text)
    series = parse_series(text, _overrides(args))
    if not isinstance(series, kind):
        raise QcuspError(message)
    try:
        e = int(meta.get("e", "1"))
    except ValueError:
        raise SeriesFileError(f"bad e header {meta['e']!r}")
    check_index(e, series.p)
    return series, meta.get("cusp_label", ""), e


def _print_verdict(v: PrincipleVerdict, out) -> int:
    out.write(f"verdict {v.verdict.value}\n")
    if v.witness is not None:
        m, c = v.witness
        p = c.ctx.p
        out.write(f"witness {format_exponent(m, p)} : {format_coefficient(c)}\n")
    if v.note:
        out.write(f"note {v.note}\n")
    return _VERDICT_EXIT[v.verdict]


def _require(parser: _Parser, args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--{name} is required for this subcommand")


def _generation_ring(parser: _Parser, args) -> RingContext:
    """The ring of jseries / revert-j; bad flags are usage errors."""
    _require(parser, args, "p", "k", "s")
    _at_least("--terms", args.terms, 1)
    try:
        return new_ring(args.p, args.k, args.s)
    except ValueError as exc:
        raise QcuspError(str(exc))


def _at_least(flag: str, value: int, low: int) -> None:
    """A count flag below its minimum is a usage error, not a verdict."""
    if value < low:
        raise QcuspError(f"{flag} must be >= {low}, got {value}")


def _parse_gamma(parser: _Parser, text: str, p: int, m: int) -> Mat2:
    try:
        a, b, c, d = (int(v) for v in text.split(","))
        return Mat2(p, m, a, b, c, d)
    except QcuspError as exc:
        parser.error(str(exc))
    except ValueError:
        parser.error(f"--gamma wants four comma-separated integers, got {text!r}")


_GLOBAL_OPTIONS = (
    ("p", int, "prime (header override / generation parameter)"),
    ("k", int, "p-adic precision exponent"),
    ("s", int, "cyclotomic depth"),
    ("depth", int, "denominator depth bound"),
    ("deg", str, "degree bound"),
)


def _add_global_options(parser, default, skip=()) -> None:
    """The header-override options; accepted before or after the subcommand.
    Subparsers pass default=SUPPRESS so they never clobber a value that was
    already parsed at the top level."""
    for name, kind, help_text in _GLOBAL_OPTIONS:
        if name not in skip:
            parser.add_argument(f"--{name}", type=kind, default=default, help=help_text)


@functools.cache
def build_parser() -> _Parser:
    """The command line parser, built once per process: building it costs
    tens of times as much as one parse, and parsing leaves no state in it
    (usage and help are formatted, and sys.stderr read, at call time)."""
    parser = _Parser(prog="qcusp", description="Exact arithmetic for fractional-exponent q-expansions at the cusps of p-adic modular curves.")
    _add_global_options(parser, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    suppress = argparse.SUPPRESS

    sp = sub.add_parser("jseries", help="emit the j-invariant expansion")
    sp.add_argument("--terms", type=int, required=True)
    _add_global_options(sp, suppress)

    sp = sub.add_parser("revert-j", help="emit the reversion q(w), w = 1/j")
    sp.add_argument("--terms", type=int, required=True)
    _add_global_options(sp, suppress)

    sp = sub.add_parser("trace", help="normalized trace to level n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("file")
    _add_global_options(sp, suppress)

    for name, help_text in (
        ("check-extends", "does the expansion extend over the cusp"),
        ("integral", "is the expansion integral"),
        ("level", "minimal level the expansion comes from"),
        ("classify-point", "rank-2 valuation data and point type of a Laurent expansion"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file")
        _add_global_options(sp, suppress)

    sp = sub.add_parser("act", help="act on a cusp point by a matrix in the c = 0 mod p chart")
    sp.add_argument("--gamma", required=True, help="a,b,c,d entries")
    sp.add_argument("--x-gamma", default=None, help="matrix of the cusp point (default identity)")
    sp.add_argument("--ex", type=int, default=None, help="renormalization index e (default: header e)")
    sp.add_argument("--m", type=int, default=None, help="matrix precision (default: series depth bound, at least 1)")
    sp.add_argument("file")
    _add_global_options(sp, suppress)

    sp = sub.add_parser("ht", help="period map image (b : d) of an upper-triangular matrix")
    sp.add_argument("--gamma", required=True, help="a,b,0,d entries")
    sp.add_argument("--m", type=int, required=True, help="matrix precision")
    _add_global_options(sp, suppress)

    sp = sub.add_parser("tilt", help="tilt a charp series into a compatibility tower")
    sp.add_argument("--depth", type=int, required=True, dest="tower_depth",
                    help="tower depth T")
    sp.add_argument("file")
    _add_global_options(sp, suppress, skip=("depth",))

    sp = sub.add_parser("perfection", help="adjoin p-power roots: iterate q -> q^(1/p)")
    sp.add_argument("--iterations", type=int, default=1)
    sp.add_argument("file")
    _add_global_options(sp, suppress)

    return parser


def run(argv: list[str], out=None) -> int:
    """Execute one subcommand; returns the exit code and never raises for
    usage or input problems."""
    try:
        return _dispatch(argv, out if out is not None else sys.stdout)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except QcuspError as exc:
        sys.stderr.write(f"qcusp: {exc}\n")
        return EXIT_USAGE


def _dispatch(argv: list[str], out) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "jseries":
        ctx = _generation_ring(parser, args)
        out.write(emit_series(j_series(ctx, args.terms)))
        return EXIT_YES

    if args.command == "revert-j":
        ctx = _generation_ring(parser, args)
        out.write(emit_series(j_inverse_series(ctx, args.terms)))
        return EXIT_YES

    if args.command == "trace":
        _at_least("--n", args.n, 0)
        series, label, e = _load(args, FracSeries, _NEEDS_FRAC)
        out.write(emit_series(tate_trace(series, args.n), label, e))
        return EXIT_YES

    if args.command == "check-extends":
        series, _, _ = _load(args, FracSeries, _NEEDS_FRAC)
        return _print_verdict(extends_to_cusp(series), out)

    if args.command == "integral":
        series, _, _ = _load(args, FracSeries, _NEEDS_FRAC)
        return _print_verdict(is_integral(series), out)

    if args.command == "level":
        series, _, _ = _load(args, FracSeries, _NEEDS_FRAC)
        out.write(f"{detect_level(series)}\n")
        return EXIT_YES

    if args.command == "act":
        series, label, e = _load(args, FracSeries, _NEEDS_FRAC)
        if args.ex is not None:
            e = args.ex
        m = args.m if args.m is not None else max(1, series.depth_bound)
        g1 = _parse_gamma(parser, args.gamma, series.ctx.p, m)
        if args.x_gamma is None:
            base = Mat2.identity(series.ctx.p, m)
        else:
            base = _parse_gamma(parser, args.x_gamma, series.ctx.p, m)
        x = CuspPoint(base, series, e, label)
        y = act_cusp(g1, x)
        g = y.gamma
        out.write(f"gamma {g.a},{g.b},{g.c},{g.d}\n")
        out.write(emit_series(y.series, y.cusp_label, y.e))
        return EXIT_YES

    if args.command == "ht":
        _require(parser, args, "p")
        g = _parse_gamma(parser, args.gamma, args.p, args.m)
        if not g.is_upper():
            parser.error("ht wants an upper-triangular matrix a,b,0,d")
        pt = ProjPoint.make(args.p, args.m, g.b, g.d)
        out.write(f"({pt.x} : {pt.y})\n")
        return EXIT_YES

    if args.command == "tilt":
        _at_least("--depth", args.tower_depth, 1)
        series, label, e = _load(args, CharPSeries, _NEEDS_CHARP)
        out.write(emit_tower(tower_from_charp(series, args.tower_depth), label, e))
        return EXIT_YES

    if args.command == "perfection":
        _at_least("--iterations", args.iterations, 0)
        series, label, e = _load(args, CharPSeries, _NEEDS_CHARP)
        lifted = series.with_depth_bound(series.depth_bound + args.iterations)
        for _ in range(args.iterations):
            lifted = frobenius_inv(lifted)
        out.write(emit_series(lifted, label, e))
        return EXIT_YES

    if args.command == "classify-point":
        series, _, _ = _load(args, FracSeries, _NEEDS_FRAC)
        val = v1minus(series)
        out.write(f"type {classify_point(val)}\n")
        out.write(f"v1minus {val.v} {val.g}\n")
        out.write(f"generise {val.generize()}\n")
        return EXIT_YES

    raise AssertionError("unreachable")


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
