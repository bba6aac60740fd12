"""Series file format: parse and byte-deterministic emit.

Layout: header lines ``key=value`` in the fixed order p, k, s, depth, deg,
laurent, cusp_label, e, mode, followed by one term per line in increasing
exponent order. A term line reads ``<exponent> : <coefficient>`` with

    exponent     ::= <num> | <num>/p^<r>
    coefficient  ::= <int> | p^<t>*(<poly>)
    poly         ::= <int> | <int>*z | <int>*z^<i>  joined by " + "
    int          ::= <digits> | -<digits>

where z denotes the designated primitive p^s-th unit root. mode is ``frac``
for coefficient-ring series and ``charp`` for residue (characteristic p)
series; charp files carry k=1, s=0 and plain integer coefficients.

The header fields p, k, s, depth and e are <int>, and deg is ``inf``,
<int> or <int>/<digits>; a digit is an ASCII digit.

Blank lines and ``#`` comments are accepted on input, never emitted.
Emission of a normalized series round-trips byte-for-byte. Term lines
stream into the series constructor, which checks each exponent; its errors,
like the parser's own, name the offending line number.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain
from math import inf

from .coeff import CycloCoeff, RingContext, new_ring
from .errors import QcuspError, SeriesFileError
from .series import FracSeries, exponent_depth, lowest_terms
from .tiltperf import CharPSeries, TiltTower

HEADER_ORDER = ("p", "k", "s", "depth", "deg", "laurent", "cusp_label", "e", "mode")

# Digits are ASCII digits (re.ASCII). int() alone would also take "+5",
# " 7", "1_000" and other scripts' digits.
_EXP_RE = re.compile(r"^(-?\d+)(?:/p\^(\d+))?$", re.ASCII)
_INT_RE = re.compile(r"-?\d+", re.ASCII)
_DEG_RE = re.compile(r"-?\d+(/0*[1-9]\d*)?", re.ASCII)
_PLUS_RE = re.compile(r"\s*\+\s*")
_COEFF_RE = re.compile(r"^p\^(-?\d+)\*\((.*)\)$", re.ASCII)
_POLY_TERM_RE = re.compile(r"^(-?\d+)(\*z(\^(\d+))?)?$", re.ASCII)
_POLY_TERM_BARE_Z_RE = re.compile(r"^z(\^(\d+))?$", re.ASCII)
_HEADER_RE = re.compile(r"^[a-z_]+\s*=")


def _format_deg(deg) -> str:
    if deg == inf:
        return "inf"
    deg = Fraction(deg)
    return str(deg.numerator) if deg.denominator == 1 else f"{deg.numerator}/{deg.denominator}"


def _parse_deg(text: str):
    """deg ::= inf | <int> | <int>/<digits>, with a nonzero denominator."""
    if text == "inf":
        return inf
    if not _DEG_RE.fullmatch(text):
        raise SeriesFileError(f"bad degree bound {text!r}")
    return Fraction(text)


def parse_header_int(key: str, text: str) -> int:
    """An integer header field, read by the coefficient grammar's <int>."""
    if not _INT_RE.fullmatch(text):
        raise SeriesFileError(f"bad {key} header {text!r}")
    return int(text)


def format_exponent(m: Fraction, p: int) -> str:
    return _format_exponent(m.numerator, exponent_depth(m, p))


def _format_exponent(num: int, r: int) -> str:
    """num / p^r, in lowest terms."""
    return str(num) if r == 0 else f"{num}/p^{r}"


def format_coefficient(c: CycloCoeff) -> str:
    if c.shift == 0 and not any(c.unit[1:]):  # zero too: its shift is 0
        return str(c.unit[0])
    parts = []
    for i, v in enumerate(c.unit):
        if v == 0:
            continue
        if i == 0:
            parts.append(str(v))
        elif i == 1:
            parts.append(f"{v}*z")
        else:
            parts.append(f"{v}*z^{i}")
    return f"p^{c.shift}*(" + " + ".join(parts) + ")"


def parse_coefficient(ctx: RingContext, text: str, line: int) -> CycloCoeff:
    text = text.strip()
    if _INT_RE.fullmatch(text):
        return CycloCoeff.from_int(ctx, int(text))
    m = _COEFF_RE.match(text)
    if not m:
        raise SeriesFileError(f"bad coefficient syntax {text!r}", line)
    shift = int(m.group(1))
    body = m.group(2).strip()
    poly = [0] * max(ctx.phi, 1)
    for part in _PLUS_RE.split(body):
        part = part.strip()
        t = _POLY_TERM_RE.match(part)
        if t:
            coeff_val = int(t.group(1))
            degree = 0 if t.group(2) is None else (int(t.group(4)) if t.group(4) else 1)
        else:
            t = _POLY_TERM_BARE_Z_RE.match(part)
            if not t:
                raise SeriesFileError(f"bad coefficient term {part!r}", line)
            coeff_val = 1
            degree = int(t.group(2)) if t.group(2) else 1
        if degree >= ctx.phi and coeff_val != 0:
            raise SeriesFileError(f"z^{degree} exceeds the ring degree {ctx.phi}", line)
        if degree < len(poly):
            poly[degree] += coeff_val
    return CycloCoeff.from_poly(ctx, poly, shift)


def parse_exponent(text: str, line: int) -> tuple[int, int]:
    """The exponent num / p^r as written, (num, r); the series constructor
    checks it."""
    m = _EXP_RE.match(text.strip())
    if not m:
        raise SeriesFileError(f"bad exponent syntax {text!r}", line)
    return int(m.group(1)), int(m.group(2) or 0)


def emit_series(f: FracSeries | CharPSeries, cusp_label: str = "", e: int = 1) -> str:
    """Canonical text: fixed header order, terms in increasing exponent order."""
    if isinstance(f, CharPSeries):
        k, s, mode, fmt = 1, 0, "charp", str
    else:
        k, s, mode, fmt = f.ctx.k, f.ctx.s, "frac", format_coefficient
    header = {
        "p": f.p, "k": k, "s": s, "depth": f.depth_bound,
        "deg": _format_deg(f.deg_bound), "laurent": str(f.laurent).lower(),
        "cusp_label": cusp_label, "e": e, "mode": mode,
    }
    lines = [f"{key}={header[key]}" for key in HEADER_ORDER]
    lines += [f"{_format_exponent(num, r)} : {fmt(c)}" for num, r, c in lowest_terms(f)]
    return "\n".join(lines) + "\n"


def _parse_charp_coefficient(text: str, line: int) -> int:
    if not _INT_RE.fullmatch(text.strip()):
        raise SeriesFileError("charp coefficients are plain integers", line)
    return int(text)


def _split(text: str) -> tuple[dict[str, str], Iterator[tuple[int, str]]]:
    """The header fields of a series file, and an iterator over its term
    lines: (line number, content) of every line from the first one that is
    not a header line on, blank ones and ``#`` comments cut. Unknown and
    repeated header keys are rejected."""
    numbered = enumerate(text.splitlines(), start=1)
    lines = ((n, line) for n, raw in numbered if (line := raw.split("#", 1)[0].strip()))
    header: dict[str, str] = {}
    for lineno, line in lines:
        if not _HEADER_RE.match(line):
            return header, chain([(lineno, line)], lines)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in HEADER_ORDER:
            raise SeriesFileError(f"unknown header key {key!r}", lineno)
        if key in header:
            raise SeriesFileError(f"duplicate header key {key!r}", lineno)
        header[key] = value.strip()
    return header, lines  # exhausted


def header_metadata(text: str) -> dict[str, str]:
    """Just the header fields of a series file (cusp_label, e, ...)."""
    return _split(text)[0]


def parse_series(text: str, overrides: dict | None = None) -> FracSeries | CharPSeries:
    """Parse a series file; `overrides` replaces header fields before
    interpretation. The terms stream into the series constructor, which
    checks each one; a syntax error, a duplicate exponent or a term that
    breaks the header's bounds is rejected with the offending line number."""
    header, term_lines = _split(text)
    if overrides:
        header.update({k: str(v) for k, v in overrides.items() if v is not None})
    for required in ("p", "k", "s", "depth", "deg", "laurent"):
        if required not in header:
            raise SeriesFileError(f"missing header key {required!r}")
    p, k, s, depth_bound = (parse_header_int(key, header[key]) for key in ("p", "k", "s", "depth"))
    deg_bound = _parse_deg(header["deg"])
    if header["laurent"] not in ("true", "false"):
        raise SeriesFileError("laurent must be true or false")
    laurent = header["laurent"] == "true"
    mode = header.get("mode", "frac")
    if mode not in ("frac", "charp"):
        raise SeriesFileError(f"unknown mode {mode!r}")

    if mode == "charp":
        cls, ring, parse_coeff = CharPSeries, p, _parse_charp_coefficient
    else:
        try:
            ctx = new_ring(p, k, s)
        except ValueError as exc:
            raise SeriesFileError(f"bad ring header: {exc}")
        cls, ring = FracSeries, ctx
        parse_coeff = lambda text, line: parse_coefficient(ctx, text, line)
    lineno = None  # the term line being read

    def terms():
        nonlocal lineno
        for lineno, line in term_lines:
            exp_text, sep, coeff_text = line.partition(":")
            if not sep:
                raise SeriesFileError("term line needs 'exponent : coefficient'", lineno)
            yield parse_exponent(exp_text, lineno), parse_coeff(coeff_text, lineno)

    try:
        return cls(ring, terms(), deg_bound, depth_bound, laurent)
    except SeriesFileError:
        raise
    except (QcuspError, ValueError) as exc:
        raise SeriesFileError(str(exc), lineno)


def emit_tower(t: TiltTower, cusp_label: str = "", e: int = 1) -> str:
    lines = [f"tower {t.depth}"]
    for i, comp in enumerate(t.components):
        lines.append(f"component {i}")
        lines.append(emit_series(comp, cusp_label, e).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_tower(text: str) -> TiltTower:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("tower "):
        raise SeriesFileError("tower file must start with 'tower <depth>'", 1)
    try:
        depth = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise SeriesFileError("bad tower header", 1)
    blocks: list[list[str]] = []
    for raw in lines[1:]:
        if raw.startswith("component "):
            blocks.append([])
        elif blocks:
            blocks[-1].append(raw)
        elif raw.strip():
            raise SeriesFileError("content before first component", 2)
    if len(blocks) != depth:
        raise SeriesFileError(f"tower header says {depth} components, found {len(blocks)}")
    comps = []
    for block in blocks:
        comp = parse_series("\n".join(block))
        if not isinstance(comp, CharPSeries):
            raise SeriesFileError("tower components must be charp series")
        comps.append(comp)
    return TiltTower(comps)
