"""Series file format: parse and byte-deterministic emit.

Layout: header lines ``key=value`` in the fixed order p, k, s, depth, deg,
laurent, cusp_label, e, mode, followed by one term per line in increasing
exponent order. A term line reads ``<exponent> : <coefficient>`` with

    exponent     ::= <num> | <num>/p^<r>
    coefficient  ::= <int> | p^<t>*(<poly>)
    poly         ::= <int> | <int>*z | <int>*z^<i>  joined by " + "

where z denotes the designated primitive p^s-th unit root. mode is ``frac``
for coefficient-ring series and ``charp`` for residue (characteristic p)
series; charp files carry k=1, s=0 and plain integer coefficients.

Blank lines and ``#`` comments are accepted on input, never emitted.
Emission of a normalized series round-trips byte-for-byte.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf

from .coeff import CycloCoeff, RingContext, new_ring
from .errors import SeriesFileError
from .series import FracSeries, exponent_depth, lowest_terms
from .tiltperf import CharPSeries, TiltTower

HEADER_ORDER = ("p", "k", "s", "depth", "deg", "laurent", "cusp_label", "e", "mode")

_EXP_RE = re.compile(r"^(-?\d+)(?:/p\^(\d+))?$")
_INT_RE = re.compile(r"-?\d+")  # int() alone would also take "+5", " 7" and "1_000"
_PLUS_RE = re.compile(r"\s*\+\s*")
_COEFF_RE = re.compile(r"^p\^(-?\d+)\*\((.*)\)$")
_POLY_TERM_RE = re.compile(r"^(-?\d+)(\*z(\^(\d+))?)?$")
_POLY_TERM_BARE_Z_RE = re.compile(r"^z(\^(\d+))?$")
_HEADER_RE = re.compile(r"^[a-z_]+\s*=")


def _format_deg(deg) -> str:
    if deg == inf:
        return "inf"
    deg = Fraction(deg)
    return str(deg.numerator) if deg.denominator == 1 else f"{deg.numerator}/{deg.denominator}"


def _parse_deg(text: str, line: int | None = None):
    if text == "inf":
        return inf
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SeriesFileError(f"bad degree bound {text!r}", line)


def format_exponent(m: Fraction, p: int) -> str:
    return _format_exponent(m.numerator, exponent_depth(m, p))


def _format_exponent(num: int, r: int) -> str:
    """num / p^r, in lowest terms."""
    return str(num) if r == 0 else f"{num}/p^{r}"


def format_coefficient(c: CycloCoeff) -> str:
    if c.is_zero():
        return "0"
    if c.shift == 0 and all(v == 0 for v in c.unit[1:]):
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


def parse_exponent(text: str, p: int, line: int) -> tuple[int, int]:
    """The exponent num / p^r as (num, r) in lowest terms."""
    m = _EXP_RE.match(text.strip())
    if not m:
        raise SeriesFileError(f"bad exponent syntax {text!r}", line)
    num = int(m.group(1))
    r = int(m.group(2)) if m.group(2) else 0
    while r and num % p == 0:
        num //= p
        r -= 1
    return num, r


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


def parse_series(text: str, overrides: dict | None = None) -> FracSeries | CharPSeries:
    """Parse a series file; `overrides` replaces header fields before
    interpretation. Duplicate exponents and header/term inconsistencies are
    rejected with the offending line number."""
    header: dict[str, str] = {}
    term_lines: list[tuple[int, str]] = []
    in_terms = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not in_terms and _HEADER_RE.match(line):
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in HEADER_ORDER:
                raise SeriesFileError(f"unknown header key {key!r}", lineno)
            if key in header:
                raise SeriesFileError(f"duplicate header key {key!r}", lineno)
            header[key] = value.strip()
        else:
            in_terms = True
            term_lines.append((lineno, line))
    if overrides:
        header.update({k: str(v) for k, v in overrides.items() if v is not None})
    for required in ("p", "k", "s", "depth", "deg", "laurent"):
        if required not in header:
            raise SeriesFileError(f"missing header key {required!r}")
    try:
        p = int(header["p"])
        k = int(header["k"])
        s = int(header["s"])
        depth_bound = int(header["depth"])
    except ValueError as exc:
        raise SeriesFileError(f"bad numeric header: {exc}")
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
    terms = {}
    for lineno, line in term_lines:
        exp_text, sep, coeff_text = line.partition(":")
        if not sep:
            raise SeriesFileError("term line needs 'exponent : coefficient'", lineno)
        m = parse_exponent(exp_text, p, lineno)
        if m in terms:
            raise SeriesFileError(f"duplicate exponent {exp_text.strip()!r}", lineno)
        terms[m] = parse_coeff(coeff_text, lineno)
    try:
        return cls(ring, terms, deg_bound, depth_bound, laurent)
    except Exception as exc:
        raise SeriesFileError(str(exc))


def header_metadata(text: str) -> dict[str, str]:
    """Just the header fields of a series file (cusp_label, e, ...)."""
    meta: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not _HEADER_RE.match(line):
            break
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    return meta


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
