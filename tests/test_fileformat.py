from fractions import Fraction
from math import inf

import pytest

from qcusp.coeff import CycloCoeff, new_ring
from qcusp.errors import SeriesFileError
from qcusp.fileformat import emit_series, emit_tower, header_metadata, parse_series, parse_tower
from qcusp.series import FracSeries, from_terms
from qcusp.tiltperf import CharPSeries, charp_from_terms, tower_from_charp

from conftest import random_series

CTX = new_ring(2, 6, 3)


def test_minimal_file():
    text = "p=2\nk=6\ns=3\ndepth=1\ndeg=1\nlaurent=false\n1/p^1 : 1\n"
    f = parse_series(text)
    assert isinstance(f, FracSeries)
    assert f.items() == [(Fraction(1, 2), CycloCoeff.one(CTX))]


def test_negative_exponent_needs_laurent():
    text = "p=2\nk=6\ns=0\ndepth=0\ndeg=2\nlaurent=false\n-1 : 1\n"
    with pytest.raises(SeriesFileError):
        parse_series(text)
    ok = parse_series(text.replace("laurent=false", "laurent=true"))
    assert ok.exponents() == [Fraction(-1)]


def test_duplicate_exponent_rejected():
    text = "p=2\nk=6\ns=1\ndepth=1\ndeg=2\nlaurent=false\n1 : 1\n1 : 3\n"
    with pytest.raises(SeriesFileError) as err:
        parse_series(text)
    assert err.value.line == 8
    assert str(err.value) == "duplicate exponent 1 (line 8)"


P2_HEAD = "p=2\nk=6\ns=0\ndepth=2\ndeg=3\nlaurent=false\n"


@pytest.mark.parametrize(
    "body,message",
    [
        ("1 : 1\n1/p^3 : 1\n", "exponent 1/8 has depth 3 > depth bound 2 (line 8)"),
        ("1 : 1\n4 : 1\n", "exponent 4 exceeds degree bound 3 (line 8)"),
        ("1 : 1\n5 : 0\n", "exponent 5 exceeds degree bound 3 (line 8)"),
        ("# a comment\n\n-1 : 1\n", "negative exponent -1 in a non-Laurent series (line 9)"),
        ("1/p^1 : 1\n2/p^2 : 2\n", "duplicate exponent 1/2 (line 8)"),
    ],
    ids=["depth", "degree", "degree-zero-coefficient", "laurent", "duplicate-unreduced"],
)
def test_term_errors_name_their_line(body, message):
    # the constructor checks the streamed terms; parse_series adds the line
    with pytest.raises(SeriesFileError) as err:
        parse_series(P2_HEAD + body)
    assert str(err.value) == message


@pytest.mark.parametrize("term", ["\u0666 : 1", "1 : \u0666", "1 : p^\u0660*(1)", "1 : p^0*(\u0661*z)"])
def test_non_ascii_digits_are_rejected(term):
    with pytest.raises(SeriesFileError) as err:
        parse_series(P2_HEAD.replace("s=0", "s=2") + term + "\n")
    assert err.value.line == 7


def test_header_metadata_reads_the_header_only():
    text = P2_HEAD + "cusp_label=c1\ne=3\n1 : 1\nnot a term\n"
    assert header_metadata(text) == {
        "p": "2", "k": "6", "s": "0", "depth": "2", "deg": "3",
        "laurent": "false", "cusp_label": "c1", "e": "3",
    }
    for bad, message in (("e=3\ne=5\n", "duplicate header key 'e' (line 8)"), ("f=1\n", "unknown header key 'f' (line 7)")):
        for read in (header_metadata, parse_series):
            with pytest.raises(SeriesFileError) as err:
                read(P2_HEAD + bad + "1 : 1\n")
            assert str(err.value) == message


def test_header_term_consistency():
    text = "p=2\nk=6\ns=3\ndepth=0\ndeg=2\nlaurent=false\n1/p^1 : 1\n"
    with pytest.raises(SeriesFileError):
        parse_series(text)


def test_syntax_error_carries_line():
    text = "p=2\nk=6\ns=3\ndepth=1\ndeg=2\nlaurent=false\nnot a term\n"
    with pytest.raises(SeriesFileError) as err:
        parse_series(text)
    assert err.value.line == 7


def test_missing_header():
    with pytest.raises(SeriesFileError):
        parse_series("p=2\nk=6\n1 : 1\n")


def test_coefficient_grammar():
    text = (
        "p=2\nk=6\ns=2\ndepth=2\ndeg=3\nlaurent=false\n"
        "1/p^2 : p^-1*(3 + 1*z)\n"
        "1 : p^0*(5)\n"
        "2 : 17\n"
    )
    f = parse_series(text)
    ctx = f.ctx
    assert f.coefficient(Fraction(1, 4)) == CycloCoeff.from_poly(ctx, [3, 1], -1)
    assert f.coefficient(1) == CycloCoeff.from_int(ctx, 5)
    assert f.coefficient(2) == CycloCoeff.from_int(ctx, 17)


def test_round_trip_random(rng):
    for _ in range(25):
        f = random_series(rng, CTX, 4, 3, coeff_entries=3, shift_range=(-2, 2))
        text = emit_series(f, cusp_label="c0", e=3)
        g = parse_series(text)
        assert g == f
        assert (g.deg_bound, g.depth_bound, g.laurent) == (f.deg_bound, f.depth_bound, f.laurent)
        assert emit_series(g, cusp_label="c0", e=3) == text


def test_emit_is_insertion_order_independent(rng):
    pairs = [(Fraction(3), 5), (Fraction(1, 2), 3), (Fraction(1), 7)]
    a = from_terms(CTX, pairs, 4, 1)
    b = from_terms(CTX, list(reversed(pairs)), 4, 1)
    assert emit_series(a) == emit_series(b)


def test_infinite_degree_bound_round_trip():
    f = from_terms(CTX, [(1, 1)], inf, 0)
    text = emit_series(f)
    assert "deg=inf" in text
    assert parse_series(text).deg_bound == inf


def test_charp_round_trip(rng):
    f = charp_from_terms(3, [(Fraction(1, 3), 2), (2, 1)], 4, 1)
    text = emit_series(f)
    assert "mode=charp" in text
    g = parse_series(text)
    assert isinstance(g, CharPSeries)
    assert g == f
    assert emit_series(g) == text


def test_charp_rejects_poly_coefficients():
    text = "p=3\nk=1\ns=0\ndepth=1\ndeg=2\nlaurent=false\nmode=charp\n1 : p^0*(1)\n"
    with pytest.raises(SeriesFileError):
        parse_series(text)


def test_overrides():
    text = "p=2\nk=6\ns=0\ndepth=0\ndeg=4\nlaurent=false\n1 : 17\n"
    f = parse_series(text, {"k": 3})
    assert f.ctx.k == 3
    assert f.coefficient(1) == CycloCoeff.from_int(f.ctx, 17)


def test_comments_and_blanks_ignored():
    text = "# generated\np=2\nk=6\ns=0\ndepth=0\ndeg=4\nlaurent=false\n\n1 : 3  # three\n"
    assert parse_series(text).coefficient(1) == CycloCoeff.from_int(new_ring(2, 6, 0), 3)


def test_tower_round_trip():
    t = tower_from_charp(charp_from_terms(2, [(1, 1), (2, 1)], 8, 4), 4)
    text = emit_tower(t)
    assert text.startswith("tower 4\n")
    assert parse_tower(text) == t


def test_tower_header_mismatch():
    t = tower_from_charp(charp_from_terms(2, [(1, 1)], 8, 3), 3)
    text = emit_tower(t).replace("tower 3", "tower 2", 1)
    with pytest.raises(SeriesFileError):
        parse_tower(text)


FRAC_HEAD = "p=5\nk=4\ns=0\ndepth=0\ndeg=2\nlaurent=false\n"
CHARP_HEAD = FRAC_HEAD.replace("k=4", "k=1") + "mode=charp\n"


@pytest.mark.parametrize("text,value", [("-12", -12), ("0", 0)])
def test_plain_integer_coefficients_parse(text, value):
    f = parse_series(FRAC_HEAD + f"1 : {text}\n")
    assert f.coefficient(1) == CycloCoeff.from_int(f.ctx, value)
    assert parse_series(CHARP_HEAD + f"1 : {text}\n").coefficient(1) == value % 5


@pytest.mark.parametrize("text", ["+5", "1_000", "5 5"])
def test_integer_lookalikes_are_rejected(text):
    # int() would take "+5" and "1_000"; the grammar's <int> is -?digits
    with pytest.raises(SeriesFileError) as err:
        parse_series(FRAC_HEAD + f"1 : {text}\n")
    assert str(err.value) == f"bad coefficient syntax {text!r} (line 7)"
    with pytest.raises(SeriesFileError) as err:
        parse_series(CHARP_HEAD + f"1 : {text}\n")
    assert str(err.value) == "charp coefficients are plain integers (line 8)"


def test_bad_degree_header_names_no_line():
    with pytest.raises(SeriesFileError) as err:
        parse_series("p=2\nk=6\ns=0\ndepth=0\ndeg=x\nlaurent=false\n1 : 1\n")
    assert err.value.line is None
    assert str(err.value) == "bad degree bound 'x'"
