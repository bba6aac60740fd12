"""Golden-file tests for every subcommand, exit-code behaviour, and
byte-determinism across runs and term-insertion orders."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from qcusp.cli import EXIT_NO, EXIT_UNKNOWN, EXIT_USAGE, EXIT_YES, run

GOLDEN = Path(__file__).parent / "golden"


def run_text(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


CASES = [
    (["jseries", "--p", "5", "--k", "6", "--s", "1", "--terms", "6"], "out_jseries.txt", EXIT_YES),
    (["revert-j", "--p", "5", "--k", "8", "--s", "0", "--terms", "6"], "out_revertj.txt", EXIT_YES),
    # the reversion mod 2^(12+G) needs one doubling of G to pin every shift
    (["revert-j", "--p", "2", "--k", "12", "--s", "1", "--terms", "40"], "out_revertj_p2.txt", EXIT_YES),
    (["trace", "--n", "1", str(GOLDEN / "in_frac.txt")], "out_trace.txt", EXIT_YES),
    (["check-extends", str(GOLDEN / "in_laurent.txt")], "out_checkextends.txt", EXIT_NO),
    (["level", str(GOLDEN / "in_frac.txt")], "out_level.txt", EXIT_YES),
    (["integral", str(GOLDEN / "in_nonintegral.txt")], "out_integral.txt", EXIT_NO),
    (["act", "--gamma", "1,0,2,1", "--m", "2", str(GOLDEN / "in_frac.txt")], "out_act.txt", EXIT_YES),
    (["ht", "--p", "2", "--m", "4", "--gamma", "3,5,0,7"], "out_ht.txt", EXIT_YES),
    (["tilt", "--depth", "3", str(GOLDEN / "in_charp.txt")], "out_tilt.txt", EXIT_YES),
    (["perfection", "--iterations", "2", str(GOLDEN / "in_charp.txt")], "out_perfection.txt", EXIT_YES),
    (["classify-point", str(GOLDEN / "in_laurent.txt")], "out_classify.txt", EXIT_YES),
]


def case_id(argv: list[str], golden: str) -> str:
    """The subcommand, tagged by the golden's suffix when one subcommand has
    several goldens: out_revertj_p2.txt gives revert-j-p2."""
    tag = Path(golden).stem.split("_", 2)[2:]
    return "-".join([argv[0], *tag])


CASE_IDS = [case_id(argv, golden) for argv, golden, _ in CASES]


@pytest.mark.parametrize("argv,golden,expected_code", CASES, ids=CASE_IDS)
def test_golden(argv, golden, expected_code):
    code, text = run_text(argv)
    assert code == expected_code
    assert text == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv,golden,expected_code", CASES, ids=CASE_IDS)
def test_golden_second_run_identical(argv, golden, expected_code):
    first = run_text(argv)
    second = run_text(argv)
    assert first == second


USAGE_ERRORS = [
    ["trace", str(GOLDEN / "in_frac.txt")],  # missing --n
    ["nonsense"],
    ["ht", "--p", "2", "--m", "4", "--gamma", "3,5,1,7"],  # not upper
]


def test_parser_keeps_no_state_between_runs(capsys):
    # the parser is built once per process: golden runs in both orders, with
    # usage errors between them, must give the same bytes every time
    errors = []
    for order in (CASES, CASES[::-1]):
        for argv, golden, expected_code in order:
            assert run_text(argv) == (expected_code, (GOLDEN / golden).read_text())
            for bad in USAGE_ERRORS:
                capsys.readouterr()
                assert run_text(bad) == (EXIT_USAGE, "")
                errors.append(capsys.readouterr().err)
    assert all(err.startswith("usage: qcusp") for err in errors)
    assert errors == errors[: len(USAGE_ERRORS)] * (2 * len(CASES))


def test_insertion_order_independence(tmp_path):
    base = (GOLDEN / "in_frac.txt").read_text().splitlines()
    header, terms = base[:9], base[9:]
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text("\n".join(header + list(reversed(terms))) + "\n")
    _, a = run_text(["trace", "--n", "1", str(GOLDEN / "in_frac.txt")])
    _, b = run_text(["trace", "--n", "1", str(shuffled)])
    assert a == b


def test_stdin_pipeline(tmp_path, monkeypatch):
    # trace --n 0 then level prints 0
    code, traced = run_text(["trace", "--n", "0", str(GOLDEN / "in_frac.txt")])
    assert code == EXIT_YES
    monkeypatch.setattr(sys, "stdin", io.StringIO(traced))
    code, out = run_text(["level", "-"])
    assert code == EXIT_YES
    assert out == "0\n"


def test_exit_unknown_mapping():
    # no shipped subcommand currently produces an unknown verdict on valid
    # input, but the report path must map one to exit code 2
    from qcusp.cli import _print_verdict
    from qcusp.fileformat import parse_series
    from qcusp.principles import zero_test

    text = "p=2\nk=6\ns=0\ndepth=0\ndeg=4\nlaurent=false\n1 : 64\n"
    verdict = zero_test(parse_series(text))
    buf = io.StringIO()
    assert _print_verdict(verdict, buf) == EXIT_UNKNOWN == 2
    assert buf.getvalue().startswith("verdict unknown-at-precision\n")


def test_usage_errors():
    code, _ = run_text(["trace", str(GOLDEN / "in_frac.txt")])  # missing --n
    assert code == EXIT_USAGE
    code, _ = run_text(["nonsense"])
    assert code == EXIT_USAGE
    code, _ = run_text(["jseries", "--terms", "3"])  # no ring parameters
    assert code == EXIT_USAGE
    code, _ = run_text(["level", str(GOLDEN / "missing_file.txt")])
    assert code == EXIT_USAGE
    code, _ = run_text(["trace", "--n", "1", str(GOLDEN / "in_laurent.txt")])  # Laurent input
    assert code == EXIT_USAGE
    code, _ = run_text(["ht", "--p", "2", "--m", "4", "--gamma", "3,5,1,7"])  # not upper
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["jseries", "--p", "5", "--k", "4", "--s", "0", "--terms", "0"],
        ["revert-j", "--p", "5", "--k", "4", "--s", "0", "--terms", "-3"],
        ["jseries", "--p", "4", "--k", "4", "--s", "0", "--terms", "3"],
        ["jseries", "--p", "5", "--k", "0", "--s", "0", "--terms", "3"],
        ["revert-j", "--p", "5", "--k", "4", "--s", "5", "--terms", "3"],
        ["level", "--s", "7", str(GOLDEN / "in_frac.txt")],
    ],
    ids=["terms-zero", "terms-negative", "p-composite", "k-zero", "s-too-deep", "file-s-override"],
)
def test_bad_generation_flags_are_usage_errors(argv, capsys):
    code, out = run_text(argv)
    assert code == EXIT_USAGE
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("qcusp: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--n", "-1", str(GOLDEN / "in_frac.txt")],
        ["tilt", "--depth", "0", str(GOLDEN / "in_charp.txt")],
        ["perfection", "--iterations", "-1", str(GOLDEN / "in_charp.txt")],
    ],
    ids=["trace-n-negative", "tilt-depth-zero", "perfection-iterations-negative"],
)
def test_bad_count_flags_are_usage_errors(argv, capsys):
    code, out = run_text(argv)
    assert code == EXIT_USAGE
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("qcusp: ") and err.count("\n") == 1


def test_ht_rejects_composite_p():
    code, out = run_text(["ht", "--p", "4", "--m", "4", "--gamma", "3,5,0,7"])
    assert code == EXIT_USAGE
    assert out == ""


def test_package_main_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcusp", "ht", "--p", "2", "--m", "4", "--gamma", "3,5,0,7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "out_ht.txt").read_text()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcusp.cli", "ht", "--p", "2", "--m", "4", "--gamma", "3,5,0,7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(3 : 1)\n"


def test_global_flag_positions_agree():
    a = run_text(["--p", "5", "--k", "6", "--s", "1", "jseries", "--terms", "4"])
    b = run_text(["jseries", "--p", "5", "--k", "6", "--s", "1", "--terms", "4"])
    assert a == b


def test_wrong_series_mode_is_a_usage_error(capsys):
    assert run_text(["level", str(GOLDEN / "in_charp.txt")]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "qcusp: this subcommand needs a coefficient-ring (mode=frac) series\n"
    assert run_text(["tilt", "--depth", "2", str(GOLDEN / "in_frac.txt")]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "qcusp: this subcommand needs a mode=charp series\n"


def assert_one_error_line(err: str) -> None:
    assert err.startswith("qcusp: ") and err.count("\n") == 1


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    # a directory, and a file that is not UTF-8
    latin = tmp_path / "latin.txt"
    latin.write_bytes((GOLDEN / "in_frac.txt").read_bytes().replace(b"ramified0", b"caf\xe9"))
    for path in (tmp_path, latin):
        assert run_text(["level", str(path)]) == (EXIT_USAGE, "")
        assert_one_error_line(capsys.readouterr().err)


def test_stdin_not_utf8_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "qcusp", "level", "-"],
        input=(GOLDEN / "in_frac.txt").read_bytes().replace(b"ramified0", b"caf\xe9"),
        capture_output=True,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == b""
    assert_one_error_line(proc.stderr.decode())


@pytest.mark.parametrize(
    "argv,source",
    [
        (["trace", "--n", "1"], "in_frac.txt"),
        (["act", "--gamma", "1,0,2,1", "--m", "2"], "in_frac.txt"),
        (["tilt", "--depth", "3"], "in_charp.txt"),
        (["perfection", "--iterations", "2"], "in_charp.txt"),
    ],
    ids=["trace", "act", "tilt", "perfection"],
)
def test_bad_e_header_is_a_usage_error(argv, source, tmp_path, capsys):
    bad = tmp_path / source
    bad.write_text((GOLDEN / source).read_text().replace("e=1\n", "e=abc\n"))
    assert run_text([*argv, str(bad)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "qcusp: bad e header 'abc'\n"


@pytest.mark.parametrize("e", ["0", "-2", "2"], ids=["zero", "negative", "p"])
@pytest.mark.parametrize(
    "argv,source",
    [
        (["trace", "--n", "1"], "in_frac.txt"),
        (["tilt", "--depth", "3"], "in_charp.txt"),
        (["perfection", "--iterations", "2"], "in_charp.txt"),
    ],
    ids=["trace", "tilt", "perfection"],
)
def test_e_header_out_of_range_is_a_usage_error(argv, source, e, tmp_path, capsys):
    # both inputs have p = 2; e must be positive and prime to p, as for act
    bad = tmp_path / source
    bad.write_text((GOLDEN / source).read_text().replace("e=1\n", f"e={e}\n"))
    assert run_text([*argv, str(bad)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "qcusp: renormalization index e must be positive and prime to p\n"


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("e=1\n", "e=1_1\n", "bad e header '1_1'"),
        ("e=1\n", "e=+7\n", "bad e header '+7'"),
        ("k=6\n", "k=+6\n", "bad k header '+6'"),
        ("k=6\n", "k=٦\n", "bad k header '٦'"),
        ("depth=2\n", "depth=2.0\n", "bad depth header '2.0'"),
        ("deg=6\n", "deg=2.5\n", "bad degree bound '2.5'"),
        ("deg=6\n", "deg=1e1\n", "bad degree bound '1e1'"),
        ("deg=6\n", "deg=6/0\n", "bad degree bound '6/0'"),
    ],
    ids=["e-underscore", "e-plus", "k-plus", "k-arabic-indic", "depth-decimal", "deg-decimal", "deg-exponent", "deg-zero-denominator"],
)
def test_bad_header_numbers_are_usage_errors(old, new, message, tmp_path, capsys):
    # integer fields are -?digits in ASCII, deg is inf or -?digits[/digits]
    bad = tmp_path / "in_frac.txt"
    bad.write_text((GOLDEN / "in_frac.txt").read_text().replace(old, new), encoding="utf-8")
    assert run_text(["trace", "--n", "1", str(bad)]) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err == f"qcusp: {message}\n"


def test_zero_term_above_degree_bound_is_a_usage_error(tmp_path, capsys):
    # every term is checked against the header's bounds, zero ones too
    bad = tmp_path / "in_frac.txt"
    bad.write_text((GOLDEN / "in_frac.txt").read_text() + "7 : 0\n")
    assert run_text(["level", str(bad)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "qcusp: exponent 7 exceeds degree bound 6 (line 14)\n"
