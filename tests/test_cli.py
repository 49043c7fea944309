"""Command line round trips, diagnostics, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsolv
from qsolv import (
    LaurentPoly,
    ParseError,
    SpecTarget,
    is_central_at,
    nf_mul,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
)
from qsolv.cli import (
    parse_element,
    parse_presentation,
    print_presentation,
    run_command,
)

PLANE_SRC = """\
algebra P
params q
gens x poly, y poly
commute x y : q
"""


@pytest.fixture
def plane_file(tmp_path):
    path = tmp_path / "plane.alg"
    path.write_text(PLANE_SRC)
    return str(path)


def write_presentation(tmp_path, p, name="alg"):
    path = tmp_path / f"{name}.alg"
    path.write_text(print_presentation(p))
    return str(path)


@pytest.mark.parametrize(
    "p",
    [
        quantum_plane(),
        quantum_affine(3),
        quantum_weyl(1),
        quantum_weyl(2),
        quantum_matrices(2),
        rank2(0),
        rank2(LaurentPoly.var(("q",), "q") ** 2 - 5 * LaurentPoly.var(("q",), "q") + 6),
    ],
    ids=lambda p: p.name,
)
def test_print_parse_round_trip(p):
    assert parse_presentation(print_presentation(p)) == p


def test_parse_literal_source():
    assert parse_presentation(PLANE_SRC) == quantum_plane()


def test_slash_separates_statements():
    one_liner = "algebra P / params q / gens x poly, y poly / commute x y : q"
    assert parse_presentation(one_liner) == quantum_plane()


def test_comments_and_blank_lines_ignored():
    src = "algebra P\n# a comment\n\nparams q\ngens x poly, y poly\ncommute x y : q\n"
    assert parse_presentation(src) == quantum_plane()


def test_rational_token_is_not_a_unit():
    src = "algebra A\nparams q\ngens x poly, y poly\ncommute x y : 1/2\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert info.value.line == 4


def test_tail_may_only_use_later_generators():
    src = "algebra A\nparams q\ngens x poly, y poly\ncommute x y : q\ntail x y : x\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert info.value.line == 5
    assert "later generators" in info.value.message


def test_poly_after_laurent_rejected():
    src = "algebra A\nparams q\ngens k laurent, x poly\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert info.value.line == 3
    assert "precede" in info.value.message


@pytest.mark.parametrize(
    "src, fragment",
    [
        ("", "empty"),
        ("algebra A\ngens x poly\ngens y poly\n", "duplicate gens"),
        ("algebra A\nparams q\nparams r\ngens x poly\n", "duplicate params"),
        ("algebra A\nparams q\ngens x poly\nfrobnicate\n", "unknown"),
        ("algebra A\nparams q\ngens x poly, x poly\n", "already in use"),
        ("algebra A\nparams q, q\ngens x poly\n", "repeated parameter"),
        ("algebra A\nparams q\ngens x poly, y poly\ncommute x y : r\n", "unknown"),
        ("algebra A\nparams q\n", "missing gens"),
    ],
)
def test_parse_errors(src, fragment):
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert fragment in info.value.message


def test_qskew_and_weight_statements():
    src = (
        "algebra W\nparams c\ngens y poly, x poly\n"
        "commute y x : c^-1\ntail y x : 1\nqskew 1 : c^-1\nweight 2 y : 1\n"
    )
    assert parse_presentation(src) == quantum_weyl(1)


def test_parse_element():
    p = quantum_plane()
    assert parse_element(p, "x*y") == p.monomial((1, 1))
    qinv = LaurentPoly.var(p.params, "q", -1)
    assert parse_element(p, "y*x") == p.monomial((1, 1), qinv)
    from fractions import Fraction

    assert parse_element(p, "1/2") == p.scalar(Fraction(1, 2))
    assert parse_element(p, "1/2 + x^2") == p.scalar(Fraction(1, 2)) + p.monomial((2, 0))
    assert parse_element(p, "q*x - y^2") == p.monomial(
        (1, 0), LaurentPoly.var(p.params, "q")
    ) - p.monomial((0, 2))
    with pytest.raises(ParseError):
        parse_element(p, "z + 1")
    with pytest.raises(ParseError):
        parse_element(p, "x^-1")


def test_validate_command(plane_file, capsys):
    assert run_command(["validate", plane_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["WF OK", "Q1 OK", "Q2 OK", "Q3 OK"]


def test_python_m_qsolv(plane_file):
    src = str(Path(qsolv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "qsolv", "validate", plane_file],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["WF OK", "Q1 OK", "Q2 OK", "Q3 OK"]
    assert done.stderr == ""


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    # a constant tail with no skew scaling breaks Q1
    bad.write_text(
        "algebra B\nparams q\ngens x poly, y poly\ncommute x y : q\ntail x y : 1\n"
    )
    assert run_command(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("Q1 FAIL") for line in out.splitlines())


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra A\nparams q\ngens x poly, y poly\ntail x y : x\n")
    assert run_command(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error at line 4")


@pytest.mark.parametrize("args, where", [
    (["validate", "{zero}"], "line 5, column 12"),
    (["adjoint", "{weyl}", "y", "1/0*x"], "line 1, column 1"),
    (["weights", "{weyl}", "x + 3/0"], "line 1, column 5"),
], ids=["tail", "adjoint", "weights"])
def test_zero_denominator_is_a_parse_error(tmp_path, capsys, args, where):
    zero = tmp_path / "zero.alg"
    zero.write_text(PLANE_SRC + "tail x y : 1/0\n")
    weyl = write_presentation(tmp_path, quantum_weyl(1), "weyl")
    assert run_command([a.format(zero=zero, weyl=weyl) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error at {where}: zero denominator\n"


def test_missing_file_exit_code(tmp_path, capsys):
    assert run_command(["validate", str(tmp_path / "absent.alg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_file_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "latin.alg"
    path.write_bytes(b"algebra A\xff\n")
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read {path}: not UTF-8 text "
                            "(invalid start byte at byte 9)\n")


def test_weights_command(tmp_path, capsys):
    path = write_presentation(tmp_path, quantum_weyl(1), "weyl")
    assert run_command(["weights", path, "x + y*x"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "components: 2"
    assert len(out) == 3


def test_adjoint_command(tmp_path, capsys):
    path = write_presentation(tmp_path, quantum_weyl(1), "weyl")
    assert run_command(["adjoint", path, "y", "x"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "minimal polynomial: t^2 + (-1 - c^-1)*t + (c^-1)"
    assert out[1] == "eigenvalue 1: (c/(c - 1))*y^-1"
    assert out[2] == "eigenvalue c^-1: (-c^2/(c - 1) + c*y*x)*y^-1"


def test_adjoint_unknown_generator(tmp_path, capsys):
    path = write_presentation(tmp_path, quantum_weyl(1), "weyl")
    assert run_command(["adjoint", path, "y", "z"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_adjoint_rejects_negative_degree_cap(tmp_path, capsys):
    path = write_presentation(tmp_path, quantum_weyl(1), "weyl")
    assert run_command(["adjoint", path, "y", "x", "--degree-cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --degree-cap must be nonnegative\n"
    # a zero cap is valid input; the search just finds no dependence
    assert run_command(["adjoint", path, "y", "x", "--degree-cap", "0"]) == 1
    capsys.readouterr()


def test_adjoint_repeated_eigenvalue(tmp_path, capsys):
    jordan = tmp_path / "jordan.alg"
    jordan.write_text("algebra J\nparams q\ngens x poly, y poly\ntail x y : 1\n")
    assert run_command(["adjoint", str(jordan), "x", "y"]) == 1
    assert "repeated eigenvalue" in capsys.readouterr().out


def test_adjoint_repeated_eigenvalue_report(tmp_path, capsys):
    report = tmp_path / "report.txt"
    jordan = Path(__file__).parent / "data" / "jordan.alg"
    args = ["adjoint", str(jordan), "x", "y", "--out", str(report)]
    assert run_command(args) == 1
    assert capsys.readouterr().out == "repeated eigenvalue 1; no spectral split\n"
    assert report.read_text().splitlines() == [
        "algebra: jordan", "command: adjoint", "repeated_root: 1", "status: 1",
    ]


def test_center_command(tmp_path, capsys):
    torus = tmp_path / "torus.alg"
    torus.write_text(
        "algebra T\nparams q\n"
        "gens k1 laurent, k2 laurent, k3 laurent\ncommute k1 k2 : q\n"
    )
    assert run_command(["center", str(torus)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "G = <[0, 0, 1]>; center = C[Y^m : m in G]"
    assert "commutation 1 2: q" in out


def test_center_trivial(tmp_path, capsys):
    torus = tmp_path / "free.alg"
    torus.write_text("algebra T\nparams q\ngens k1 laurent, k2 laurent\ncommute k1 k2 : q\n")
    assert run_command(["center", str(torus)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "G = {0}; center = C"


def test_center_rejects_polynomial_generators(plane_file, capsys):
    assert run_command(["center", plane_file]) == 3
    assert "unsupported" in capsys.readouterr().err


def test_stratify_command(plane_file, capsys):
    assert run_command(["stratify", plane_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "strata: 4"
    assert out[1] == "(0, 0, 0): vanish {-}, invert {x, y}, torus rank 2"
    assert out[-1] == "(2): vanish {x, y}, invert {-}, torus rank 0"


def test_stratify_rank2_family(tmp_path, capsys):
    q = LaurentPoly.var(("q",), "q")
    path = write_presentation(tmp_path, rank2(q ** 2 - 5 * q + 6), "rank2")
    assert run_command(["stratify", path]) == 0
    out = capsys.readouterr().out
    assert "exceptional parameter values: {1, 2, 3}" in out
    assert "at q = 1 the fiber is a Weyl algebra" in out
    assert "M1:" in out and "M2:" in out


RANK2_STRATA = [
    "M1: primes avoiding u; localizing at the normal element u gives a "
    "twisted Laurent model",
    "M2: primes containing u; the quotient by u is commutative",
]


@pytest.mark.parametrize("src, lines", [
    ("params t\ngens x poly, y poly\ncommute x y : t\ntail x y : t - 2\n",
     ["u = 1 - 2*t^-1 + (1 - t^-1)*x*y", "exceptional parameter values: {1, 2}",
      "at t = 1 the fiber is a Weyl algebra"]),
    ("params q\ngens a poly, b poly\ncommute a b : q\ntail a b : q - 2\n",
     ["u = 1 - 2*q^-1 + (1 - q^-1)*a*b", "exceptional parameter values: {1, 2}",
      "at q = 1 the fiber is a Weyl algebra"]),
], ids=["renamed-parameter", "renamed-generators"])
def test_stratify_rank2_family_in_the_files_names(tmp_path, capsys, src, lines):
    path = tmp_path / "renamed.alg"
    path.write_text("algebra renamed\n" + src)
    assert run_command(["stratify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == lines + RANK2_STRATA


def test_stratify_unsupported_family(tmp_path, capsys):
    path = write_presentation(tmp_path, quantum_weyl(2), "weyl2")
    assert run_command(["stratify", path]) == 3
    assert "unsupported" in capsys.readouterr().err


def test_specialize_command(plane_file, capsys):
    assert run_command(["specialize", plane_file, "--param", "q=3"]) == 0
    out = capsys.readouterr().out
    assert "all checks pass at the target" in out

    assert run_command(["specialize", plane_file, "--root-of-unity", "4"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("Q2 FAIL") for line in out.splitlines())

    assert run_command(["specialize", plane_file, "--param", "q=0"]) == 1
    assert "unit" in capsys.readouterr().err

    # no assignment means the generic point
    assert run_command(["specialize", plane_file]) == 0
    assert "transcendental" in capsys.readouterr().out


@pytest.mark.parametrize("params", ["", "params q\n"])
def test_validate_minus_one_without_parameters(tmp_path, capsys, params):
    # -1 generates torsion whether or not the file declares a parameter
    path = tmp_path / "minus.alg"
    path.write_text(f"algebra minus\n{params}gens x poly, y poly\ncommute x y : -1\n")
    assert run_command(["validate", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("Q2")] == [
        "Q2 FAIL: the group generated by the commutation data has 2-torsion [unit group]"
    ]


def test_specialize_report_has_one_key_per_finding(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(
        "algebra B\nparams q\ngens x poly, y poly, z poly\ncommute x y : q\n"
        "commute x z : q\ncommute y z : q\ntail y z : 1\ntail x y : z^2\n"
    )
    report = tmp_path / "report.txt"
    args = ["specialize", str(path), "--root-of-unity", "6", "--out", str(report)]
    assert run_command(args) == 1
    shown = [line for line in capsys.readouterr().out.splitlines()
             if " FAIL: " in line or " note: " in line]
    pairs = [line.split(": ", 1) for line in report.read_text().splitlines()]
    keys = [key for key, _ in pairs if key.startswith("finding.")]
    assert len(shown) == 9
    assert len(keys) == len(set(keys)) == len(shown)
    # numbered in stdout order, each value the message and location
    findings = sorted((key, value) for key, value in pairs if key.startswith("finding."))
    for idx, ((key, value), line) in enumerate(zip(findings, shown), 1):
        cond, _, text = line.partition(" ")
        assert key == f"finding.{idx:02d}.{cond}"
        assert value == text.split(": ", 1)[1]


def test_specialize_rejects_nonpositive_root_of_unity(plane_file, capsys):
    for order in ("0", "-6"):
        assert run_command(["specialize", plane_file, "--root-of-unity", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --root-of-unity must be positive\n"
    # an order above the cyclotomic bound is a limit of the toolkit, not bad input
    assert run_command(["specialize", plane_file, "--root-of-unity", "65"]) == 1
    assert capsys.readouterr().err == (
        "specialization error: root-of-unity order 65 exceeds the supported "
        "bound 64\n"
    )


def test_specialize_fraction_values(plane_file, capsys):
    assert run_command(["specialize", plane_file, "--param", "q=2/3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["1/0", "1/", "2/3/4", "x"])
def test_specialize_rejects_bad_values(plane_file, capsys, raw):
    assert run_command(["specialize", plane_file, "--param", f"q={raw}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid value {raw!r} for q\n"


def test_specialize_root_of_unity_needs_integer_exponents(plane_file, capsys):
    args = ["specialize", plane_file, "--root-of-unity", "6"]
    assert run_command([*args, "--param", "q=1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --root-of-unity needs an integer exponent for q, got 1/2\n"
    )
    # an integral fraction is an integer exponent
    assert run_command([*args, "--param", "q=4/2"]) == 1
    assert "q=zeta^2" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--root-of-unity", "6", "--param", "r=2"],
    ["--param", "q=2", "--param", "r=3"],
    ["--param", "Q=2"],
])
def test_specialize_rejects_undeclared_parameters(plane_file, capsys, args):
    assert run_command(["specialize", plane_file, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = args[-1].split("=")[0]
    assert captured.err == (
        f"error: unknown parameter {name!r} in --param; declared parameters: q\n"
    )


@pytest.mark.parametrize("args", [
    ["--param", "q=2", "--param", "q=3"],
    ["--root-of-unity", "6", "--param", "q=1", "--param", " q = 5"],
])
def test_specialize_rejects_repeated_parameters(plane_file, capsys, args):
    assert run_command(["specialize", plane_file, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --param gives 'q' more than once\n"


def test_specialize_without_parameters_rejects_any_assignment(tmp_path, capsys):
    path = tmp_path / "minus.alg"
    path.write_text("algebra minus\ngens x poly, y poly\ncommute x y : -1\n")
    assert run_command(["specialize", str(path), "--param", "q=2"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown parameter 'q' in --param; declared parameters: none\n"
    )


def test_compositions_command(capsys):
    assert run_command(["compositions", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "(3)"
    assert out[-1] == "count: 8"
    assert len(out) == 9


def test_compositions_rejects_negative(capsys):
    assert run_command(["compositions", "--", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", [17, 1000000])
def test_compositions_refuses_large_n_before_any_work(n, capsys, monkeypatch):
    def listed(_):
        raise AssertionError("compositions were enumerated")

    monkeypatch.setattr("qsolv.strat.admissible_compositions", listed)
    assert run_command(["compositions", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be at most 16\n"


def test_compositions_at_the_bound(capsys):
    assert run_command(["compositions", "16"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "(16)"
    assert out[1] == "(0, 15)"
    assert out[-2] == "(" + ", ".join(["0"] * 17) + ")"
    assert out[-1] == "count: 65536"
    assert len(out) == 2 ** 16 + 1


@pytest.mark.parametrize("target, reason", [
    ("absent/report.txt", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-dir", "directory"])
def test_unwritable_report_is_an_input_error(tmp_path, plane_file, capsys,
                                             target, reason):
    path = tmp_path / target
    assert run_command(["validate", plane_file, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "WF OK"
    assert captured.err == f"error: cannot write {path}: {reason}\n"


def test_report_file(tmp_path, plane_file, capsys):
    report = tmp_path / "report.txt"
    assert run_command(["validate", plane_file, "--out", str(report)]) == 0
    capsys.readouterr()
    lines = report.read_text().splitlines()
    assert lines == sorted(lines)
    assert "command: validate" in lines
    assert all(": " in line for line in lines)


def run_on_text(tmp_path, capsys, text, *argv):
    """Exit status, stdout lines and stderr of a command on one file."""
    path = tmp_path / "case.alg"
    path.write_text(text)
    status = run_command([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return status, captured.out.splitlines(), captured.err


def test_negative_scalar_validates_with_a_note(tmp_path, capsys):
    text = PLANE_SRC.replace("commute x y : q", "commute x y : -q")
    assert run_on_text(tmp_path, capsys, text, "validate") == (0, [
        "WF OK", "Q1 OK", "Q2 OK",
        "Q2 note: negative unit scalars present; torsion-free generically "
        "but fragile under specialization",
        "Q3 OK",
    ], "")


def test_param_without_a_value_is_an_input_error(tmp_path, capsys):
    assert run_on_text(tmp_path, capsys, PLANE_SRC, "specialize", "--param", "q") == (
        2, [], "error: --param expects NAME=VALUE, got 'q'\n")


def test_second_tail_line_for_a_pair_is_a_parse_error(tmp_path, capsys):
    text = "algebra D\nparams q\ngens x poly, y poly\ntail x y : 1\ntail x y : 1\n"
    assert run_on_text(tmp_path, capsys, text, "validate") == (
        2, [], "parse error at line 5, column 1: duplicate tail entry for x y\n")


def test_stratify_refuses_a_tail_with_a_letter(tmp_path, capsys):
    # two generators and one parameter, but the tail is y, not a scalar
    assert run_on_text(tmp_path, capsys, PLANE_SRC + "tail x y : y\n", "stratify") == (
        3, [], "unsupported: stratification supports tail-free presentations "
               "and the rank-2 single-tail family only\n")


def test_center_of_a_torus_without_parameters(tmp_path, capsys):
    status, out, err = run_on_text(
        tmp_path, capsys, "algebra T\ngens x laurent, y laurent\n", "center")
    assert (status, out[0], err) == (
        0, "G = <[1, 0], [0, 1]>; center = C[Y^m : m in G]", "")


def test_generator_is_not_central_at_a_rational_value():
    p = quantum_plane()
    assert is_central_at(p, p.gen(0), SpecTarget.rational({"q": 2})) is False
